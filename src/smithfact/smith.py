"""Smith normal form over the supported domains, with certificates.

The decomposition returned by :func:`smith` satisfies U * A = D * V exactly,
with U and V of unit determinant, D diagonal with canonical entries forming
a divisibility chain d1 | d2 | ... | dr.  The inverse of V is tracked during
the reduction (columns beyond the rank are a kernel basis), so linear systems
over the ring are solvable from the same data.  The reduction works on the
matrices' raw payloads; ``RingElement`` values appear only in the Bezout
certificates it requests and in the invariant factors it returns.

Determinantal invariants (gcds of k x k minors) provide an independent
oracle for the invariant factors on inputs up to MINOR_ORACLE_CAP; larger
inputs are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import PreconditionError, ValidationError
from .matrices import RingMatrix
from .rings import (Ring, RingElement, _not_dividing, divides, exact_div,
                    factorize, gcd_bezout, normalize)

__all__ = [
    "SmithDecomposition",
    "smith",
    "DeterminantalInvariants",
    "determinantal_invariants",
    "invariant_factors_via_delta",
    "equivalent",
    "kernel_basis",
    "ModuleInvariants",
    "image_cokernel_invariants",
    "LinearSolver",
    "Subquotient",
    "subquotient",
    "MINOR_ORACLE_CAP",
]

MINOR_ORACLE_CAP = 5  # minor enumeration is exponential; cap the oracle


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A = D * V with unit-determinant U, V; D = diag(invariant factors).

    ``v_inv`` is the two-sided inverse of V; the columns of ``v_inv`` with
    index >= rank freely span ker(A).
    """

    U: RingMatrix
    V: RingMatrix
    D: RingMatrix
    rank: int
    invariant_factors: tuple[RingElement, ...]
    v_inv: RingMatrix

    def verify(self, a: RingMatrix) -> bool:
        """Re-check every property of the certificate against ``a``.

        ``V * v_inv = I`` makes V square with det V * det v_inv = 1, so it
        also proves det V a unit; only det U is computed.
        """
        ring = a.ring
        chain = self.invariant_factors
        if (self.rank != len(chain) or self.rank > min(a.rows, a.cols)
                or self.D != RingMatrix.diagonal(ring, chain, a.rows, a.cols)):
            return False
        if self.U @ a != self.D @ self.V:
            return False
        if self.V @ self.v_inv != RingMatrix.identity(ring, a.cols):
            return False
        if not self.U.is_unit_determinant():
            return False
        for d in chain:
            if d.is_zero or normalize(d).canonical != d:
                return False
        return all(divides(chain[i], chain[i + 1])
                   for i in range(len(chain) - 1))


def smith(a: RingMatrix) -> SmithDecomposition:
    """Gcd-driven row/column reduction with deterministic pivoting.

    The pivot is the smallest nonzero entry in the canonical total order
    (row-major tie break).  Cross entries are cleared with two-row/two-column
    Bezout blocks of determinant one; whenever the pivot fails to divide some
    entry of the remaining submatrix, that row is merged into the pivot row
    and the pass repeats, which strictly shrinks the pivot and also makes the
    divisibility chain hold by construction.

    The reduction runs on rows of raw payloads with the ring's primitives
    bound to locals; each Bezout block takes its certificate from
    ``gcd_bezout``, and U, V and v_inv are built from the payload rows.
    """
    ring = a.ring
    add, sub, mul, divmod_ = ring._add, ring._sub, ring._mul, ring._divmod
    sort_key, canonical_unit = ring._sort_key, ring._canonical_unit
    zero, one = ring._from_int(0), ring._from_int(1)
    m, n = a.rows, a.cols
    B = [list(a.payloads[i * n:(i + 1) * n]) for i in range(m)]
    U = [[one if i == j else zero for j in range(m)] for i in range(m)]
    V = [[one if i == j else zero for j in range(n)] for i in range(n)]
    Vi = [row[:] for row in V]

    def quotient(x, g):
        q, r = divmod_(x, g)
        if r != zero:
            raise _not_dividing(ring, g, x)
        return q

    def bezout_block(av, bv):
        """(x, y, s, t) with x*a + y*b = g, s = a/g and t = b/g exact."""
        cert = gcd_bezout(ring.element(av), ring.element(bv))
        g = cert.g.payload
        s = quotient(av, g)
        t = quotient(bv, g)
        return cert.x.payload, cert.y.payload, s, t

    def row_swap(i, j):
        B[i], B[j] = B[j], B[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in B:
            row[i], row[j] = row[j], row[i]
        for row in Vi:
            row[i], row[j] = row[j], row[i]
        V[i], V[j] = V[j], V[i]

    def row_combine(i, j):
        """Left-multiply rows (i, j) by [[x, y], [-b/g, a/g]] for the pivot
        column entries a = B[i][k], b = B[j][k]; afterwards B[j][k] = 0."""
        x, y, s, t = bezout_block(B[i][k], B[j][k])
        for mat in (B, U):
            ri, rj = mat[i], mat[j]
            mat[i] = [add(mul(x, p), mul(y, q)) for p, q in zip(ri, rj)]
            mat[j] = [sub(mul(s, q), mul(t, p)) for p, q in zip(ri, rj)]

    def col_combine(i, j):
        """Right-multiply columns (i, j) by the analogous Bezout block for
        the pivot row entries a = B[k][i], b = B[k][j]."""
        x, y, s, t = bezout_block(B[k][i], B[k][j])
        for mat in (B, Vi):
            for row in mat:
                p, q = row[i], row[j]
                row[i] = add(mul(x, p), mul(y, q))
                row[j] = sub(mul(s, q), mul(t, p))
        ri, rj = V[i], V[j]
        V[i] = [add(mul(s, p), mul(t, q)) for p, q in zip(ri, rj)]
        V[j] = [sub(mul(x, q), mul(y, p)) for p, q in zip(ri, rj)]

    def row_add_into_pivot(i):
        # row_k += row_i ; same left transform applied to U
        B[k] = [add(p, q) for p, q in zip(B[k], B[i])]
        U[k] = [add(p, q) for p, q in zip(U[k], U[i])]

    k = 0
    while k < min(m, n):
        # deterministic pivot: smallest canonical nonzero entry, row-major
        best = None
        for i in range(k, m):
            row = B[i]
            for j in range(k, n):
                e = row[j]
                if e != zero:
                    key = sort_key(e)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            row_swap(k, pi)
        if pj != k:
            col_swap(k, pj)
        while True:
            for i in range(k + 1, m):
                if B[i][k] != zero:
                    row_combine(k, i)
            for j in range(k + 1, n):
                if B[k][j] != zero:
                    col_combine(k, j)
            if any(B[i][k] != zero for i in range(k + 1, m)):
                continue  # column refilled by the column pass
            d = B[k][k]
            offender = next(
                (i for i in range(k + 1, m)
                 if any(divmod_(e, d)[1] != zero for e in B[i][k + 1:])),
                None)
            if offender is None:
                break
            row_add_into_pivot(offender)
        u = canonical_unit(B[k][k])
        if u != one:
            B[k] = [mul(u, e) for e in B[k]]
            U[k] = [mul(u, e) for e in U[k]]
        k += 1

    rank = k
    factors = tuple(ring.element(B[i][i]) for i in range(rank))
    return SmithDecomposition(
        U=RingMatrix(ring, m, m, [e for row in U for e in row]),
        V=RingMatrix(ring, n, n, [e for row in V for e in row]),
        D=RingMatrix.diagonal(ring, factors, rows=m, cols=n),
        rank=rank,
        invariant_factors=factors,
        v_inv=RingMatrix(ring, n, n, [e for row in Vi for e in row]),
    )


@dataclass(frozen=True)
class DeterminantalInvariants:
    """delta[k] = gcd of all k x k minors (delta[0] = 1), trimmed at the rank."""

    delta: tuple[RingElement, ...]
    rank: int


def determinantal_invariants(a: RingMatrix) -> DeterminantalInvariants:
    """Minor enumeration; refused above MINOR_ORACLE_CAP rows or columns."""
    ring = a.ring
    if max(a.rows, a.cols) > MINOR_ORACLE_CAP:
        raise PreconditionError(
            f"minor oracle is capped at {MINOR_ORACLE_CAP}x{MINOR_ORACLE_CAP}, "
            f"got {a.rows}x{a.cols}")
    delta: list[RingElement] = [ring.one]
    for k in range(1, min(a.rows, a.cols) + 1):
        g = ring.zero
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                minor = RingMatrix(ring, k, k, [a.payloads[i * a.cols + j]
                                                for i in rows for j in cols])
                g = gcd_bezout(g, minor.det()).g
                # gcd already a unit: no smaller value possible
                if g.is_unit:
                    break
            if g.is_unit:
                break
        if g.is_zero:
            break
        delta.append(g)
    return DeterminantalInvariants(tuple(delta), len(delta) - 1)


def invariant_factors_via_delta(a: RingMatrix) -> tuple[RingElement, ...]:
    """d_k = delta_k / delta_{k-1}, canonical; the minor-gcd oracle."""
    inv = determinantal_invariants(a)
    out = []
    for k in range(1, inv.rank + 1):
        out.append(normalize(exact_div(inv.delta[k], inv.delta[k - 1])).canonical)
    return tuple(out)


def equivalent(a: RingMatrix, b: RingMatrix) -> bool:
    """Same rank and invariant factors; dimension mismatch is an error."""
    if a.ring is not b.ring:
        raise ValidationError("matrices over different rings")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    da, db = smith(a), smith(b)
    return da.rank == db.rank and da.invariant_factors == db.invariant_factors


def kernel_basis(a: RingMatrix) -> RingMatrix:
    """Columns freely generate ker(a); shape n x (n - rank)."""
    return _kernel_columns(smith(a))


def _kernel_columns(dec: SmithDecomposition) -> RingMatrix:
    """The columns of ``v_inv`` past the rank: a free basis of ker(A)."""
    vi, r = dec.v_inv, dec.rank
    n = vi.cols
    return RingMatrix(vi.ring, vi.rows, n - r,
                      [p for i in range(vi.rows)
                       for p in vi.payloads[i * n + r:(i + 1) * n]])


def _kernel_coordinates(dec: SmithDecomposition,
                        x: RingMatrix) -> RingMatrix | None:
    """Coordinates of the columns of x in ``_kernel_columns(dec)``, or None
    when one leaves ker(A): since U*A = D*V, A*x = 0 exactly when the first
    ``rank`` rows of V*x vanish, and x = v_inv*(V*x) gives the rest."""
    vx = dec.V @ x
    cut = dec.rank * vx.cols
    zero = vx.ring._from_int(0)
    if any(p != zero for p in vx.payloads[:cut]):
        return None
    return RingMatrix(vx.ring, vx.rows - dec.rank, vx.cols, vx.payloads[cut:])


@dataclass(frozen=True)
class ModuleInvariants:
    """A finitely generated module in invariant-factor form.

    ``cyclic_factors`` lists canonical non-unit factors in a divisibility
    chain, followed by zeros, one per free summand.  The empty tuple is the
    zero module.  ``over`` is a display tag for the base ring context.
    """

    ring: Ring
    cyclic_factors: tuple[RingElement, ...]
    over: str = "R"

    @classmethod
    def build(cls, ring: Ring, factors, over: str = "R") -> "ModuleInvariants":
        tors = []
        free = 0
        for f in factors:
            f = normalize(f).canonical
            if f.is_zero:
                free += 1
            elif not f.is_unit:
                tors.append(f)
        for i in range(len(tors) - 1):
            if not divides(tors[i], tors[i + 1]):
                raise ValidationError("cyclic factors do not form a chain")
        return cls(ring, tuple(tors) + (ring.zero,) * free, over)

    @property
    def is_zero(self) -> bool:
        return not self.cyclic_factors

    @property
    def free_rank(self) -> int:
        return sum(1 for f in self.cyclic_factors if f.is_zero)

    @property
    def torsion_factors(self) -> tuple[RingElement, ...]:
        return tuple(f for f in self.cyclic_factors if not f.is_zero)

    def length(self) -> int:
        """Composition length; only defined for finite-length modules."""
        if self.free_rank:
            raise PreconditionError("module has a free summand")
        total = 0
        for f in self.torsion_factors:
            total += sum(e for _, e in factorize(f).factors)
        return total

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        free = self.free_rank
        for f in self.torsion_factors:
            parts.append(f"{self.over}/<{f.text()}>")
        if free == 1:
            parts.append(self.over)
        elif free > 1:
            parts.append(f"{self.over}^{free}")
        return " + ".join(parts)


def image_cokernel_invariants(a: RingMatrix) -> ModuleInvariants:
    """Invariants of coker(a) = R^rows / column span of a."""
    dec = smith(a)
    factors = list(dec.invariant_factors) + [a.ring.zero] * (a.rows - dec.rank)
    return ModuleInvariants.build(a.ring, factors)


class LinearSolver:
    """Repeated exact solving of A x = b from one Smith decomposition."""

    def __init__(self, a: RingMatrix):
        self.a = a
        self.dec = smith(a)

    def solve_matrix(self, b: RingMatrix) -> RingMatrix | None:
        """X with A @ X = B, or None when no exact solution exists."""
        if b.rows != self.a.rows:
            raise ValidationError("right-hand side has the wrong height")
        dec, ring = self.dec, self.a.ring
        divmod_, zero = ring._divmod, ring._from_int(0)
        ub = (dec.U @ b).payloads
        t = b.cols
        cut = dec.rank * t
        if any(p != zero for p in ub[cut:]):
            return None
        # y = D^+ (U b): row i < rank divided by d_i, the rows past it zero
        y = []
        for i, d in enumerate(dec.invariant_factors):
            for p in ub[i * t:(i + 1) * t]:
                q, r = divmod_(p, d.payload)
                if r != zero:
                    return None
                y.append(q)
        y.extend([zero] * ((self.a.cols - dec.rank) * t))
        return dec.v_inv @ RingMatrix(ring, self.a.cols, t, y)

    def solve_vector(self, b) -> list[RingElement] | None:
        col = RingMatrix.from_rows(self.a.ring, [list(b)]).transpose()
        x = self.solve_matrix(col)
        return None if x is None else list(x.entries)


@dataclass(frozen=True)
class Subquotient:
    """ker(outer)/im(inner), presented by generators and relations.

    Costs two Smith decompositions: ``outer_smith`` and one of
    ``relations``.  Because U*outer = D*V, the kernel basis
    (``generators``, the columns of ``v_inv`` past the rank), the relations
    (the rows of V*inner past the rank) and the precondition (the rows
    above it vanish) all come from ``outer_smith``.
    """

    outer_smith: SmithDecomposition
    relations: RingMatrix
    invariants: ModuleInvariants

    @property
    def generators(self) -> RingMatrix:
        return _kernel_columns(self.outer_smith)


def subquotient(outer: RingMatrix, inner: RingMatrix) -> Subquotient:
    """Homology-style subquotient; requires outer @ inner = 0."""
    dec = smith(outer)
    rel = _kernel_coordinates(dec, inner)
    if rel is None:
        raise PreconditionError("image does not lie inside the kernel")
    rel_dec = smith(rel)
    factors = list(rel_dec.invariant_factors) + \
        [outer.ring.zero] * (rel.rows - rel_dec.rank)
    return Subquotient(dec, rel, ModuleInvariants.build(outer.ring, factors))
