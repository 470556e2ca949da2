"""Smith normal form over the supported domains, with certificates.

The decomposition returned by :func:`smith` satisfies U * A = D * V exactly,
with U and V of unit determinant, D diagonal with canonical entries forming
a divisibility chain d1 | d2 | ... | dr.  The inverse of V is tracked during
the reduction (columns beyond the rank are a kernel basis), so linear systems
over the ring are solvable from the same data.  The certificate stores U,
V, v_inv and the chain only; the rank and D are derived from them, and
``verify`` checks each stored fact once.  When the rank fills the rows it
proves U invertible by a right inverse read from A * v_inv, with no
determinant; only when rank < rows, where D has zero rows and A * v_inv
yields no such inverse, does it compute det U by Bareiss elimination.  The
reduction works on the matrices' raw payloads, in one loop with no
per-call closures; ``RingElement`` values appear only in the Bezout
certificates it requests and in the invariant factors it returns.  When a
block requests a certificate, and how each block is applied, is written
once, in :func:`smith`'s docstring.

A 2x2 input runs the same steps unrolled on scalar locals
(``_smith_2x2``), without the loop's row lists and generator ``min``.
The rank-2 cone of each morphism e_v1 -> e_v2 of elementary
factorizations is a 2x2 Smith call, most of the classification traffic
(1,544 of 1,672 calls on an ``mf_classify`` pass), and the loop's set-up
was most of their cost.  The loop (``_smith_loop``) serves every other
shape and is the 2x2 path's test oracle.

Module invariants come from the same reduction: U * A = D * V with U, V
invertible makes coker A isomorphic to coker D, the sum of the R/(d_i)
plus R^(rows - rank) (``image_cokernel_invariants``).  ker(outer)/im(inner)
is the cokernel of its relations, the coordinates of im(inner) in the
kernel basis, so ``subquotient`` reads its invariants the same way.
Nothing here factors an element.

Determinantal invariants (gcds of k x k minors) provide an independent
oracle for the invariant factors on inputs up to MINOR_ORACLE_CAP; larger
inputs are refused.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import NamedTuple

from .errors import PreconditionError, ValidationError
from .matrices import RingMatrix
from .rings import (Ring, RingElement, _not_dividing, divides, exact_div,
                    gcd_bezout, normalize)

__all__ = [
    "SmithDecomposition",
    "smith",
    "DeterminantalInvariants",
    "determinantal_invariants",
    "invariant_factors_via_delta",
    "kernel_basis",
    "ModuleInvariants",
    "image_cokernel_invariants",
    "LinearSolver",
    "Subquotient",
    "subquotient",
    "MINOR_ORACLE_CAP",
]

MINOR_ORACLE_CAP = 5  # minor enumeration is exponential; cap the oracle


class SmithDecomposition(NamedTuple):
    """U * A = D * V with unit-determinant U, V; D = diag(invariant factors).

    ``v_inv`` is the two-sided inverse of V; the columns of ``v_inv`` with
    index >= rank freely span ker(A).  Each fact is stored once: ``rank`` is
    the length of the chain and ``D`` is read from the chain and the shapes
    of U and V, so no stored copy can disagree with them.
    """

    U: RingMatrix
    V: RingMatrix
    invariant_factors: tuple[RingElement, ...]
    v_inv: RingMatrix

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def D(self) -> RingMatrix:
        return RingMatrix.diagonal(self.U.ring, self.invariant_factors,
                                   self.U.rows, self.V.rows)

    def verify(self, a: RingMatrix) -> bool:
        """Re-check every property of the certificate against ``a``; False,
        never an exception, when it does not fit ``a``.

        ``V * v_inv = I`` makes V square with det V * det v_inv = 1, so it
        also proves det V a unit.  With ``U * A = D * V`` it gives
        U * (A * v_inv) = D.  When the rank fills the rows, U is proved
        invertible without a determinant: if each non-unit d_j divides
        column j of A * v_inv, the quotients are column j of a right
        inverse of U (d_j * (U * x_j - e_j) = 0 in a domain), and a unit
        d_j needs no check.  Only when rank < rows, where D has zero rows
        and A * v_inv yields no right inverse, is det U computed (Bareiss).
        """
        ring, (m, n) = a.ring, a.shape
        chain = self.invariant_factors
        r = len(chain)
        fits = ((self.U, m), (self.V, n), (self.v_inv, n))
        if (any(x.ring is not ring or x.shape != (k, k) for x, k in fits)
                or r > min(m, n)
                or any(d.ring is not ring or d.is_zero
                       or normalize(d).canonical != d for d in chain)
                or not all(divides(chain[i], chain[i + 1])
                           for i in range(r - 1))):
            return False
        mul, divmod_, is_unit = ring._mul, ring._divmod, ring._is_unit
        zero = ring._from_int(0)
        # D * V: the first r rows of V scaled by d_i, then zero rows
        vp = self.V.payloads
        dv = []
        for i, d in enumerate(chain):
            row = vp[i * n:(i + 1) * n]
            dv.extend(row if is_unit(d.payload)
                      else [mul(d.payload, p) for p in row])
        dv.extend([zero] * ((m - r) * n))
        if ((self.U @ a).payloads != tuple(dv)
                or self.V @ self.v_inv != RingMatrix.identity(ring, n)):
            return False
        if r < m:
            return self.U.is_unit_determinant()
        vi = self.v_inv.payloads
        for j, d in enumerate(chain):
            if not is_unit(d.payload):
                column = ring._matmul(a.payloads, vi[j::n], m, n, 1)
                if any(divmod_(p, d.payload)[1] != zero for p in column):
                    return False
        return True


def _certificate(ring: Ring, av, bv) -> tuple:
    """(x, y, s, t) for payloads av not dividing bv: ``gcd_bezout``'s
    certificate x*a + y*b = g with s = a/g and t = b/g.  Both quotients must
    be exact and the determinant x*s + y*t must be 1, or the certificate is
    refused.  ``gcd_bezout`` is looked up on this module at call time."""
    add, mul, divmod_ = ring._add, ring._mul, ring._divmod
    cert = gcd_bezout(ring.element(av), ring.element(bv))
    g, x, y = cert.g.payload, cert.x.payload, cert.y.payload
    (s, rs), (t, rt) = divmod_(av, g), divmod_(bv, g)
    if rs or rt:
        raise _not_dividing(ring, g, av if rs else bv)
    if add(mul(x, s), mul(y, t)) != ring._from_int(1):
        raise PreconditionError(
            f"Bezout certificate of {ring._format(av)} and "
            f"{ring._format(bv)} has x*a + y*b != g in {ring.name}")
    return x, y, s, t


def smith(a: RingMatrix) -> SmithDecomposition:
    """Gcd-driven row/column reduction with deterministic pivoting.

    The pivot is the smallest nonzero entry in the canonical total order
    (row-major tie break).  Cross entries are cleared with two-row/two-column
    Bezout blocks of determinant one; whenever the pivot fails to divide some
    entry of the remaining submatrix, that row is merged into the pivot row
    and the pass repeats, which strictly shrinks the pivot and also makes the
    divisibility chain hold by construction.

    The reduction runs on rows of raw payloads with the ring's primitives
    bound to locals, in one loop with no per-call closures, and U, V and
    v_inv are built from the payload rows.  The block of a pair (a, b),
    a the pivot, is [[x, y], [-t, s]] with determinant x*s + y*t = 1,
    s = a/g, t = b/g and g the canonical gcd.  Each block starts with one
    division of b by a.  When a divides b no certificate is requested:
    g = u*a for u = canonical_unit(a) and the block is
    (u, 0, 1/u, (b/a)/u), and when u = 1 it is a plain elimination
    [[1, 0], [-t, 1]] that changes only the eliminated row or column (and
    one row of V), by ``q - t*p`` with the zero entries p skipped.  Only a
    pair with a not dividing b takes a certificate from ``gcd_bezout``,
    requested and checked in one helper (``_certificate``), and applied as
    the general two-row combination, skipping positions where both entries
    are zero (most of a hom differential), once both quotients are exact
    and its determinant x*s + y*t is 1: a certificate with x*a + y*b != g
    raises ``PreconditionError`` instead of yielding a V that is not the
    inverse of v_inv.  The pivot search and the divisibility scan after
    each pass skip zero entries, and a unit pivot, which divides
    everything, ends the pass without the scan.  The pivot column is
    re-checked only after a general column block, the one step that can
    refill it.

    A 2x2 input takes ``_smith_2x2``, the same steps unrolled; every other
    shape takes the loop, ``_smith_loop``.
    """
    if a.rows == 2 and a.cols == 2:
        return _smith_2x2(a)
    return _smith_loop(a)


def _smith_loop(a: RingMatrix) -> SmithDecomposition:
    """The reduction of ``smith`` for any shape, and the oracle of
    ``_smith_2x2``."""
    ring = a.ring
    add, sub, mul, divmod_ = ring._add, ring._sub, ring._mul, ring._divmod
    sort_key, canonical_unit = ring._sort_key, ring._canonical_unit
    is_unit, unit_inv = ring._is_unit, ring._unit_inv
    zero, one = ring._from_int(0), ring._from_int(1)
    m, n = a.rows, a.cols
    B = [list(a.payloads[i * n:(i + 1) * n]) for i in range(m)]
    U = [[zero] * m for _ in range(m)]
    for i in range(m):
        U[i][i] = one
    V = [[zero] * n for _ in range(n)]
    for i in range(n):
        V[i][i] = one
    Vi = [row[:] for row in V]

    k = 0
    while k < min(m, n):
        # deterministic pivot: smallest canonical nonzero entry, row-major
        best = min(((sort_key(e), i, j) for i in range(k, m)
                    for j, e in enumerate(B[i][k:], k) if e), default=None)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            B[k], B[pi] = B[pi], B[k]
            U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for row in B:
                row[k], row[pj] = row[pj], row[k]
            for row in Vi:
                row[k], row[pj] = row[pj], row[k]
            V[k], V[pj] = V[pj], V[k]
        while True:
            refilled = False  # only a general column block refills column k
            # rows: left-multiply rows (k, i) by the block of the pivot
            # column entries a = B[k][k], b = B[i][k]; then B[i][k] = 0
            for i in range(k + 1, m):
                bv = B[i][k]
                if bv == zero:
                    continue
                av = B[k][k]
                q, r = divmod_(bv, av)
                if r:
                    x, y, s, t = _certificate(ring, av, bv)
                else:
                    u = canonical_unit(av)
                    if u == one:  # plain: only row i changes
                        for mat in (B, U):
                            mat[i] = [e if p == zero else sub(e, mul(q, p))
                                      for p, e in zip(mat[k], mat[i])]
                        continue
                    s = unit_inv(u)
                    x, y, t = u, zero, mul(q, s)
                # payloads are falsy exactly at zero; a zero pair stays zero
                for mat in (B, U):
                    rk, ri = mat[k], mat[i]
                    mat[k] = [add(mul(x, p), mul(y, e)) if p or e else zero
                              for p, e in zip(rk, ri)]
                    mat[i] = [sub(mul(s, e), mul(t, p)) if p or e else zero
                              for p, e in zip(rk, ri)]
            # columns: right-multiply columns (k, j) by the block of the
            # pivot row entries a = B[k][k], b = B[k][j]; V takes the
            # inverse block from the left
            for j in range(k + 1, n):
                bv = B[k][j]
                if bv == zero:
                    continue
                av = B[k][k]
                q, r = divmod_(bv, av)
                if r:
                    x, y, s, t = _certificate(ring, av, bv)
                else:
                    u = canonical_unit(av)
                    if u == one:  # plain: only column j and row k of V
                        for mat in (B, Vi):
                            for row in mat:
                                p = row[k]
                                if p != zero:
                                    row[j] = sub(row[j], mul(q, p))
                        V[k] = [p if e == zero else add(p, mul(q, e))
                                for p, e in zip(V[k], V[j])]
                        continue
                    s = unit_inv(u)
                    x, y, t = u, zero, mul(q, s)
                refilled = True
                for mat in (B, Vi):
                    for row in mat:
                        p, e = row[k], row[j]
                        if p or e:
                            row[k] = add(mul(x, p), mul(y, e))
                            row[j] = sub(mul(s, e), mul(t, p))
                vk, vj = V[k], V[j]
                V[k] = [add(mul(s, p), mul(t, e)) if p or e else zero
                        for p, e in zip(vk, vj)]
                V[j] = [sub(mul(x, e), mul(y, p)) if p or e else zero
                        for p, e in zip(vk, vj)]
            if refilled and any(B[i][k] != zero for i in range(k + 1, m)):
                continue  # column refilled by the column pass
            d = B[k][k]
            if is_unit(d):
                break  # a unit divides every entry
            for i in range(k + 1, m):
                if any(e and divmod_(e, d)[1] for e in B[i][k + 1:]):
                    break
            else:
                break
            # row k += row i, which d does not divide; the same on U
            B[k] = [add(p, e) for p, e in zip(B[k], B[i])]
            U[k] = [add(p, e) for p, e in zip(U[k], U[i])]
        u = canonical_unit(B[k][k])
        if u != one:
            B[k] = [mul(u, e) for e in B[k]]
            U[k] = [mul(u, e) for e in U[k]]
        k += 1

    flat = chain.from_iterable
    return SmithDecomposition(
        U=RingMatrix(ring, m, m, flat(U)),
        V=RingMatrix(ring, n, n, flat(V)),
        invariant_factors=tuple([RingElement(ring, B[i][i])
                                 for i in range(k)]),
        v_inv=RingMatrix(ring, n, n, flat(Vi)),
    )


def _smith_2x2(a: RingMatrix) -> SmithDecomposition:
    """``_smith_loop`` on a 2x2 input, on scalar locals: B = [[b00, b01],
    [b10, b11]], U, V and v_inv (w).  The same pivot, blocks, certificate
    requests, merge and normalisation run in the same order, so U, V, v_inv
    and the chain are the loop's.  Entries the loop computes as zero by
    construction are set, not computed: the cleared b10 and b01, and the
    products with b10 in the column pass, which runs just after the row
    pass has cleared it."""
    ring = a.ring
    add, sub, mul, divmod_ = ring._add, ring._sub, ring._mul, ring._divmod
    canonical_unit = ring._canonical_unit
    zero, one = ring._from_int(0), ring._from_int(1)
    u00 = u11 = v00 = v11 = w00 = w11 = one
    u01 = u10 = v01 = v10 = w01 = w10 = zero
    # pivot: smallest canonical nonzero entry, row-major
    sort_key, best, at = ring._sort_key, None, -1
    for i, e in enumerate(a.payloads):
        if e:
            key = sort_key(e)
            if best is None or key < best:
                best, at = key, i
    b00, b01, b10, b11 = a.payloads
    if at < 0:
        chain = ()
    else:
        if at >= 2:  # swap the rows of B and U
            b00, b01, b10, b11 = b10, b11, b00, b01
            u00, u01, u10, u11 = zero, one, one, zero
        if at & 1:  # swap the columns of B and v_inv, the rows of V
            b00, b01, b10, b11 = b01, b00, b11, b10
            v00, v01, v10, v11 = w00, w01, w10, w11 = zero, one, one, zero
        while True:
            refilled = False
            if b10:  # rows (0, 1)
                q, r = divmod_(b10, b00)
                if not r and (u := canonical_unit(b00)) == one:
                    b10 = zero  # plain: only row 1 changes
                    if b01:
                        b11 = sub(b11, mul(q, b01))
                    if u00:
                        u10 = sub(u10, mul(q, u00))
                    if u01:
                        u11 = sub(u11, mul(q, u01))
                else:
                    if r:
                        x, y, s, t = _certificate(ring, b00, b10)
                    else:
                        s = ring._unit_inv(u)
                        x, y, t = u, zero, mul(q, s)
                    b00, b10 = add(mul(x, b00), mul(y, b10)), zero
                    if b01 or b11:
                        b01, b11 = (add(mul(x, b01), mul(y, b11)),
                                    sub(mul(s, b11), mul(t, b01)))
                    if u00 or u10:
                        u00, u10 = (add(mul(x, u00), mul(y, u10)),
                                    sub(mul(s, u10), mul(t, u00)))
                    if u01 or u11:
                        u01, u11 = (add(mul(x, u01), mul(y, u11)),
                                    sub(mul(s, u11), mul(t, u01)))
            if b01:  # columns (0, 1); b10 is zero here
                q, r = divmod_(b01, b00)
                if not r and (u := canonical_unit(b00)) == one:
                    b01 = zero  # plain: column 1 and row 0 of V
                    if w00:
                        w01 = sub(w01, mul(q, w00))
                    if w10:
                        w11 = sub(w11, mul(q, w10))
                    if v10:
                        v00 = add(v00, mul(q, v10))
                    if v11:
                        v01 = add(v01, mul(q, v11))
                else:
                    if r:
                        x, y, s, t = _certificate(ring, b00, b01)
                    else:
                        s = ring._unit_inv(u)
                        x, y, t = u, zero, mul(q, s)
                    refilled = True
                    b00, b01 = add(mul(x, b00), mul(y, b01)), zero
                    if b11:
                        b10, b11 = mul(y, b11), mul(s, b11)
                    if w00 or w01:
                        w00, w01 = (add(mul(x, w00), mul(y, w01)),
                                    sub(mul(s, w01), mul(t, w00)))
                    if w10 or w11:
                        w10, w11 = (add(mul(x, w10), mul(y, w11)),
                                    sub(mul(s, w11), mul(t, w10)))
                    if v00 or v10:
                        v00, v10 = (add(mul(s, v00), mul(t, v10)),
                                    sub(mul(x, v10), mul(y, v00)))
                    if v01 or v11:
                        v01, v11 = (add(mul(s, v01), mul(t, v11)),
                                    sub(mul(x, v11), mul(y, v01)))
            if refilled and b10:
                continue
            if (ring._is_unit(b00) or not b11
                    or not divmod_(b11, b00)[1]):
                break
            # row 0 += row 1, which b00 does not divide: b10 = b01 = 0
            b01 = b11
            u00, u01 = add(u00, u10), add(u01, u11)
        if (u := canonical_unit(b00)) != one:
            b00, u00, u01 = mul(u, b00), mul(u, u00), mul(u, u01)
        if b11 and (u := canonical_unit(b11)) != one:
            b11, u10, u11 = mul(u, b11), mul(u, u10), mul(u, u11)
        chain = ((RingElement(ring, b00), RingElement(ring, b11)) if b11
                 else (RingElement(ring, b00),))
    return SmithDecomposition(
        U=RingMatrix(ring, 2, 2, (u00, u01, u10, u11)),
        V=RingMatrix(ring, 2, 2, (v00, v01, v10, v11)),
        invariant_factors=chain,
        v_inv=RingMatrix(ring, 2, 2, (w00, w01, w10, w11)),
    )


class DeterminantalInvariants(NamedTuple):
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


class ModuleInvariants(NamedTuple):
    """A finitely generated module in invariant-factor form.

    ``cyclic_factors`` lists canonical non-unit factors in a divisibility
    chain, followed by zeros, one per free summand.  The empty tuple is the
    zero module.
    """

    ring: Ring
    cyclic_factors: tuple[RingElement, ...]

    @classmethod
    def build(cls, ring: Ring, factors) -> "ModuleInvariants":
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
        return cls(ring, tuple(tors) + (ring.zero,) * free)

    @property
    def is_zero(self) -> bool:
        return not self.cyclic_factors

    @property
    def free_rank(self) -> int:
        return sum(1 for f in self.cyclic_factors if f.is_zero)

    @property
    def torsion_factors(self) -> tuple[RingElement, ...]:
        return tuple(f for f in self.cyclic_factors if not f.is_zero)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        free = self.free_rank
        for f in self.torsion_factors:
            parts.append(f"R/<{f.text()}>")
        if free == 1:
            parts.append("R")
        elif free > 1:
            parts.append(f"R^{free}")
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


class Subquotient(NamedTuple):
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
    return Subquotient(dec, rel, image_cokernel_invariants(rel))
