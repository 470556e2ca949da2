"""Element-level reference implementations of the dense kernels.

``smith``, ``matmul``, ``det`` and ``kron`` here compute with ``RingElement``
operators entry by entry.  They are the slow path that the payload kernels
in ``smithfact.smith`` and ``smithfact.matrices`` replaced, kept as the test
oracle: both must give identical results, and ``smith`` must request the
same Bezout certificates.  Like the kernel, ``smith`` here builds the
certificate (u*a, u, 0), u the canonical unit of a, itself when the pivot a
divides b, and requests one from ``gcd_bezout`` only for any other pair.
``gcd_bezout`` is looked up on this module at call time so a test can
count its calls.

``witness_holds`` is the full 2rho x 2rho block identity that the rho x rho
``StrongDecomposition.witness_holds`` replaced, kept as its oracle.

``elementary_morphism``, ``cone_blocks``, ``cone_split`` and ``is_iso`` are
the cone path as it was computed with ``RingElement`` arithmetic before
``smithfact.factorizations`` and ``smithfact.classify`` moved it to
payloads: the generator scaled by r, the cone's two blocks assembled entry
by entry, the split (xi, zeta) from gcds and exact divisions, and the zero
test gcd(d, W/d) on the split.  ``is_zero_sum`` is that zero test on any
list of divisors of W, the oracle of ``is_zero_object`` on the strong
factors.

``gf_mul`` is the schoolbook product that ``GFPolynomialRing._mul`` used
for every size before it packed larger operands into one integer,
``gf_divmod`` the long division it used for every divisor before it scaled
by the inverse of a unit divisor, ``gf_sub`` the two-pass difference it
inherited, and ``gf_add`` the sum that always copied and stripped; they are
the oracles of those payload primitives.  ``matmul`` is also the oracle of
each ring's ``_matmul``.

``euclid_gcd`` is the Euclid loop on payloads that every ring inherited
before Z took ``math.gcd`` and GF(p)[x] a remainder-only loop: each step
keeps the remainder of ``_divmod``, and the last non-zero remainder is made
canonical.  It is the oracle of each ring's ``_gcd``.
"""

from __future__ import annotations

from smithfact.matrices import RingMatrix
from smithfact.rings import (BezoutCertificate, GFPolynomialRing, divides,
                             exact_div, gcd, gcd_bezout, normalize)
from smithfact.smith import SmithDecomposition

__all__ = ["smith", "matmul", "det", "kron", "witness_holds",
           "elementary_morphism", "cone_blocks", "cone_split", "is_iso",
           "is_zero_sum",
           "gf_mul", "gf_divmod", "gf_sub", "gf_add", "euclid_gcd"]


def smith(a: RingMatrix) -> SmithDecomposition:
    """Same pivot rule, Bezout blocks, merges and unit normalisation as
    ``smithfact.smith``, on rows of ``RingElement``."""
    ring = a.ring
    m, n = a.rows, a.cols
    B = [list(a.row(i)) for i in range(m)]
    eye = RingMatrix.identity
    U = [list(eye(ring, m).row(i)) for i in range(m)]
    V = [list(eye(ring, n).row(i)) for i in range(n)]
    Vi = [list(eye(ring, n).row(i)) for i in range(n)]

    def row_swap(i, j):
        B[i], B[j] = B[j], B[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            B[r][i], B[r][j] = B[r][j], B[r][i]
        for r in range(n):
            Vi[r][i], Vi[r][j] = Vi[r][j], Vi[r][i]
        V[i], V[j] = V[j], V[i]

    def certificate(av, bv):
        if divides(av, bv):
            c = normalize(av)
            return BezoutCertificate(c.canonical, c.unit, ring.zero)
        return gcd_bezout(av, bv)

    def row_combine(i, j):
        av, bv = B[i][k], B[j][k]
        cert = certificate(av, bv)
        s = exact_div(av, cert.g)
        t = exact_div(bv, cert.g)
        x, y = cert.x, cert.y
        for mat in (B, U):
            ri, rj = mat[i], mat[j]
            mat[i] = [x * p + y * q for p, q in zip(ri, rj)]
            mat[j] = [s * q - t * p for p, q in zip(ri, rj)]

    def col_combine(i, j):
        av, bv = B[k][i], B[k][j]
        cert = certificate(av, bv)
        s = exact_div(av, cert.g)
        t = exact_div(bv, cert.g)
        x, y = cert.x, cert.y
        for mat in (B, Vi):
            for r in range(len(mat)):
                p, q = mat[r][i], mat[r][j]
                mat[r][i] = x * p + y * q
                mat[r][j] = s * q - t * p
        ri, rj = V[i], V[j]
        V[i] = [s * p + t * q for p, q in zip(ri, rj)]
        V[j] = [x * q - y * p for p, q in zip(ri, rj)]

    def row_add_into_pivot(i):
        B[k] = [p + q for p, q in zip(B[k], B[i])]
        U[k] = [p + q for p, q in zip(U[k], U[i])]

    k = 0
    while k < min(m, n):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                e = B[i][j]
                if not e.is_zero:
                    key = e.sort_key()
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
                if not B[i][k].is_zero:
                    row_combine(k, i)
            for j in range(k + 1, n):
                if not B[k][j].is_zero:
                    col_combine(k, j)
            if any(not B[i][k].is_zero for i in range(k + 1, m)):
                continue
            d = B[k][k]
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if not divides(d, B[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add_into_pivot(offender)
        u = normalize(B[k][k]).unit
        if not u.is_unit or u != ring.one:
            B[k] = [u * e for e in B[k]]
            U[k] = [u * e for e in U[k]]
        k += 1

    return SmithDecomposition(
        U=RingMatrix.from_rows(ring, U),
        V=RingMatrix.from_rows(ring, V),
        invariant_factors=tuple(B[i][i] for i in range(k)),
        v_inv=RingMatrix.from_rows(ring, Vi),
    )


def matmul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    m, k, n = a.rows, a.cols, b.cols
    out = []
    for i in range(m):
        arow = a.entries[i * k:(i + 1) * k]
        for j in range(n):
            acc = a.ring.zero
            for t in range(k):
                acc = acc + arow[t] * b.entries[t * n + j]
            out.append(acc)
    return RingMatrix(a.ring, m, n, [e.payload for e in out])


def det(a: RingMatrix):
    """Fraction-free (Bareiss) elimination on RingElement rows."""
    n = a.rows
    if n == 0:
        return a.ring.one
    m = [list(a.row(i)) for i in range(n)]
    sign = 1
    prev = a.ring.one
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot_row = next(
                (i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if pivot_row is None:
                return a.ring.zero
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(
                    m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def kron(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    out = []
    for i in range(a.rows):
        for r in range(b.rows):
            for j in range(a.cols):
                aij = a.entry(i, j)
                for s in range(b.cols):
                    out.append(aij * b.entry(r, s))
    return RingMatrix(a.ring, a.rows * b.rows, a.cols * b.cols,
                      [e.payload for e in out])


def witness_holds(sd, a) -> bool:
    """diag(E, O) * differential(a) = differential(normal form) * diag(E, O)
    with E, O = sd.even_transform, sd.odd_transform of unit determinant."""
    E, O = sd.even_transform, sd.odd_transform
    z = RingMatrix.zeros(E.ring, E.rows, E.rows)
    t = RingMatrix.block([[E, z], [z, O]])
    if t @ a.differential() != sd.normal_form().differential() @ t:
        return False
    return E.det().is_unit and O.det().is_unit


def elementary_morphism(source, target, r):
    """Components (f00, f11) = (r * v2/d, r * v1/d), d = gcd(v1, v2)."""
    v1, v2 = source.v.entry(0, 0), target.v.entry(0, 0)
    d = gcd(v1, v2)
    return r * exact_div(v2, d), r * exact_div(v1, d)


def cone_blocks(f) -> tuple[RingMatrix, RingMatrix]:
    """u = [[-v1, 0], [f11, u2]] and v = [[-u1, 0], [f00, v2]], row by row."""
    a1, a2 = f.source, f.target
    ring = f.ring
    pad = [ring.zero] * a2.rho

    def assemble(top, low, right):
        rows = [[-x for x in top.row(i)] + pad for i in range(a1.rho)]
        rows += [list(low.row(i)) + list(right.row(i))
                 for i in range(a2.rho)]
        return RingMatrix(ring, a1.rho + a2.rho, a1.rho + a2.rho,
                          [x.payload for row in rows for x in row])

    return assemble(a1.v, f.f11, a2.u), assemble(a1.u, f.f00, a2.v)


def cone_split(f):
    """(xi, zeta) with xi = gcd(v1, v2, u1, u2, r) * v1 / gcd(v1, v2), r
    the scalar of f00 = r * v2/gcd(v1, v2), and zeta = v1 * u2 / xi."""
    v1, v2 = f.source.v.entry(0, 0), f.target.v.entry(0, 0)
    u1, u2 = f.source.u.entry(0, 0), f.target.u.entry(0, 0)
    d = gcd(v1, v2)
    r = exact_div(f.f00.entry(0, 0) * d, v2)
    s = gcd(gcd(gcd(d, u1), u2), r)
    xi = normalize(exact_div(s * v1, d)).canonical
    zeta = normalize(exact_div(v1 * u2, xi)).canonical
    return xi, zeta


def is_zero_sum(W, factors) -> bool:
    """Whether the sum of the e_d over ``factors`` is a zero object:
    gcd(d, W/d) is a unit for every d."""
    return all(gcd(d, exact_div(W, d)).is_unit for d in factors)


def is_iso(f) -> bool:
    """The cone split is a zero object."""
    return is_zero_sum(f.source.W, cone_split(f))


_strip = GFPolynomialRing._strip


def gf_mul(p: int, a: tuple, b: tuple) -> tuple:
    """Product of two GF(p)[x] payloads, reducing mod p on every step."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _strip(out)


def gf_divmod(p: int, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of GF(p)[x] payloads by long division."""
    if len(a) < len(b):
        return (), a
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for shift in range(len(a) - len(b), -1, -1):
        c = (rem[shift + len(b) - 1] * inv_lead) % p
        if c:
            quo[shift] = c
            for k, bc in enumerate(b):
                rem[shift + k] = (rem[shift + k] - c * bc) % p
    return _strip(quo), _strip(rem)


def gf_sub(p: int, a: tuple, b: tuple) -> tuple:
    """a + (-b) on GF(p)[x] payloads: negate, then add."""
    neg = [(-c) % p for c in b]
    if len(a) < len(neg):
        a, neg = neg, a
    out = list(a)
    for i, c in enumerate(neg):
        out[i] = (out[i] + c) % p
    return _strip(out)


def gf_add(p: int, a: tuple, b: tuple) -> tuple:
    """Coefficientwise sum of GF(p)[x] payloads, zero-padded, then stripped."""
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _strip([(x + y) % p for x, y in zip(a, b)])


def euclid_gcd(ring, a, b):
    """The canonical gcd of payloads a and b by Euclid's loop on
    ``ring._divmod``; gcd(0, 0) is zero."""
    while b:
        a, b = b, ring._divmod(a, b)[1]
    return ring._mul(ring._canonical_unit(a), a)
