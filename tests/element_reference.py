"""Element-level reference implementations of the dense kernels.

``smith``, ``matmul``, ``det`` and ``kron`` here compute with ``RingElement``
operators entry by entry.  They are the slow path that the payload kernels
in ``smithfact.smith`` and ``smithfact.matrices`` replaced, kept as the test
oracle: both must give identical results, and ``smith`` must request the
same Bezout certificates.  ``gcd_bezout`` is looked up on this module at
call time so a test can count its calls.
"""

from __future__ import annotations

from smithfact.matrices import RingMatrix
from smithfact.rings import divides, exact_div, gcd_bezout, normalize
from smithfact.smith import SmithDecomposition

__all__ = ["smith", "matmul", "det", "kron"]


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

    def row_combine(i, j):
        av, bv = B[i][k], B[j][k]
        cert = gcd_bezout(av, bv)
        s = exact_div(av, cert.g)
        t = exact_div(bv, cert.g)
        x, y = cert.x, cert.y
        for mat in (B, U):
            ri, rj = mat[i], mat[j]
            mat[i] = [x * p + y * q for p, q in zip(ri, rj)]
            mat[j] = [s * q - t * p for p, q in zip(ri, rj)]

    def col_combine(i, j):
        av, bv = B[k][i], B[k][j]
        cert = gcd_bezout(av, bv)
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

    rank = k
    factors = tuple(B[i][i] for i in range(rank))
    return SmithDecomposition(
        U=RingMatrix.from_rows(ring, U),
        V=RingMatrix.from_rows(ring, V),
        D=RingMatrix.diagonal(ring, factors, rows=m, cols=n),
        rank=rank,
        invariant_factors=factors,
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
