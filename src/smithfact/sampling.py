"""Seeded random generation of elements, matrices and factorizations.

Everything takes an explicit ``random.Random`` so test runs and the demo
command are reproducible from a seed.  Unimodular matrices are built as
products of elementary operations with the inverse tracked alongside, so
conjugated factorizations come with exact witnesses.
"""

from __future__ import annotations

from random import Random

from .classify import CriticalData
from .errors import ValidationError
from .factorizations import MatrixFactorization
from .matrices import RingMatrix
from .rings import GFPolynomialRing, IntegerRing, Ring, RingElement

__all__ = [
    "random_element",
    "random_matrix",
    "random_unimodular",
    "conjugate_factorization",
    "random_label_multiset",
]


def random_element(ring: Ring, rng: Random, *, int_bound: int = 50,
                   max_degree: int = 4) -> RingElement:
    """Uniform small element: integers in [-int_bound, int_bound], or a
    polynomial of degree <= max_degree with uniform coefficients."""
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.randint(-int_bound, int_bound))
    if isinstance(ring, GFPolynomialRing):
        deg = rng.randint(-1, max_degree)  # -1 encodes the zero polynomial
        if deg < 0:
            return ring.zero
        coeffs = [rng.randrange(ring.p) for _ in range(deg)]
        coeffs.append(rng.randrange(1, ring.p))
        return ring.element(tuple(coeffs))
    raise ValidationError(f"no sampler for {ring.name}")


def random_matrix(ring: Ring, rng: Random, rows: int, cols: int,
                  **kw) -> RingMatrix:
    return RingMatrix(ring, rows, cols,
                      [random_element(ring, rng, **kw).payload
                       for _ in range(rows * cols)])


def _random_unit(ring: Ring, rng: Random) -> RingElement:
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.choice((1, -1)))
    if isinstance(ring, GFPolynomialRing):
        return ring.from_int(rng.randrange(1, ring.p))
    raise ValidationError(f"no unit sampler for {ring.name}")


def random_unimodular(ring: Ring, rng: Random, n: int, *,
                      steps: int = 12) -> tuple[RingMatrix, RingMatrix]:
    """(M, M_inverse), both unit determinant, as a short product of
    elementary row operations applied to the identity.

    Multipliers are kept small (integers in [-3, 3], polynomials of degree
    at most 1); entry growth is already exponential in the step count.
    """
    if n == 0:
        e = RingMatrix.identity(ring, 0)
        return e, e
    m = [[ring.one if i == j else ring.zero for j in range(n)]
         for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        if kind == 0 and n > 1:
            j = rng.randrange(n)
            if i == j:
                continue
            c = random_element(ring, rng, int_bound=3, max_degree=1)
            # rows: row_j += c*row_i ; inverse columns: col_i -= c*col_j
            for k in range(n):
                m[j][k] = m[j][k] + c * m[i][k]
            for k in range(n):
                inv[k][i] = inv[k][i] - c * inv[k][j]
        elif kind == 1 and n > 1:
            j = rng.randrange(n)
            if i == j:
                continue
            m[i], m[j] = m[j], m[i]
            for k in range(n):
                inv[k][i], inv[k][j] = inv[k][j], inv[k][i]
        else:
            s = _random_unit(ring, rng)
            s_inv = ring.element(ring._unit_inv(s.payload))
            for k in range(n):
                m[i][k] = s * m[i][k]
            for k in range(n):
                inv[k][i] = s_inv * inv[k][i]
    return (RingMatrix.from_rows(ring, m), RingMatrix.from_rows(ring, inv))


def conjugate_factorization(a: MatrixFactorization,
                            rng: Random) -> MatrixFactorization:
    """A randomly disguised copy in the same strong isomorphism class:
    v -> A v B^{-1} and u -> B u A^{-1} for unimodular A, B."""
    ring = a.ring
    big_a, big_a_inv = random_unimodular(ring, rng, a.rho)
    big_b, big_b_inv = random_unimodular(ring, rng, a.rho)
    return MatrixFactorization(a.W,
                               big_b @ a.u @ big_a_inv,
                               big_a @ a.v @ big_b_inv)


def random_label_multiset(cd: CriticalData,
                          rng: Random) -> list[tuple[RingElement, int]]:
    """Random multiset of primary labels (p, i), 0..2 copies of each."""
    labels = []
    for p, n in cd.critical:
        for i in range(1, n):
            labels.extend([(p, i)] * rng.randint(0, 2))
    rng.shuffle(labels)
    return labels
