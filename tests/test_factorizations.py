"""Matrix factorizations, morphisms, homotopies, cones."""

import random

import pytest

from smithfact import (
    MatrixFactorization,
    MfMorphism,
    PreconditionError,
    RingMatrix,
    ValidationError,
    compose,
    cone,
    cone_triangle,
    direct_sum,
    elementary,
    elementary_morphism,
    elementary_sum,
    exact_div,
    gcd,
    identity_morphism,
    is_cocycle,
    is_null_homotopic,
    null_homotopy_witness,
    random_nonzero_element,
    random_unimodular,
    strong_iso,
    suspend_morphism,
    suspension,
    zero_morphism,
)
from conftest import GF3, Z, z
from element_reference import matmul


def zmat(rows):
    return RingMatrix.from_rows(Z, rows)


def e(v, W):
    return elementary(z(v), z(W))


# ---------------------------------------------------------------------------
# construction


def test_constructor_accepts_factorization():
    a = MatrixFactorization(z(12), zmat([[6]]), zmat([[2]]))
    assert a.rho == 1
    assert a.W == z(12)


def test_constructor_rejects_wrong_product():
    with pytest.raises(ValidationError):
        MatrixFactorization(z(5), zmat([[2]]), zmat([[2]]))


def test_constructor_rho_two():
    u = zmat([[0, 3], [4, 0]])
    v = zmat([[0, 3], [4, 0]])
    a = MatrixFactorization(z(12), u, v)
    assert a.rho == 2
    d = a.differential()
    assert d.shape == (4, 4)
    assert d @ d == RingMatrix.identity(Z, 4).scale(z(12))


def test_constructor_rejects_zero_W():
    with pytest.raises(ValidationError):
        MatrixFactorization(Z.zero, zmat([[0]]), zmat([[0]]))


def test_rank_zero_object():
    a = MatrixFactorization(z(12), RingMatrix.zeros(Z, 0, 0),
                            RingMatrix.zeros(Z, 0, 0))
    assert a.rho == 0
    assert suspension(a).rho == 0


def test_elementary():
    a = e(2, 12)
    assert a.is_elementary
    assert a.v_scalar() == z(2) and a.u_scalar() == z(6)
    assert e(1, 12).u_scalar() == z(12)
    assert e(12, 12).u_scalar() == z(1)


def test_elementary_requires_divisor():
    with pytest.raises(PreconditionError):
        e(5, 12)


# ---------------------------------------------------------------------------
# suspension


def test_suspension_flips_and_negates():
    s = suspension(e(2, 12))
    assert s.v_scalar() == z(-6) and s.u_scalar() == z(-2)


def test_suspension_involution():
    a = e(2, 12)
    assert suspension(suspension(a)) == a


# ---------------------------------------------------------------------------
# sums


def test_direct_sum_blocks():
    s = direct_sum(e(2, 12), e(3, 12))
    assert s.rho == 2
    assert s.v == zmat([[2, 0], [0, 3]])
    assert s.u == zmat([[6, 0], [0, 4]])


def test_direct_sum_requires_same_W():
    with pytest.raises(ValidationError):
        direct_sum(e(2, 12), e(2, 4))


# ---------------------------------------------------------------------------
# morphisms


def test_elementary_morphism_generator():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    assert is_cocycle(f)
    assert f.f00 == zmat([[3]]) and f.f11 == zmat([[1]])


def test_elementary_morphism_zero_scalar():
    f = elementary_morphism(e(2, 12), e(6, 12), Z.zero)
    assert f.f00.is_zero and f.f11.is_zero


def test_elementary_morphism_identity():
    a = e(4, 12)
    f = elementary_morphism(a, a, z(1))
    assert f == identity_morphism(a)


def test_morphism_cocycle_validation():
    a, b = e(2, 12), e(3, 12)
    with pytest.raises(ValidationError):
        MfMorphism(a, b, zmat([[1]]), zmat([[1]]))


def test_compose():
    a, b, c = e(2, 12), e(6, 12), e(2, 12)
    f = elementary_morphism(a, b, z(1))
    g = elementary_morphism(b, c, z(1))
    gf = compose(g, f)
    assert is_cocycle(gf)
    # generator composites: (1*3, 3*1) scaled by gcd bookkeeping
    assert gf.f00 == g.f00 @ f.f00


def test_suspend_morphism():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    sf = suspend_morphism(f)
    assert is_cocycle(sf)
    assert sf.source == suspension(f.source)
    assert sf.f00 == f.f11 and sf.f11 == f.f00


# ---------------------------------------------------------------------------
# null homotopies


def test_null_homotopy_multiple_of_u():
    # f = 2 * id on e_2 over W = 4: f00 = v*s10 + s01*u with s01 + s10 = 1
    a = elementary(z(2), z(4))
    f = elementary_morphism(a, a, z(2))
    w = null_homotopy_witness(f)
    assert w is not None
    s01, s10 = w
    assert a.v @ s10 + s01 @ a.u == f.f00
    assert a.u @ s01 + s10 @ a.v == f.f11


def test_zero_morphism_null_homotopic():
    f = zero_morphism(e(2, 12), e(3, 12))
    w = null_homotopy_witness(f)
    assert w is not None
    s01, s10 = w
    assert s01.is_zero and s10.is_zero


def test_identity_is_essential_on_nonzero_object():
    a = elementary(z(2), z(4))
    assert not is_null_homotopic(identity_morphism(a))


def test_identity_null_homotopic_on_zero_object():
    # gcd(2, 3) = 1 makes e_2 over 6 a zero object of the homotopy category
    a = elementary(z(2), z(6))
    assert is_null_homotopic(identity_morphism(a))


# ---------------------------------------------------------------------------
# cones


def test_cone_blocks():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    c = cone(f)
    assert c.rho == 2
    assert c.u == zmat([[-2, 0], [1, 2]])
    assert c.v == zmat([[-6, 0], [3, 6]])


def test_cone_of_zero_is_suspension_plus_target():
    p = 3
    a = elementary(z(p), z(p * p))
    c = cone(zero_morphism(a, a))
    assert strong_iso(c, direct_sum(suspension(a), a))


def test_cone_triangle_structure():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    t = cone_triangle(f)
    assert t.cone == cone(f)
    assert is_cocycle(t.phi) and is_cocycle(t.psi)
    # psi . phi = 0 on the nose
    assert compose(t.psi, t.phi).f00.is_zero
    # phi . f is killed by the cone inclusion homotopy
    assert is_null_homotopic(compose(t.phi, f))
    # Sigma f . psi is null-homotopic as well
    sf = suspend_morphism(f)
    assert is_null_homotopic(compose(sf, t.psi))


# ---------------------------------------------------------------------------
# constructor checks against element-level products
#
# The constructors compare payload lists of the products; the oracle below
# is the element-level check they replaced: u @ v == W*I == v @ u and the
# commutation products, computed with RingElement arithmetic.  Inputs are
# valid objects and morphisms of rank 0..3, conjugated by unimodular
# transforms, with at most one entry perturbed.

NEAR_MISS_CASES = [
    (z(12), [z(d) for d in (1, 2, 3, 4, 6, 12)]),
    (z(360), [z(d) for d in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 30, 360)]),
    (GF3.parse("x^3 + x^2"), [GF3.parse(t) for t in  # W = x^2 (x + 1)
                              ("1", "x", "x^2", "x + 1", "x^2 + x",
                               "x^3 + x^2")]),
]


def _oracle_factorization(W, u, v):
    wi = RingMatrix.identity(W.ring, u.rows).scale(W)
    return matmul(u, v) == wi and matmul(v, u) == wi


def _oracle_commutes(a, b, f00, f11):
    return (matmul(b.v, f11) == matmul(f00, a.v)
            and matmul(b.u, f00) == matmul(f11, a.u))


def _perturbed(m, rng):
    if not m.entries:
        return m
    i = rng.randrange(len(m.entries))
    bump = random_nonzero_element(m.ring, rng, int_bound=3, max_degree=1)
    entries = list(m.entries)
    entries[i] = entries[i] + bump
    return RingMatrix(m.ring, m.rows, m.cols, [e.payload for e in entries])


def _conjugated(a, rng):
    """(a', A, A^-1, B, B^-1) with v' = A v B^-1 and u' = B u A^-1."""
    A, A_inv = random_unimodular(a.ring, rng, a.rho, steps=6)
    B, B_inv = random_unimodular(a.ring, rng, a.rho, steps=6)
    c = MatrixFactorization(a.W, B @ a.u @ A_inv, A @ a.v @ B_inv)
    return c, A, A_inv, B, B_inv


def _diagonal_morphism(a_divs, b_divs, W, rng):
    """A morphism between elementary sums: each component block is a
    random multiple of the generating morphism e_v -> e_w."""
    ring = W.ring
    f00, f11 = [], []
    for w in b_divs:
        for v in a_divs:
            r = ring.from_int(rng.randrange(-2, 3))
            d = gcd(v, w)
            f00.append(r * exact_div(w, d))
            f11.append(r * exact_div(v, d))
    shape = (len(b_divs), len(a_divs))
    return (RingMatrix(ring, *shape, [e.payload for e in f00]),
            RingMatrix(ring, *shape, [e.payload for e in f11]))


def _accepts(build) -> bool:
    try:
        build()
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("case", range(len(NEAR_MISS_CASES)))
def test_factorization_check_matches_element_products(case):
    W, divisors = NEAR_MISS_CASES[case]
    rng = random.Random(100 + case)
    outcomes = set()
    for _ in range(60):
        rho = rng.randrange(4)
        a, *_ = _conjugated(
            elementary_sum(W, [rng.choice(divisors) for _ in range(rho)]), rng)
        u, v = a.u, a.v
        which = rng.randrange(3)  # 0: none, 1: u, 2: v
        if which == 1:
            u = _perturbed(u, rng)
        elif which == 2:
            v = _perturbed(v, rng)
        got = _accepts(lambda: MatrixFactorization(W, u, v))
        assert got == _oracle_factorization(W, u, v)
        outcomes.add((rho, got))
    assert {got for _, got in outcomes} == {True, False}
    assert (0, True) in outcomes


@pytest.mark.parametrize("case", range(len(NEAR_MISS_CASES)))
def test_morphism_check_matches_element_products(case):
    W, divisors = NEAR_MISS_CASES[case]
    rng = random.Random(200 + case)
    outcomes = set()
    for _ in range(60):
        a_divs = [rng.choice(divisors) for _ in range(rng.randrange(4))]
        b_divs = [rng.choice(divisors) for _ in range(rng.randrange(4))]
        a, _, A1_inv, _, B1_inv = _conjugated(elementary_sum(W, a_divs), rng)
        b, A2, _, B2, _ = _conjugated(elementary_sum(W, b_divs), rng)
        g00, g11 = _diagonal_morphism(a_divs, b_divs, W, rng)
        f00, f11 = A2 @ g00 @ A1_inv, B2 @ g11 @ B1_inv
        which = rng.randrange(3)  # 0: none, 1: f00, 2: f11
        if which == 1:
            f00 = _perturbed(f00, rng)
        elif which == 2:
            f11 = _perturbed(f11, rng)
        expected = _oracle_commutes(a, b, f00, f11)
        got = _accepts(lambda: MfMorphism(a, b, f00, f11))
        assert got == expected
        # is_cocycle re-checks stored components, here swapped in after
        # construction from a valid morphism
        f = zero_morphism(a, b)
        f.f00, f.f11 = f00, f11
        assert is_cocycle(f) == expected
        outcomes.add((len(a_divs) * len(b_divs), got))
    assert {got for _, got in outcomes} == {True, False}
    assert (0, True) in outcomes
