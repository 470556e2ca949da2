"""Classification: strong invariants, cones, hom modules, primary labels."""

import random
import sys

import element_reference as ref
import pytest

from smithfact import (
    MatrixFactorization,
    MfClass,
    MfMorphism,
    PreconditionError,
    RingMatrix,
    StrongDecomposition,
    ValidationError,
    cone,
    cone_split,
    conjugate_factorization,
    critical_decompose,
    critical_ideal_generator,
    direct_sum,
    elementary,
    elementary_morphism,
    elementary_sum,
    factorize,
    gcd,
    hmf_hom,
    identity_morphism,
    is_iso,
    is_zero_object,
    lcm,
    localize_class,
    primary_decompose,
    primary_test_objects,
    random_element,
    smith,
    strong_decompose,
    strong_iso,
    suspend_class,
    suspension,
    zero_morphism,
)
from smithfact.classify import _elementary_scalar, hom_subquotients
from smithfact.cli import _iso_answers
from smithfact.smith import _kernel_coordinates
from conftest import GF3, Z, z
from hom_reference import (induced_hom_iso, is_iso_by_induced_homs,
                           postcompose_matrix)


def e(v, W):
    return elementary(z(v), z(W))


# ---------------------------------------------------------------------------
# critical decomposition of W


def test_critical_decompose_360():
    cd = critical_decompose(z(360))
    assert cd.W0 == z(5)
    assert cd.unit == z(1)
    assert [(str(p), n) for p, n in cd.critical] == [("2", 3), ("3", 2)]
    assert cd.order_of(z(2)) == 3
    assert cd.order_of(z(5)) is None
    assert cd.is_critical


def test_critical_decompose_squarefree():
    cd = critical_decompose(z(30))
    assert cd.W0 == z(30)
    assert cd.critical == ()
    assert not cd.is_critical


def test_critical_decompose_prime_square():
    cd = critical_decompose(z(49))
    assert cd.W0 == z(1)
    assert [(str(p), n) for p, n in cd.critical] == [("7", 2)]


def test_critical_decompose_gf():
    x = GF3.parse("x")
    xp1 = GF3.parse("x + 1")
    W = x * x * xp1 * xp1 * xp1
    cd = critical_decompose(W)
    assert cd.W0 == GF3.one
    assert [(str(p), n) for p, n in cd.critical] == [("x", 2), ("x+1", 3)]


def test_critical_decompose_rejects_degenerate():
    with pytest.raises(PreconditionError):
        critical_decompose(Z.zero)
    with pytest.raises(PreconditionError):
        critical_decompose(z(-1))


def test_critical_ideal_generator():
    assert critical_ideal_generator(critical_decompose(z(360))) == z(6)
    assert critical_ideal_generator(critical_decompose(z(30))) == z(1)
    assert critical_ideal_generator(critical_decompose(z(49))) == z(7)


# ---------------------------------------------------------------------------
# strong classification


def test_strong_decompose_direct_sum():
    a = direct_sum(e(2, 36), e(3, 36))
    sd = strong_decompose(a)
    assert tuple(str(d) for d in sd.factors) == ("1", "6")
    assert sd.witness_holds(a)


def test_strong_decompose_witness_conjugates():
    rng = random.Random(5)
    a = conjugate_factorization(direct_sum(e(2, 8), e(4, 8)), rng)
    sd = strong_decompose(a)
    assert tuple(str(d) for d in sd.factors) == ("2", "4")
    assert sd.witness_holds(a)
    nf = sd.normal_form()
    assert nf.v == smith(a.v).D


def test_strong_decompose_zero_rank():
    a = elementary_sum(z(12), [])
    sd = strong_decompose(a)
    assert sd.factors == ()
    assert sd.witness_holds(a)


def test_strong_iso_examples():
    assert strong_iso(e(2, 12), e(2, 12))
    assert not strong_iso(e(2, 12), e(6, 12))
    assert not strong_iso(e(2, 12), direct_sum(e(2, 12), e(1, 12)))
    with pytest.raises(ValidationError):
        strong_iso(e(2, 12), e(2, 8))


def test_strong_iso_conjugation_invariant():
    rng = random.Random(17)
    base = elementary_sum(z(360), [z(4), z(6)])
    twin = conjugate_factorization(base, rng)
    assert strong_iso(base, twin)


def test_strong_decompose_pair_is_gcd_lcm():
    # e_v1 + e_v2 = e_gcd + e_lcm as objects
    for (v1, v2, W) in [(2, 6, 12), (2, 3, 36), (4, 6, 72), (8, 12, 72)]:
        sd = strong_decompose(elementary_sum(z(W), [z(v1), z(v2)]))
        assert sd.factors == (gcd(z(v1), z(v2)), lcm(z(v1), z(v2)))


def _divisor_grid(W):
    divs = [W.ring.one]
    for p, n in factorize(W).factors:
        divs = [d * p ** k for d in divs for k in range(n + 1)]
    return divs


WITNESS_GRID = [z(12), z(360), GF3.parse("x^3 + x^2")]


def _bump(m, k):
    """m with entry k raised by one."""
    pay = list(m.payloads)
    pay[k] = m.ring._add(pay[k], m.ring._from_int(1))
    return RingMatrix(m.ring, m.rows, m.cols, pay)


@pytest.mark.parametrize("W", WITNESS_GRID, ids=str)
def test_witness_near_misses_agree_with_block_identity(W):
    rng = random.Random(f"witness:{W}")
    divs = _divisor_grid(W)
    two_w = W * W.ring.from_int(2)
    for rho in range(4):
        for _ in range(3):
            a = conjugate_factorization(
                elementary_sum(W, [rng.choice(divs) for _ in range(rho)]),
                rng)
            sd = strong_decompose(a)
            assert sd.witness_holds(a) and ref.witness_holds(sd, a)
            # the same v over 2W: only the W check rejects it at rank 0,
            # where the block identity has no entries to disagree
            b = MatrixFactorization(two_w, a.u.scale(2), a.v)
            assert not sd.witness_holds(b)
            assert ref.witness_holds(sd, b) == (rho == 0)
            for name in ("even_transform", "odd_transform"):
                for k in range(rho * rho):
                    bad = sd._replace(**{name: _bump(getattr(sd, name), k)})
                    assert bad.witness_holds(a) == ref.witness_holds(bad, a)
                    assert not bad.witness_holds(a)


def test_witness_misfits_are_false_not_errors():
    # each of these raised "cannot multiply" before the fit checks
    pair = direct_sum(e(2, 12), e(3, 12))
    sd_pair, sd_one = strong_decompose(pair), strong_decompose(e(2, 12))
    assert not sd_pair.witness_holds(e(2, 12))
    assert not sd_one.witness_holds(pair)
    big_e = sd_pair._replace(even_transform=RingMatrix.identity(Z, 3))
    assert not big_e.witness_holds(pair)
    big_o = sd_pair._replace(odd_transform=RingMatrix.identity(Z, 3))
    assert not big_o.witness_holds(pair)
    x = GF3.parse("x")
    gf_e = sd_one._replace(even_transform=RingMatrix.identity(GF3, 1))
    assert not gf_e.witness_holds(e(2, 12))
    assert not sd_one.witness_holds(elementary(x, x ** 2))


def test_normal_form_is_elementary_sum():
    rng = random.Random(11)
    for W in WITNESS_GRID:
        divs = _divisor_grid(W)
        for rho in range(4):
            a = conjugate_factorization(
                elementary_sum(W, [rng.choice(divs) for _ in range(rho)]),
                rng)
            sd = strong_decompose(a)
            assert sd.normal_form() == elementary_sum(W, sd.factors)
            assert sd.normal_form().v == smith(a.v).D


def test_is_zero_object():
    assert is_zero_object(e(1, 12))
    assert is_zero_object(e(5, 360))
    assert not is_zero_object(e(2, 12))
    assert not is_zero_object(direct_sum(e(1, 12), e(2, 12)))
    assert is_zero_object(direct_sum(e(1, 12), e(12, 12)))


def test_strong_is_zero_reads_factors():
    is_zero = StrongDecomposition.is_zero
    assert is_zero(z(12), ()) and is_zero(z(12), (z(1), z(12), z(4)))
    assert not is_zero(z(12), (z(1), z(2)))
    sd = strong_decompose(direct_sum(e(3, 36), e(4, 36)))
    assert sd.is_zero(sd.W, sd.factors) == is_zero_object(
        direct_sum(e(3, 36), e(4, 36)))


# ---------------------------------------------------------------------------
# cones of elementary morphisms


def test_cone_split_worked_example():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    xi, zeta = cone_split(f)
    assert (xi, zeta) == (z(1), z(4))
    assert smith(cone(f).u).invariant_factors == (z(1), z(4))


def test_cone_split_zero_morphism():
    p = 5
    a = elementary(z(p), z(p * p))
    f = zero_morphism(a, a)
    assert cone_split(f) == (z(p), z(p))


def test_cone_split_unit_times_identity():
    p = 5
    a = elementary(z(p), z(p * p))
    f = elementary_morphism(a, a, z(1))
    assert cone_split(f) == (z(1), z(p * p))


def test_cone_split_requires_elementary():
    s = direct_sum(e(2, 12), e(2, 12))
    with pytest.raises(PreconditionError):
        cone_split(zero_morphism(s, s))


def test_cone_split_divisibility_and_product():
    # xi | zeta and xi * zeta = v1 * u2 always
    from smithfact import divides

    for (v1, v2, r, W) in [(2, 6, 1, 12), (2, 2, 2, 4), (4, 12, 3, 24),
                           (6, 10, 5, 60)]:
        f = elementary_morphism(e(v1, W), e(v2, W), z(r))
        xi, zeta = cone_split(f)
        assert divides(xi, zeta)
        assert xi * zeta == f.source.v_scalar() * f.target.u_scalar()


@pytest.mark.parametrize("W", [z(12), GF3.parse("x^3 + x^2")], ids=str)
def test_elementary_scalar_recovers_both_components(W):
    ring = W.ring
    if ring is Z:
        residues = [z(c) for c in range(12)]
    else:
        x = ring.parse("x")
        residues = [ring.from_int(c0) + ring.from_int(c1) * x
                    + ring.from_int(c2) * x * x
                    for c0 in range(3) for c1 in range(3) for c2 in range(3)]
    scalars = [RingMatrix(ring, 1, 1, [r.payload]) for r in residues]
    for v1 in _divisor_grid(W):
        for v2 in _divisor_grid(W):
            src, dst = elementary(v1, W), elementary(v2, W)
            d = gcd(v1, v2)
            accepted = 0
            for f00 in scalars:
                for f11 in scalars:
                    try:
                        f = MfMorphism(src, dst, f00, f11)
                    except ValidationError:
                        continue
                    accepted += 1
                    r = _elementary_scalar(f.f00.entry(0, 0), v2, d)
                    assert f.f00.entry(0, 0) * d == r * v2
                    assert f.f11.entry(0, 0) * d == r * v1
            assert accepted >= 1


def test_is_iso_examples():
    a = e(2, 12)
    assert is_iso(identity_morphism(a))
    assert not is_iso(zero_morphism(a, a))
    # e_2 and e_6 differ strongly but the generator is a homotopy iso
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    assert is_iso(f)
    assert not strong_iso(f.source, f.target)


def test_is_iso_matches_zero_object_criterion():
    for (v1, v2, r, W) in [(2, 6, 1, 12), (2, 6, 0, 12), (2, 4, 1, 8),
                           (3, 3, 1, 9), (3, 3, 2, 9), (2, 2, 3, 4)]:
        f = elementary_morphism(e(v1, W), e(v2, W), z(r))
        assert is_iso(f) == is_zero_object(cone(f))


# ---------------------------------------------------------------------------
# hom modules


def test_hmf_hom_worked_examples():
    h = hmf_hom(e(2, 12), e(2, 12))
    assert tuple(str(d) for d in h.even.cyclic_factors) == ("2",)
    assert h.even.free_rank == 0
    h = hmf_hom(e(3, 12), e(4, 12))
    assert h.even.is_zero


def test_hmf_hom_odd_degree_suspends():
    # odd Hom(a, b) = even Hom(a, suspension(b))
    a, b = e(2, 12), e(6, 12)
    h = hmf_hom(a, b)
    hs = hmf_hom(a, suspension(b))
    assert h.odd.cyclic_factors == hs.even.cyclic_factors


def test_hmf_hom_closed_form_small():
    # Hom(e_{p^i}, e_{p^j}) over p^n: cyclic of order p^mu(i, j)
    from smithfact import mu

    p = 2
    for n in range(2, 6):
        W = z(p ** n)
        for i in range(1, n):
            for j in range(1, n):
                h = hmf_hom(e(p ** i, p ** n), e(p ** j, p ** n))
                m = mu(n, i, j)
                want = (z(p ** m),) if m else ()
                assert h.even.cyclic_factors == want


def test_hom_orthogonality_distinct_primes():
    h = hmf_hom(e(2, 36), e(3, 36))
    assert h.even.is_zero and h.odd.is_zero


# ---------------------------------------------------------------------------
# primary labels and homotopy classes


def test_primary_decompose_e12_over_360():
    c = primary_decompose(e(12, 360))
    assert [(str(p), i) for p, i in c.labels] == [("2", 2), ("3", 1)]
    assert str(c) == "e(2^2) + e(3^1)"


def test_primary_decompose_noncritical_vanishes():
    c = primary_decompose(e(5, 360))
    assert c.labels == () and c.is_zero
    assert str(c) == "0"


def test_primary_decompose_multiset():
    a = direct_sum(e(2, 12), e(6, 12))
    c = primary_decompose(a)
    assert [(str(p), i) for p, i in c.labels] == [("2", 1), ("2", 1)]


def test_primary_decompose_factors_nothing_given_cd(monkeypatch):
    x, xp1 = GF3.parse("x"), GF3.parse("x + 1")
    W3 = x**3 * xp1**2
    cases = [
        (direct_sum(e(12, 360), e(30, 360)), critical_decompose(z(360)),
         [("2", 1), ("2", 2), ("3", 1), ("3", 1)]),
        (direct_sum(elementary(x**2 * xp1, W3), elementary(xp1**2, W3)),
         critical_decompose(W3), [("x", 2), ("x+1", 1)]),
    ]
    calls = []
    # patch the module primary_decompose reads factorize from
    monkeypatch.setattr(sys.modules["smithfact.classify"], "factorize",
                        calls.append)
    for obj, cd, expected in cases:
        c = primary_decompose(obj, cd)
        assert [(p.text(), i) for p, i in c.labels] == expected
    assert calls == []


def test_primary_decompose_rejects_foreign_cd():
    cd = critical_decompose(z(8))
    with pytest.raises(ValidationError):
        primary_decompose(e(2, 12), cd)


def test_from_labels_validation():
    cd = critical_decompose(z(360))
    c = MfClass.from_labels(cd, [(z(3), 1), (z(2), 2), (z(2), 1)])
    assert [(str(p), i) for p, i in c.labels] == [("2", 1), ("2", 2), ("3", 1)]
    with pytest.raises(PreconditionError):
        MfClass.from_labels(cd, [(z(5), 1)])
    with pytest.raises(PreconditionError):
        MfClass.from_labels(cd, [(z(2), 3)])


def _hmf_iso(a, b):
    return _iso_answers(a, b, critical_decompose(a.W))[1]


def test_hmf_iso_examples():
    assert _hmf_iso(e(2, 12), e(6, 12))
    assert not _hmf_iso(e(2, 8), e(4, 8))
    a = e(2, 12)
    assert _hmf_iso(a, direct_sum(a, e(1, 12)))


def test_localize_class():
    c = primary_decompose(e(12, 360))
    at2 = localize_class(c, z(2))
    assert [(str(p), i) for p, i in at2.labels] == [("2", 2)]
    at3 = localize_class(c, z(3))
    assert [(str(p), i) for p, i in at3.labels] == [("3", 1)]
    with pytest.raises(PreconditionError):
        localize_class(c, z(5))


def test_suspend_class_matches_object_level():
    a = e(12, 360)
    c = primary_decompose(a)
    sc = suspend_class(c)
    assert [(str(p), i) for p, i in sc.labels] == [("2", 1), ("3", 1)]
    assert sc.labels == primary_decompose(suspension(a)).labels


def test_suspend_class_involution():
    c = primary_decompose(e(12, 360))
    assert suspend_class(suspend_class(c)).labels == c.labels


def test_primary_test_objects():
    cd = critical_decompose(z(360))
    objs = primary_test_objects(cd)
    scalars = sorted(str(t.v_scalar()) for t in objs)
    assert scalars == ["2", "3", "4"]


def test_induced_hom_iso_probe():
    f = elementary_morphism(e(2, 12), e(6, 12), z(1))
    cd = critical_decompose(z(12))
    tests = primary_test_objects(cd)
    assert is_iso_by_induced_homs(f, tests)
    assert induced_hom_iso(f, tests[0])
    g = zero_morphism(e(2, 12), e(2, 12))
    assert not is_iso_by_induced_homs(g, tests)


def _length(m):
    return sum(k for f in m.torsion_factors for _, k in factorize(f).factors)


def _length_probe(f, tests):
    """The induced-hom probe as it was when it compared composition lengths
    (by factoring every torsion factor) where it now compares orders."""
    def presented_map_iso(src, dst, lmat):
        y = _kernel_coordinates(dst.outer_smith, lmat @ src.generators)
        assert y is not None
        if _length(src.invariants) != _length(dst.invariants):
            return False
        dec = smith(RingMatrix.block([[y, dst.relations]]))
        return (dec.rank == y.rows
                and all(d.is_unit for d in dec.invariant_factors))

    for t in tests:
        lmat = postcompose_matrix(f, t)
        pairs = zip(hom_subquotients(t, f.source),
                    hom_subquotients(t, f.target))
        if not all(presented_map_iso(s, d, lmat) for s, d in pairs):
            return False
    return True


@pytest.mark.parametrize("W, rate", [(12, 0.5), (32, 0.15)])
def test_induced_hom_probe_orders_agree_with_lengths(W, rate):
    rng = random.Random(f"probe:{W}")
    W = z(W)
    tests = primary_test_objects(critical_decompose(W))
    divs = _divisor_grid(W)
    probed = isos = 0
    for v1 in divs:
        for v2 in divs:
            src, dst = elementary(v1, W), elementary(v2, W)
            for r in range(int(str(W))):
                if rng.random() > rate:
                    continue
                f = elementary_morphism(src, dst, z(r))
                got = is_iso_by_induced_homs(f, tests)
                assert got == _length_probe(f, tests)
                probed += 1
                isos += got
    assert probed >= 40 and 0 < isos < probed


def test_induced_hom_probe_over_gf():
    rng = random.Random("probe:gf")
    x = GF3.parse("x")
    W = x ** 2 * (x + GF3.one) ** 2
    tests = primary_test_objects(critical_decompose(W))
    divs = _divisor_grid(W)
    isos = 0
    for _ in range(60):
        src, dst = (elementary(rng.choice(divs), W) for _ in range(2))
        r = random_element(GF3, rng, max_degree=3)
        f = elementary_morphism(src, dst, r)
        got = is_iso(f)
        assert got == is_iso_by_induced_homs(f, tests)
        isos += got
    assert 0 < isos < 60


# ---------------------------------------------------------------------------
# round trips over GF(3)[x]


def test_gf_class_roundtrip():
    x = GF3.parse("x")
    xp1 = GF3.parse("x + 1")
    W = x ** 4 * xp1 ** 2
    cd = critical_decompose(W)
    a = elementary_sum(W, [x ** 2, x * xp1])
    c = primary_decompose(a, cd)
    assert [(str(p), i) for p, i in c.labels] == [("x", 1), ("x", 2), ("x+1", 1)]


def test_elementary_sum_realizes_labels():
    cd = critical_decompose(z(360))
    c = MfClass.from_labels(cd, [(z(2), 1), (z(3), 1), (z(2), 2)])
    a = elementary_sum(z(360), [p ** i for p, i in c.labels])
    assert primary_decompose(a, cd).labels == c.labels


def _direct_sum_fold(W, divisors):
    """``elementary_sum`` as it was: a ``direct_sum`` fold of e_d."""
    if not divisors:
        zero = RingMatrix.zeros(W.ring, 0, 0)
        return MatrixFactorization(W, zero, zero)
    acc = elementary(divisors[0], W)
    for v in divisors[1:]:
        acc = direct_sum(acc, elementary(v, W))
    return acc


@pytest.mark.parametrize("W", [z(360), GF3.parse("x^3 + x^2")], ids=str)
def test_elementary_sum_matches_direct_sum_fold(W):
    rng = random.Random(f"elementary_sum:{W}")
    divs = _divisor_grid(W)
    for k in range(6):
        for _ in range(4):
            ds = [rng.choice(divs) for _ in range(k)]
            new, old = elementary_sum(W, ds), _direct_sum_fold(W, ds)
            assert new.W == old.W and new.rho == old.rho == k
            for x, y in ((new.u, old.u), (new.v, old.v)):
                assert x.ring is y.ring and x.shape == y.shape
                assert x.payloads == y.payloads


@pytest.mark.parametrize("divisors, error", [
    ([z(2), z(0)], PreconditionError),
    ([z(0)], PreconditionError),
    ([z(2), z(5)], PreconditionError),
    ([z(5), z(2)], PreconditionError),
    ([z(2), GF3.parse("x")], ValidationError),
    ([GF3.parse("x")], ValidationError),
], ids=["zero", "zero-only", "non-divisor", "non-divisor-first",
        "mixed-ring", "mixed-ring-only"])
def test_elementary_sum_refuses_like_the_fold(divisors, error):
    with pytest.raises(error):
        _direct_sum_fold(z(12), divisors)
    with pytest.raises(error):
        elementary_sum(z(12), divisors)
