"""Ring arithmetic, canonical forms, gcd certificates, factorization."""

import copy
import operator
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import smithfact.rings as rings

from smithfact import (
    ZZ as Z,
    GFPolynomialRing,
    IntegerRing,
    ParseError,
    ValidationError,
    PreconditionError,
    divides,
    exact_div,
    factorize,
    gcd,
    gcd_all,
    gcd_bezout,
    gf_polynomial_ring,
    is_prime,
    lcm,
    normalize,
    ring_from_text,
)
from conftest import GF2, GF3, GF5, z


# ---------------------------------------------------------------------------
# construction and text round trips


def test_ring_from_text():
    assert ring_from_text("Z") is Z
    assert ring_from_text("GF(3)[x]") is GF3
    assert ring_from_text("GF(5)[x]") is GF5
    with pytest.raises(ParseError):
        ring_from_text("GF(4)[x]")
    with pytest.raises(ParseError):
        ring_from_text("Q")


def test_integer_parse_format_roundtrip():
    for n in (-17, -1, 0, 1, 42, 360):
        e = Z.parse(str(n))
        assert e == Z.from_int(n)
        assert str(e) == str(n)


def test_gf_parse_format_roundtrip():
    cases = ["0", "1", "2", "x", "x + 1", "2*x^2 + x + 1", "x^4 + 2"]
    for text in cases:
        e = GF3.parse(text)
        assert GF3.parse(str(e)) == e


def test_gf_parse_reduces_coefficients():
    assert GF3.parse("4*x + 5") == GF3.parse("x + 2")
    assert GF2.parse("x^2 + 3*x") == GF2.parse("x^2 + x")


def test_gf_parse_refuses_exponents_past_the_degree_bound():
    assert len(GF3.parse("x^100000").payload) == 100001
    for text in ("x^100001", "x^1000000000000", "1+2*x^1000000000000"):
        with pytest.raises(ParseError, match="degree bound 100000"):
            GF3.parse(text)


def test_gf_zero_has_no_trailing_junk():
    e = GF3.parse("x") - GF3.parse("x")
    assert e.is_zero
    assert str(e) == "0"


def test_from_int_wraps_modulo_p():
    assert GF3.from_int(5) == GF3.from_int(2)
    assert GF3.from_int(-1) == GF3.from_int(2)


def test_cross_ring_arithmetic_rejected():
    with pytest.raises(ValidationError):
        z(1) + GF3.parse("x")


def test_operators_refuse_non_elements_with_type_error():
    for op in (operator.add, operator.sub, operator.mul, operator.lt):
        with pytest.raises(TypeError):
            op(Z.one, "a")
        with pytest.raises(TypeError):
            op("a", GF3.one)
    assert Z.one < 2 and not GF3.parse("x") < 2


def test_rings_are_interned():
    assert IntegerRing() is Z
    gf7 = gf_polynomial_ring(7)
    assert GFPolynomialRing(7) is gf7 is ring_from_text("GF(7)[x]")
    assert ring_from_text(" GF(007)[x] ") is gf7
    for ring in (Z, gf7):
        assert copy.deepcopy(ring) is ring
        assert pickle.loads(pickle.dumps(ring)) is ring
    x = gf7.parse("x + 3")
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(ValidationError, match="modulus must be prime"):
        GFPolynomialRing(9)


# ---------------------------------------------------------------------------
# canonical associates


def test_normalize_integer():
    c = normalize(z(-6))
    assert c.canonical == z(6)
    assert c.unit == z(-1)
    assert c.unit * z(-6) == c.canonical


def test_normalize_gf_monic():
    c = normalize(GF3.parse("2*x + 2"))
    assert c.canonical == GF3.parse("x + 1")
    assert c.unit == GF3.parse("2")


def test_normalize_zero():
    c = normalize(Z.zero)
    assert c.canonical == Z.zero
    assert c.unit == Z.one


def test_is_unit():
    assert z(1).is_unit and z(-1).is_unit
    assert not z(2).is_unit and not z(0).is_unit
    assert GF5.parse("3").is_unit
    assert not GF5.parse("x").is_unit


# ---------------------------------------------------------------------------
# divisibility


def test_exact_div_examples():
    assert exact_div(z(12), z(4)) == z(3)
    assert exact_div(GF3.parse("x^2 + 2"), GF3.parse("x + 1")) == GF3.parse("x + 2")


def test_exact_div_rejects_inexact():
    with pytest.raises(PreconditionError):
        exact_div(z(12), z(5))


def test_divides():
    assert divides(z(4), z(12))
    assert not divides(z(5), z(12))
    assert divides(Z.zero, Z.zero)
    assert not divides(Z.zero, z(3))
    assert divides(z(3), Z.zero)


# ---------------------------------------------------------------------------
# gcd with certificates


def test_gcd_bezout_integers():
    cert = gcd_bezout(z(12), z(18))
    assert cert.g == z(6)
    assert cert.x * z(12) + cert.y * z(18) == z(6)


def test_gcd_bezout_gf():
    a, b = GF3.parse("x^2 + 2*x + 1"), GF3.parse("x^2 + 2")
    cert = gcd_bezout(a, b)
    assert cert.g == GF3.parse("x + 1")
    assert cert.x * a + cert.y * b == cert.g


def test_gcd_canonical_and_zero_rules():
    assert gcd(z(-4), z(6)) == z(2)
    assert gcd(Z.zero, z(-5)) == z(5)
    assert gcd(Z.zero, Z.zero) == Z.zero
    assert gcd(GF3.parse("2*x"), GF3.parse("2")) == GF3.one


def test_gcd_divisible_case_gives_trivial_certificate():
    # The elimination step in the normal-form routine builds a 2x2 block from
    # (x, y); y must be 0 when a | b or cleared entries get re-filled.
    cert = gcd_bezout(z(1), z(-2))
    assert (cert.x, cert.y) == (z(1), Z.zero)
    cert = gcd_bezout(z(-3), z(12))
    assert cert.g == z(3)
    assert cert.y == Z.zero


def test_lcm():
    assert lcm(z(4), z(6)) == z(12)
    assert lcm(z(4), Z.zero) == Z.zero
    assert lcm(GF3.parse("x"), GF3.parse("2*x")) == GF3.parse("x")


def test_gcd_all():
    assert gcd_all([z(12), z(18), z(30)]) == z(6)
    assert gcd_all([], ring=Z) == Z.zero
    with pytest.raises(PreconditionError):
        gcd_all([])


# ---------------------------------------------------------------------------
# factorization into primes


def test_factorize_360():
    f = factorize(z(360))
    assert f.unit == z(1)
    assert f.factors == ((z(2), 3), (z(3), 2), (z(5), 1))


def test_factorize_negative():
    f = factorize(z(-7))
    assert f.unit == z(-1)
    assert f.factors == ((z(7), 1),)


def test_factorize_unit_and_zero():
    f = factorize(z(-1))
    assert f.unit == z(-1) and f.factors == ()
    with pytest.raises(PreconditionError):
        factorize(Z.zero)


def test_factorize_gf2():
    f = factorize(GF2.parse("x^2 + x"))
    assert f.unit == GF2.one
    assert f.factors == ((GF2.parse("x"), 1), (GF2.parse("x+1"), 1))


def test_factorize_gf3_with_unit():
    f = factorize(GF3.parse("2*x^2 + 2*x"))
    assert f.unit == GF3.parse("2")
    assert f.factors == ((GF3.parse("x"), 1), (GF3.parse("x + 1"), 1))


def test_factorize_reassembles(ring_and_bounds):
    import random

    from smithfact import random_nonzero_element

    ring, bounds = ring_and_bounds
    rng = random.Random(7)
    for _ in range(40):
        a = random_nonzero_element(ring, rng, **bounds)
        f = factorize(a)
        prod = f.unit
        for p, k in f.factors:
            assert is_prime(p)
            assert normalize(p).canonical == p
            for _ in range(k):
                prod = prod * p
        assert prod == a


def test_is_prime():
    assert is_prime(z(2)) and is_prime(z(-3))
    assert not is_prime(z(1)) and not is_prime(z(6)) and not is_prime(Z.zero)
    assert is_prime(GF2.parse("x^2 + x + 1"))
    assert not is_prime(GF2.parse("x^2 + 1"))  # (x+1)^2


@pytest.mark.parametrize("ring", [GF2, GF3], ids=lambda r: r.name)
def test_rabin_matches_factorize_on_every_small_monic(ring):
    from itertools import product

    seen = 0
    for deg in range(7):
        for low in product(range(ring.p), repeat=deg):
            f = ring.element(low + (1,))
            fac = factorize(f)
            irreducible = (len(fac.factors) == 1
                           and fac.factors[0][1] == 1)
            assert is_prime(f) == irreducible, f
            assert is_prime(ring.from_int(-1) * f) == irreducible, f
            seen += irreducible
    assert seen == {2: 23, 3: 196}[ring.p]  # irreducible monics, deg 1..6


def test_is_prime_over_gf_does_not_factor(monkeypatch):
    def refuse(a):
        raise AssertionError("factorize called")

    monkeypatch.setattr(rings, "factorize", refuse)
    assert is_prime(GF3.parse("x^2 + 1"))
    assert not is_prime(GF5.parse("x^2 + 1"))  # (x+2)(x+3)
    # p = 3 mod 8, so -1 and 2 are not squares mod p, and x^4 + 1 is
    # reducible over every prime field
    big = gf_polynomial_ring(1000000000000000003)
    assert is_prime(big.parse("x + 5")) and is_prime(big.parse("x^2 + 1"))
    assert is_prime(big.parse("x^2 - 2"))
    assert not is_prime(big.parse("x^4 + 1"))
    assert not is_prime(big.parse("x^3 + 1"))  # (x + 1) divides it


# ---------------------------------------------------------------------------
# the certified Z factorizer against the trial-division oracle

PSI13 = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


def oracle(n: int) -> list[tuple[int, int]]:
    """Prime powers of |n| by trial division by 2 and the odd numbers up to
    the square root of what is left; a cofactor left over is prime."""
    n, factors, d = abs(n), [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def fast(n: int) -> list[tuple[int, int]]:
    return [(p.payload, e) for p, e in factorize(z(n)).factors]


def next_prime(n: int) -> int:
    while oracle(n) != [(n, 1)]:
        n += 1
    return n


def test_factorize_matches_oracle_on_seeded_sweep():
    import random

    rng = random.Random(11)
    sample = list(range(-300, 301)) + [rng.randint(-10**7, 10**7)
                                       for _ in range(400)]
    for n in sample:
        if n:
            assert fast(n) == oracle(n), n
            assert factorize(z(n)).unit == z(-1 if n < 0 else 1)


def test_factorize_products_of_large_primes():
    small = [next_prime(10**6), next_prime(10**6 + 100)]
    big = [999999999989, 1000000000039]
    for p in big:  # the oracle certifies them; sqrt(p) is 10**6
        assert oracle(p) == [(p, 1)]
    p, q = small
    for n in (p * q, p**2, p**3, p**2 * q, 2**5 * 3 * p**2):
        assert fast(n) == oracle(n), n
    P, Q = big
    cases = {
        P * Q: [(P, 1), (Q, 1)],
        P**2: [(P, 2)],
        P**3: [(P, 3)],
        q**3 * P**2: [(q, 3), (P, 2)],
        p * Q**2: [(p, 1), (Q, 2)],
        2 * 3**4 * q**3 * P: [(2, 1), (3, 4), (q, 3), (P, 1)],
    }
    for n, expected in cases.items():
        assert fast(n) == expected, n


def test_iroot_brackets_the_root():
    import random

    rng = random.Random(5)
    for _ in range(500):
        k = rng.randint(2, 40)
        n = rng.getrandbits(rng.randint(1, 2000)) + 1
        r = rings._iroot(n, k)
        assert r**k <= n < (r + 1)**k, (n, k)
    for r in (2, 1009, 10**12 + 39):
        for k in (2, 3, 7):
            assert rings._iroot(r**k, k) == r
            assert rings._iroot(r**k - 1, k) == r - 1


def test_is_prime_rejects_strong_pseudoprimes():
    # least strong pseudoprimes to the first 4, 9 and 12 prime bases; the
    # last passes every base up to 37 and is caught by 41
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(z(n))
    assert is_prime(z(10**12 + 39)) and is_prime(z(2**61 - 1))


def test_is_prime_over_z_does_not_factor(monkeypatch):
    def refuse(a):
        raise AssertionError("factorize called")

    monkeypatch.setattr(rings, "factorize", refuse)
    assert is_prime(z(1000000000000000003))
    assert not is_prime(z(1000000000000000001))


def test_uncertifiable_cofactor_raises():
    with pytest.raises(PreconditionError, match="cannot certify"):
        factorize(z(PSI13))
    with pytest.raises(PreconditionError, match="cannot certify"):
        is_prime(z(2**89 - 1))  # prime, but past the certified range
    with pytest.raises(PreconditionError, match="cannot certify"):
        factorize(z(6 * (2**89 - 1)**2))
    # a composite past the range is still split, each prime certified
    p, q, P = next_prime(10**6), next_prime(10**6 + 100), 10**12 + 39
    assert p**2 * q * P >= PSI13
    assert fast(p**2 * q * P) == [(p, 2), (q, 1), (P, 1)]


def test_past_certified_range_stops_at_first_passed_base(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(rings, "pow", counting, raising=False)
    with pytest.raises(PreconditionError, match="strong probable prime to "
                                                "base 2"):
        rings._int_is_prime(2**89 - 1)
    assert len(calls) == 1
    calls.clear()  # a base that proves compositeness still answers
    assert not rings._int_is_prime((2**89 - 1) * (2**61 - 1))
    assert len(calls) == 1
    calls.clear()  # below psi_13 every base runs
    assert rings._int_is_prime(2**61 - 1) and len(calls) == 13


def test_rho_step_budget_applies_past_certified_range(monkeypatch):
    monkeypatch.setattr(rings, "_RHO_MAX_STEPS", 64)
    p, P, Q = next_prime(10**6), 999999999989, 1000000000039
    with pytest.raises(PreconditionError, match="within 64 steps"):
        factorize(z(p * P * Q))  # >= psi_13, no split within 64 steps
    assert fast(p * Q) == [(p, 1), (Q, 1)]  # below psi_13: runs to the end



# ---------------------------------------------------------------------------
# prime multiplicities on payloads


def counted_divmod(monkeypatch, ring):
    """Record every ``_divmod`` call of one ring instance."""
    calls = []
    real = ring._divmod

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ring, "_divmod", counting, raising=False)
    return calls


@pytest.mark.parametrize("ring, p, unit", [(Z, 3, 5), (GF3, (1, 1), (2,))],
                         ids=["Z", "GF(3)[x]"])
def test_valuation(monkeypatch, ring, p, unit):
    calls = counted_divmod(monkeypatch, ring)
    a = ring._mul(unit, ring._mul(p, ring._mul(p, p)))  # unit * p^3
    assert rings._valuation(ring, p, a) == (3, unit)
    assert len(calls) == 4  # three quotients and the remainder that stops
    calls.clear()
    assert rings._valuation(ring, p, a, 2) == (2, ring._mul(unit, p))
    assert len(calls) == 2  # the cap is reached: no further division
    calls.clear()
    assert rings._valuation(ring, p, unit) == (0, unit)  # not a divisor
    assert len(calls) == 1
    calls.clear()
    zero = ring._from_int(0)
    assert rings._valuation(ring, p, zero, 5) == (5, zero)
    assert len(calls) == 5
    calls.clear()
    assert rings._valuation(ring, p, a, 0) == (0, a) and not calls


# ---------------------------------------------------------------------------
# algebraic laws, property-based

ints = st.integers(min_value=-200, max_value=200)


@st.composite
def gf3_elems(draw):
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=2), max_size=6))
    x = GF3.parse("x")
    acc, power = GF3.zero, GF3.one
    for c in coeffs:
        acc = acc + GF3.from_int(c) * power
        power = power * x
    return acc


@given(ints, ints, ints)
def test_z_ring_laws(a, b, c):
    ea, eb, ec = z(a), z(b), z(c)
    assert ea + eb == eb + ea
    assert (ea + eb) + ec == ea + (eb + ec)
    assert ea * (eb + ec) == ea * eb + ea * ec
    assert ea * eb == eb * ea


@given(gf3_elems(), gf3_elems(), gf3_elems())
def test_gf3_ring_laws(ea, eb, ec):
    assert ea + eb == eb + ea
    assert (ea * eb) * ec == ea * (eb * ec)
    assert ea * (eb + ec) == ea * eb + ea * ec


@given(ints, ints)
@settings(max_examples=60)
def test_bezout_identity_z(a, b):
    cert = gcd_bezout(z(a), z(b))
    assert cert.x * z(a) + cert.y * z(b) == cert.g
    if a or b:
        assert divides(cert.g, z(a)) and divides(cert.g, z(b))
        assert normalize(cert.g).canonical == cert.g


@given(gf3_elems(), gf3_elems())
@settings(max_examples=60)
def test_bezout_identity_gf3(ea, eb):
    cert = gcd_bezout(ea, eb)
    assert cert.x * ea + cert.y * eb == cert.g
    if not (ea.is_zero and eb.is_zero):
        assert divides(cert.g, ea) and divides(cert.g, eb)


@given(ints, st.integers(min_value=-200, max_value=200).filter(lambda n: n != 0))
@settings(max_examples=60)
def test_exact_div_inverts_mul(a, b):
    ea, eb = z(a), z(b)
    assert exact_div(ea * eb, eb) == ea
