"""Ring arithmetic, canonical forms, gcd certificates, factorization."""

import copy
import math
import operator
import pickle
import random
import re
import types

import pytest
from hypothesis import given, settings, strategies as st

import element_reference as ref
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
    gcd_bezout,
    gf_polynomial_ring,
    is_prime,
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


# int() and \d also take underscores and the decimal digits of every
# script; literals take ASCII decimal digits only
@pytest.mark.parametrize("parse, text", [
    (Z.parse, "1_000"),
    (Z.parse, "\u0663\u0666\u0660"),  # Arabic-Indic 360
    (Z.parse, "\uff11\uff12"),  # fullwidth 12
    (GF3.parse, "x^\u0663"),
    (GF3.parse, "x+1\n"),
    (ring_from_text, "GF(\u0663)[x]"),
], ids=["underscore", "arabic_indic", "fullwidth", "gf_exponent",
        "gf_trailing_newline", "ring_modulus"])
def test_literals_take_only_ascii_decimal_digits(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_integer_literals_keep_sign_and_surrounding_space():
    assert Z.parse(" -12 ") == Z.from_int(-12)
    assert Z.parse("+7") == Z.from_int(7)


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


# each refusal of a malformed ring, literal or operand, with its error type
REFUSAL_CASES = {
    "negative_power": (lambda: Z.from_int(2) ** -1, PreconditionError),
    "same_ring_of_nothing": (lambda: rings.same_ring(), PreconditionError),
    "gf0": (lambda: ring_from_text("GF(0)[x]"), ParseError),
    "gf1": (lambda: ring_from_text("GF(1)[x]"), ParseError),
    "gf_empty_literal": (lambda: GF3.parse(""), ParseError),
    "gf_double_sign": (lambda: GF3.parse("x++1"), ParseError),
    "z_past_digit_limit": (lambda: Z.parse("9" * 5000), ParseError),
}


@pytest.mark.parametrize("build, error", REFUSAL_CASES.values(),
                         ids=REFUSAL_CASES.keys())
def test_malformed_input_refused(build, error):
    with pytest.raises(error):
        build()


def test_int_minus_element_takes_the_reflected_operator():
    assert 3 - Z.from_int(5) == Z.from_int(-2)
    assert 1 - GF3.parse("x") == GF3.parse("2*x + 1")


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


def test_integer_gcd_matches_the_euclid_loop():
    # IntegerRing._gcd is math.gcd; the Euclid loop is the reference
    assert "_gcd" in vars(IntegerRing) and "_gcd" not in vars(rings.Ring)
    rng = random.Random(61)
    small = (0, 1, -1, 2, -2, 12, -18)
    pairs = [(a, b) for a in small for b in small]
    for _ in range(300):
        k = rng.randint(1, 10**6)  # a shared factor, so not every gcd is 1
        pairs.append((k * rng.randint(-10**30, 10**30),
                      k * rng.choice((0, rng.randint(-10**12, 10**12)))))
    for a, b in pairs:
        assert Z._gcd(a, b) == ref.euclid_gcd(Z, a, b), (a, b)
        assert Z._gcd(a, b) >= 0


def test_each_ring_defines_every_listed_primitive():
    # Ring's docstring is the one list of payload primitives; the base class
    # defines none of them, so each concrete ring must define all
    listed = re.findall(r"``(_\w+)\(", rings.Ring.__doc__)
    assert len(listed) == len(set(listed)) == 13
    for name in listed:
        assert name not in vars(rings.Ring), name
        for cls in (IntegerRing, GFPolynomialRing):
            assert isinstance(vars(cls).get(name), types.FunctionType), \
                (cls, name)


def test_gcd_divisible_case_gives_a_bezout_certificate():
    # a | b takes no shortcut: the certificate is extended Euclid's, and it
    # still has x*a + y*b = g with g the canonical associate of a
    for a, b in ((z(1), z(-2)), (z(-3), z(12)),
                 (GF3.parse("2*x + 1"), GF3.parse("x + 2"))):
        cert = gcd_bezout(a, b)
        assert cert.x * a + cert.y * b == cert.g
        assert cert.g == normalize(a).canonical


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


def test_factorize_gf_refuses_past_the_trial_division_cap():
    # degree-1 trial division over GF(10**9 + 7) would try 10**9 + 7
    # candidates
    with pytest.raises(PreconditionError, match="trial division"):
        factorize(gf_polynomial_ring(10**9 + 7).parse("x^2 + 1"))


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

    from smithfact import random_element

    ring, bounds = ring_and_bounds
    rng = random.Random(7)
    for _ in range(40):
        while (a := random_element(ring, rng, **bounds)).is_zero:
            pass
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
    # up by p and p^2, p^4 fails; down: p^2 and p fail
    assert [d for _, d in calls] == [p, ring._mul(p, p), ring._mul(
        ring._mul(p, p), ring._mul(p, p)), ring._mul(p, p), p]
    calls.clear()
    assert rings._valuation(ring, p, a, 2) == (2, ring._mul(unit, p))
    assert len(calls) == 2  # p, then p again: p^2 would pass the cap
    calls.clear()
    assert rings._valuation(ring, p, unit) == (0, unit)  # not a divisor
    assert len(calls) == 1
    calls.clear()
    zero = ring._from_int(0)
    assert rings._valuation(ring, p, zero, 5) == (5, zero)
    assert len(calls) == 3  # p and p^2 (e = 3), p^4 would pass: p^2 again
    calls.clear()
    assert rings._valuation(ring, p, a, 0) == (0, a) and not calls


def test_valuation_takes_logarithmically_many_divisions(monkeypatch):
    # x^10000 over GF(3): 14 divisions up (x^1 .. x^8192, the last
    # inexact) and 13 down, within 2 * ceil(log2 10000) + 2 = 30
    calls = counted_divmod(monkeypatch, GF3)
    a = (0,) * 10000 + (1,)
    assert rings._valuation(GF3, (0, 1), a) == (10000, (1,))
    assert len(calls) <= 2 * math.ceil(math.log2(10000)) + 2
    calls.clear()
    # (x + 1)^e times x^2 + 1, which x + 1 does not divide, under caps
    # around e
    p, u = GF3.parse("x + 1"), GF3.parse("x^2 + 1")
    for e in (1, 2, 7, 8, 9, 100, 127, 128):
        for cap in (None, e - 1, e, e + 1):
            want = e if cap is None else min(e, cap)
            assert rings._valuation(GF3, p.payload, (u * p ** e).payload,
                                    cap) == (want, (u * p ** (e - want)).payload)


def test_gf_trial_factor_ends_an_irreducible_cofactor_at_once(monkeypatch):
    # Rabin's test proves these irreducible before any candidate divides
    irreducible = []
    for ring, degree in ((GF2, 40), (GF2, 40), (GF3, 24)):
        rng = random.Random(len(irreducible))
        while True:
            f = ring.element(tuple(rng.randrange(ring.p)
                                   for _ in range(degree)) + (1,))
            if is_prime(f):
                break
        irreducible.append(f)
    calls = []  # Rabin's test factors its degree over Z: not a candidate
    monkeypatch.setattr(rings, "_valuation",
                        _counting_call(rings._valuation, calls))

    def tried():
        return [d for ring, d, *_ in calls if ring is not Z]

    for f in irreducible:
        two = f.ring.from_int(2) if f.ring.p > 2 else f.ring.one
        fac = factorize(two * f)
        assert fac.unit == two and fac.factors == ((f, 1),)
    assert not tried()
    # the prime x leaves an irreducible cofactor: no other candidate is
    # tried
    x = GF2.parse("x")
    fac = factorize(x * x * irreducible[0])
    assert fac.factors == ((x, 2), (irreducible[0], 1))
    assert tried() == [(0, 1)]


def test_gf_trial_factor_goes_on_past_rabins_budget():
    # Rabin's test refuses degree 10000 at once (its budget is 0 steps),
    # and trial division by x finds x^10000
    fac = factorize(GF3.parse("x^10000"))
    assert fac.factors == ((GF3.parse("x"), 10000),)
    fac = factorize(GF3.parse("2*x^10000 + 2*x^9999"))
    assert fac.unit == GF3.from_int(2)
    assert fac.factors == ((GF3.parse("x"), 9999), (GF3.parse("x + 1"), 1))


def _counting_call(real, calls):
    def counting(*args):
        calls.append(args)
        return real(*args)
    return counting


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
