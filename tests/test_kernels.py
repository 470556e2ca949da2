"""Payload kernels (smith, @, det, kron), each ring's matrix product and
the GF(p)[x] payload sum, product, difference and division against their
reference implementations."""

import itertools
import random
import sys
import types

import pytest

import element_reference as ref
from smithfact import (PreconditionError, RingElement, RingMatrix, kron,
                       random_matrix, smith)
from smithfact import rings
from smithfact.rings import (BezoutCertificate, GFPolynomialRing,
                             IntegerRing, Ring, gf_polynomial_ring)
from conftest import GF2, GF3, GF5, Z

SWEEP_RINGS = [Z, GF2, GF3, GF5]
SHAPES = [(r, c) for r in range(7) for c in range(7)]


def sweep_inputs(ring, seed):
    """Per shape up to 6x6: a random, a zero and a rank-deficient matrix."""
    rng = random.Random(seed)
    for r, c in SHAPES:
        yield random_matrix(ring, rng, r, c)
        yield RingMatrix.zeros(ring, r, c)
        low = max(0, min(r, c) - 2)
        yield ref.matmul(random_matrix(ring, rng, r, low),
                         random_matrix(ring, rng, low, c))


# snf_certify's largest shapes: (ring, rows, cols, random_matrix options)
BENCH_SHAPES = {Z: [(16, 16, {"int_bound": 50}), (15, 16, {"int_bound": 50})],
                GF3: [(8, 8, {"max_degree": 4})],
                GF5: [(8, 8, {"max_degree": 4})]}


def bench_inputs(ring, seed, per_shape=3):
    rng = random.Random(seed)
    for r, c, kw in BENCH_SHAPES.get(ring, ()):
        for _ in range(per_shape):
            yield random_matrix(ring, rng, r, c, **kw)


def counted(monkeypatch, module, calls):
    real = module.gcd_bezout

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(module, "gcd_bezout", counting)


@pytest.mark.parametrize("ring", SWEEP_RINGS, ids=lambda r: r.name)
def test_smith_matches_element_reference(ring, monkeypatch):
    # the package attribute smithfact.smith is the function, not the module
    kernel_calls, ref_calls = [], []
    counted(monkeypatch, sys.modules["smithfact.smith"], kernel_calls)
    counted(monkeypatch, ref, ref_calls)
    for a in itertools.chain(sweep_inputs(ring, 41), bench_inputs(ring, 44)):
        got, want = smith(a), ref.smith(a)
        assert (got.U, got.V, got.D, got.v_inv) == \
            (want.U, want.V, want.D, want.v_inv)
        assert got.rank == want.rank
        assert got.invariant_factors == want.invariant_factors
        assert len(kernel_calls) == len(ref_calls)
    assert kernel_calls


@pytest.mark.parametrize("ring", SWEEP_RINGS, ids=lambda r: r.name)
def test_matmul_det_kron_match_element_reference(ring):
    rng = random.Random(43)
    for a in sweep_inputs(ring, 42):
        b = random_matrix(ring, rng, a.cols, rng.randint(0, 6))
        assert a @ b == ref.matmul(a, b)
        assert kron(a, b) == ref.kron(a, b)
        if a.is_square():
            assert a.det() == ref.det(a)


@pytest.mark.parametrize("ring", [Z, GF3], ids=lambda r: r.name)
def test_kernels_do_no_element_arithmetic(ring, monkeypatch):
    rng = random.Random(47)
    a = random_matrix(ring, rng, 5, 4)
    b = random_matrix(ring, rng, 4, 3)
    singular = ref.matmul(random_matrix(ring, rng, 4, 2),
                          random_matrix(ring, rng, 2, 4))
    # a zero leading pivot makes det swap rows and negate its result
    swapped = RingMatrix.from_rows(ring, [[0, 1, 2], [1, 0, 0], [0, 0, 1]])

    def refuse(*args):
        raise AssertionError("RingElement arithmetic inside a kernel")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__"):
        monkeypatch.setattr(RingElement, name, refuse)
    for m in (a, b, singular, swapped):
        assert smith(m).verify(m)
    assert (a @ b).shape == (5, 3)
    assert kron(a, b).shape == (20, 12)
    assert singular.det().is_zero
    assert swapped.det() == ring.from_int(-1)


def test_smith_refuses_an_inexact_bezout_quotient(monkeypatch):
    # a certificate whose g does not divide a must fail the s = a/g check
    module = sys.modules["smithfact.smith"]
    real = module.gcd_bezout

    def doubled(a, b):
        c = real(a, b)
        return BezoutCertificate(c.g * 2, c.x, c.y)

    monkeypatch.setattr(module, "gcd_bezout", doubled)
    with pytest.raises(PreconditionError, match="does not divide"):
        smith(RingMatrix.from_rows(Z, [[3, 5], [7, 11]]))


@pytest.mark.parametrize("ring, unit", [(Z, -1), (GF3, 2)],
                         ids=["Z", "GF(3)[x]"])
def test_smith_takes_the_general_block_for_a_non_canonical_gcd(
        ring, unit, monkeypatch):
    # (g, x, y) = (unit*a, unit, 0) is a valid certificate when a | b but
    # has s = a/g != 1: it is no plain elimination, so the kernel must
    # apply the general block [[x, y], [-t, s]] exactly as the reference
    # does.  That block has determinant x*s = 1, so every shape verifies.
    calls = []

    def non_canonical(a, b):
        calls.append(1)
        assert len(calls) < 10_000, "elimination does not terminate"
        return BezoutCertificate(a * unit, ring.one * unit, ring.zero)

    monkeypatch.setattr(sys.modules["smithfact.smith"], "gcd_bezout",
                        non_canonical)
    monkeypatch.setattr(ref, "gcd_bezout", non_canonical)
    rng = random.Random(59)

    def factor(n, chained):
        """n random entries; when chained, multiples of the first."""
        m = random_matrix(ring, rng, n, 1)
        if chained:
            d = m.entry(0, 0)
            m = RingMatrix.from_rows(ring, [[d]] + [[d * e] for e in
                                                   m.entries[1:]])
        return m

    done = {1: 0, 4: 0}
    for cols in done:
        for trial in range(30):
            a = ref.matmul(factor(3, trial % 2),
                           factor(cols, trial % 2).transpose())
            try:
                got = smith(a)
            except PreconditionError as exc:
                assert "does not divide" in str(exc)
                with pytest.raises(PreconditionError, match="does not divide"):
                    ref.smith(a)
                continue
            want = ref.smith(a)
            assert (got.U, got.V, got.v_inv, got.invariant_factors) == \
                (want.U, want.V, want.v_inv, want.invariant_factors)
            assert got.verify(a)
            done[cols] += 1
    assert calls and all(done.values()), done


@pytest.mark.parametrize("ring, unit", [(Z, -1), (GF3, 2)],
                         ids=["Z", "GF(3)[x]"])
def test_smith_refuses_a_certificate_with_x_a_plus_y_b_not_g(
        ring, unit, monkeypatch):
    # (g, x, y) = (unit*a, 1, 0) passes both quotient checks when a | b,
    # but x*a + y*b = a != g: its block has determinant s = 1/unit
    def bogus(a, b):
        return BezoutCertificate(a * unit, ring.one, ring.zero)

    monkeypatch.setattr(sys.modules["smithfact.smith"], "gcd_bezout", bogus)
    a = RingMatrix.from_rows(ring, [[2, 4], [6, 8]])
    with pytest.raises(PreconditionError, match=r"x\*a \+ y\*b != g"):
        smith(a)


def test_det_refuses_an_inexact_bareiss_step(monkeypatch):
    # an off-by-one subtraction makes the step-two division by the first
    # pivot (2) inexact
    monkeypatch.setattr(IntegerRing, "_sub", lambda self, a, b: a - b + 1)
    with pytest.raises(PreconditionError, match="2 does not divide"):
        RingMatrix.from_rows(Z, [[2, 1, 0], [0, 1, 0], [0, 0, 1]]).det()


# the last two primes need more than 8 bytes per packed coefficient, from
# 4 terms on and from 2 terms on, and take the schoolbook fallback
SWEEP_PRIMES = [2, 3, 5, 7, 10007, 2**31 - 1, 10**18 + 3]
SKEWED_SHAPES = [(1, 1), (1, 2), (1, 17), (1, 80), (2, 20), (4, 30),
                 (3, 80), (80, 80)]


def gf_operand_pairs(p, rng):
    """Seeded GF(p)[x] payload pairs: each length 0..80 against a random
    length, the skewed shapes both ways round, operands with zero inner
    coefficients, and all-(p-1) operands, whose product coefficients reach
    the packing bound."""
    def dense(n):
        if not n:
            return ()
        return (tuple(rng.randrange(p) for _ in range(n - 1))
                + (rng.randrange(1, p),))

    def sparse(n):
        out = list(dense(n))
        for i in range(1, n - 1):
            if rng.random() < 0.8:
                out[i] = 0
        return tuple(out)

    def full(n):
        return (p - 1,) * n

    for n in range(81):
        for make in (dense, sparse, full):
            yield make(n), make(rng.randint(0, 80))
    for la, lb in SKEWED_SHAPES:
        for make in (dense, sparse, full):
            a, b = make(la), make(lb)
            yield a, b
            yield b, a


@pytest.mark.parametrize("kronecker_everywhere", [False, True],
                         ids=["crossover", "no-crossover"])
@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_gf_payload_ops_match_schoolbook(p, kronecker_everywhere,
                                         monkeypatch):
    if kronecker_everywhere:  # small operands take the packed path too
        monkeypatch.setattr(rings, "_KRONECKER_MIN_TERMS", 0)
    ring = gf_polynomial_ring(p)
    rng = random.Random(p)
    for a, b in gf_operand_pairs(p, rng):
        # a - a cancels to zero; a - a' with a' = a but for its constant
        # term cancels down to a constant
        near = ((rng.randrange(p),) + a[1:]) if len(a) > 1 else ()
        # a + (-near) cancels down to a constant, a + (-a) to zero
        neg_near = tuple((-c) % p for c in near)
        cases = [(ring._mul(a, b), ref.gf_mul(p, a, b)),
                 (ring._add(a, b), ref.gf_add(p, a, b)),
                 (ring._add(b, a), ref.gf_add(p, b, a)),
                 (ring._add(a, ring._neg(a)), ()),
                 (ring._add(a, neg_near), ref.gf_add(p, a, neg_near)),
                 (ring._sub(a, b), ref.gf_sub(p, a, b)),
                 (ring._sub(b, a), ref.gf_sub(p, b, a)),
                 (ring._sub(a, a), ()),
                 (ring._sub(a, near), ref.gf_sub(p, a, near))]
        if b:  # b[-1:] is a unit divisor
            for d in (b, b[-1:]):
                cases += zip(ring._divmod(a, d), ref.gf_divmod(p, a, d))
        for got, want in cases:
            assert type(got) is tuple and got == want, (a, b)
            assert not got or got[-1] != 0


# (rows, k, n): empty and one-by-one shapes, outer and inner products, and
# squares up to snf_certify's largest GF(p)[x] shape
MATMUL_SHAPES = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1),
                 (2, 2, 2), (3, 4, 2), (1, 8, 1), (8, 1, 8), (5, 5, 5),
                 (8, 8, 8)]


def matmul_operands(ring, rng):
    """Seeded payload operands (a, b, rows, k, n) for ``ring._matmul``: per
    shape a random pair, an all-zero left and right operand, and one whose
    entries reach the packing bound (all-(p-1) coefficients, or over Z
    entries past 2**64)."""
    if ring is Z:
        def entry(full):
            bits = 100 if full else rng.choice((4, 70))
            return rng.choice((-1, 1)) * rng.getrandbits(bits)
    else:
        p = ring.p

        def entry(full):
            n = 7 if full else rng.randint(0, 7)
            if full:
                return (p - 1,) * n
            return tuple(rng.randrange(p) for _ in range(n - 1)) + \
                ((rng.randrange(1, p),) if n else ())
    zero = ring._from_int(0)
    for r, k, n in MATMUL_SHAPES:
        rand = [entry(False) for _ in range(r * k)], \
            [entry(False) for _ in range(k * n)]
        full = [entry(True) for _ in range(r * k)], \
            [entry(True) for _ in range(k * n)]
        for a, b in (rand, full, ([zero] * (r * k), rand[1]),
                     (rand[0], [zero] * (k * n))):
            yield tuple(a), tuple(b), r, k, n


@pytest.mark.parametrize("ring", [Z] + [gf_polynomial_ring(p)
                                        for p in SWEEP_PRIMES],
                         ids=lambda r: r.name)
def test_matmul_matches_element_reference(ring, monkeypatch):
    loops = []  # products that fell back to the schoolbook loop
    monkeypatch.setattr(Ring, "_matmul",
                        _counting(vars(Ring)["_matmul"], loops))
    rng = random.Random(61)
    slotless = 0  # GF(p)[x] products with no slot for their coefficients
    for a, b, r, k, n in matmul_operands(ring, rng):
        before = len(loops)
        got = ring._matmul(a, b, r, k, n)
        want = ref.matmul(RingMatrix(ring, r, k, a), RingMatrix(ring, k, n, b))
        assert tuple(got) == want.payloads, (a, b)
        if ring is Z:
            assert all(type(e) is int for e in got)
            assert len(loops) == before
            continue
        assert all(type(e) is tuple and (not e or e[-1] != 0)
                   for e in got), got
        # the loop runs exactly when _KRONECKER_SLOTS (1 to 8 bytes) has no
        # slot for a sum of k*min(la, lb) terms of at most (p-1)**2: an
        # empty or all-zero operand, or a bound past 8 bytes
        la = max(map(len, a), default=0)
        lb = max(map(len, b), default=0)
        bound = k * min(la, lb) * (ring.p - 1) ** 2
        no_slot = bound == 0 or bound >= 2**64
        assert no_slot == (rings._KRONECKER_SLOTS.get(
            bound.bit_length() + 7 >> 3) is None)
        assert len(loops) - before == no_slot, (ring.p, r, k, n, la, lb)
        slotless += no_slot
    if ring is not Z:
        # both paths run: every ring has empty and all-zero products, and
        # only over 10**18+3 does every other product need a slot past 8 bytes
        total = 4 * len(MATMUL_SHAPES)
        assert slotless and (slotless == total) == (ring.p == 10**18 + 3)


def test_payload_primitives_stay_plain_functions(monkeypatch):
    # bench/tracing.py counts payload products and divisions by replacing
    # these class attributes with a plain function of (self, a, b): a
    # staticmethod or builtin would be called with one argument too many,
    # and a _mul that called self._mul would be counted twice
    for cls, names in ((Ring, ("_mul", "_divmod", "_xgcd")),
                       (IntegerRing, ("_mul", "_divmod")),
                       (GFPolynomialRing, ("_mul", "_divmod"))):
        for name in names:
            assert isinstance(vars(cls)[name], types.FunctionType), \
                (cls, name)
    rng = random.Random(53)
    a = tuple(rng.randrange(3) for _ in range(29)) + (1,)
    b = tuple(rng.randrange(3) for _ in range(29)) + (2,)
    for cls, ring, x, y, want in (
            (GFPolynomialRing, GF3, a, b, ref.gf_mul(3, a, b)),
            (GFPolynomialRing, GF3, a, (2,), ref.gf_mul(3, a, (2,))),
            (IntegerRing, Z, 6, -7, -42)):
        calls = []
        monkeypatch.setattr(cls, "_mul", _counting(vars(cls)["_mul"], calls))
        assert ring._mul(x, y) == want
        assert len(calls) == 1


def _counting(real, calls):
    def counting(*args):
        calls.append(args)
        return real(*args)
    return counting
