"""Acceptance gate: the eleven primary criteria, one printed line each.

Each test prints a single PASS line (with scale and timing) straight to the
terminal, bypassing capture, so a verbose run shows the full scorecard.
Budgets that the contract states are asserted; the others are reported only.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from smithfact import (
    LambdaContext,
    ar_quiver,
    cone,
    cone_split,
    conjugate_factorization,
    critical_decompose,
    critical_ideal_generator,
    delta,
    divides,
    elementary,
    elementary_morphism,
    elementary_sum,
    factorize,
    gf_polynomial_ring,
    hmf_hom,
    invariant_factors_via_delta,
    is_iso,
    is_zero_object,
    mu,
    primary_decompose,
    primary_test_objects,
    quiver_dot,
    random_label_multiset,
    random_matrix,
    smith,
    strong_decompose,
    RingMatrix,
    ZZ,
)

from hom_reference import is_iso_by_induced_homs

GF3 = gf_polynomial_ring(3)
GF5 = gf_polynomial_ring(5)
GOLDEN = Path(__file__).parent / "golden"


def report(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


def z(n: int):
    return ZZ.from_int(n)


def all_divisors(W):
    """Canonical divisors of W, ascending by canonical order."""
    fac = factorize(W)
    divs = [W.ring.one]
    for p, e in fac.factors:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs, key=lambda d: d.sort_key())


# the shared grids
STRONG_WS = [
    z(12), z(36), z(360), z(32),
    GF3.parse("x") ** 4 * GF3.parse("x+1") ** 2,
]
CONE_WS = [z(12), z(360), z(32)]


def test_criterion_01_snf_correctness(capsys):
    rng = random.Random(20260819)
    grids = [(ZZ, {"int_bound": 50}), (GF3, {"max_degree": 4}),
             (GF5, {"max_degree": 4})]
    start = time.perf_counter()
    total = 0
    for ring, bounds in grids:
        for _ in range(1000):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(ring, rng, rows, cols, **bounds)
            dec = smith(a)
            assert dec.verify(a), f"verification failed on {a!r}"
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(capsys, f"[criterion 1] SNF correctness: PASS "
                   f"({total} matrices across 3 rings, {elapsed:.1f}s)")


def test_criterion_02_minor_gcd_oracle(capsys):
    rng = random.Random(977)
    grids = [(ZZ, {"int_bound": 50}), (GF3, {"max_degree": 4}),
             (GF5, {"max_degree": 4})]
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for ring, bounds in grids:
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(ring, rng, rows, cols, **bounds)
            if smith(a).invariant_factors != invariant_factors_via_delta(a):
                mismatches += 1
            total += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    report(capsys, f"[criterion 2] minor-gcd oracle agreement: PASS "
                   f"({total} matrices <=5x5, 0 mismatches, {elapsed:.1f}s)")


def test_criterion_03_strong_classification_round_trip(capsys):
    rng = random.Random(31337)
    start = time.perf_counter()
    total = 0
    for W in STRONG_WS:
        divisors = all_divisors(W)
        for _ in range(40):
            picks = [rng.choice(divisors)
                     for _ in range(rng.randint(1, 3))]
            base = elementary_sum(W, picks)
            expected = smith(base.v).invariant_factors
            twin = conjugate_factorization(base, rng)
            sd = strong_decompose(twin)
            assert sd.factors == expected
            assert sd.witness_holds(twin)
            total += 1
    elapsed = time.perf_counter() - start
    assert total >= 200
    report(capsys, f"[criterion 3] strong-iso invariant recovery: PASS "
                   f"({total} conjugated objects, witness verified, "
                   f"{elapsed:.1f}s)")


def _cone_grid(W):
    divisors = all_divisors(W)
    residues = residue_system(W)
    for v1, v2 in itertools.product(divisors, repeat=2):
        src, dst = elementary(v1, W), elementary(v2, W)
        for r in residues:
            yield elementary_morphism(src, dst, r)


def residue_system(W):
    ring = W.ring
    if ring is ZZ:
        return [ring.from_int(k) for k in range(int(str(W)))]
    # GF(p)[x]: all polynomials of degree < deg(W), a full system mod W
    x = ring.parse("x")
    degree = len(W.payload) - 1
    out = []
    for coeffs in itertools.product(range(ring.p), repeat=degree):
        out.append(sum((ring.from_int(c) * x ** i
                        for i, c in enumerate(coeffs)), ring.zero))
    return out


@pytest.mark.slow
def test_criterion_04_cone_split_formula(capsys):
    start = time.perf_counter()
    total = 0
    for W in CONE_WS:
        for f in _cone_grid(W):
            xi, zeta = cone_split(f)
            got = smith(cone(f).u).invariant_factors
            assert got == (xi, zeta), (
                f"cone of r={f.f00!r}: split gave ({xi}, {zeta}), "
                f"normal form gave {got}")
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"budget exceeded: {elapsed:.1f}s"
    report(capsys, f"[criterion 4] cone-splitting pair vs normal form: PASS "
                   f"({total} cones exhaustive, 0 mismatches, {elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_05_iso_criterion_agreement(capsys):
    start = time.perf_counter()
    total = 0
    for W in CONE_WS:
        for f in _cone_grid(W):
            assert is_iso(f) == is_zero_object(cone(f))
            total += 1
    # induced-hom probe: exhaustive on the two small W, subsampled on 360
    probed = 0
    for W in CONE_WS:
        cd = critical_decompose(W)
        tests = primary_test_objects(cd)
        big = int(str(W)) if W.ring is ZZ else 0
        rng = random.Random(5150)
        for f in _cone_grid(W):
            if big > 100 and rng.random() > 0.01:
                continue
            assert is_iso(f) == is_iso_by_induced_homs(f, tests)
            probed += 1
    elapsed = time.perf_counter() - start
    report(capsys, f"[criterion 5] iso criterion agreement: PASS "
                   f"({total} cones vs zero-object test, {probed} vs "
                   f"induced-hom probe, {elapsed:.1f}s)")


def test_criterion_06_hom_closed_forms(capsys):
    start = time.perf_counter()
    primes = [z(2), z(3), z(5), GF3.parse("x")]
    checked = 0
    for p in primes:
        for n in range(2, 7):
            W = p ** n
            for i in range(1, n):
                for j in range(1, n):
                    h = hmf_hom(elementary(p ** i, W), elementary(p ** j, W))
                    m = mu(n, i, j)
                    want = (p ** m,) if m else ()
                    got = h.even.cyclic_factors
                    assert got == want, (p, n, i, j, got, want)
                    assert h.even.free_rank == 0
                    checked += 1
    elapsed = time.perf_counter() - start
    report(capsys, f"[criterion 6] primary hom closed forms: PASS "
                   f"({checked} pairs over 4 primes, n=2..6, {elapsed:.1f}s)")


def test_criterion_07_orthogonality(capsys):
    start = time.perf_counter()
    ws = [z(360), GF3.parse("x") ** 2 * GF3.parse("x+1") ** 3]
    checked = 0
    for W in ws:
        cd = critical_decompose(W)
        for (p, np_), (q, nq) in itertools.permutations(cd.critical, 2):
            for i in range(1, np_):
                for j in range(1, nq):
                    h = hmf_hom(elementary(p ** i, W), elementary(q ** j, W))
                    assert h.even.is_zero
                    checked += 1
    elapsed = time.perf_counter() - start
    report(capsys, f"[criterion 7] cross-prime hom orthogonality: PASS "
                   f"({checked} pairs over 2 potentials, {elapsed:.1f}s)")


def test_criterion_08_index_identities(capsys):
    start = time.perf_counter()
    checked = 0
    for n in range(2, 51):
        for i in range(n + 1):
            assert delta(n, i) == delta(n, n - i)
            for j in range(n + 1):
                m = mu(n, i, j)
                assert m == mu(n, j, i)
                assert m == mu(n, n - i, j) == mu(n, i, n - j)
                checked += 1
            assert mu(n, i, n) == 0
        assert delta(n, n) == 0
        for i in range(1, n):
            for j in range(1, n):
                assert mu(n, i, j) == mu(n, j, n - i)
    elapsed = time.perf_counter() - start
    assert elapsed <= 1.0, f"budget exceeded: {elapsed:.2f}s"
    report(capsys, f"[criterion 8] index identity suite n<=50: PASS "
                   f"({checked} triples, {elapsed:.2f}s)")


def test_criterion_09_quiver_goldens(capsys):
    ctx = LambdaContext(z(2), 5)
    q_mod = ar_quiver(ctx)
    q_st = ar_quiver(ctx, stable=True)
    assert len(q_mod.vertices) == 5 and len(q_st.vertices) == 4
    assert len(q_mod.arrows) == 8 and len(q_st.arrows) == 6
    for a, b in q_mod.arrows:
        assert abs(a - b) == 1
    tau = q_mod.translation_map()
    assert tau[5] is None and all(tau[i] == i for i in range(1, 5))
    assert all(t == i for i, t in q_st.translation)
    assert quiver_dot(q_mod) == (GOLDEN / "ar_quiver_module_n5.dot").read_text()
    assert quiver_dot(q_st) == (GOLDEN / "ar_quiver_stable_n5.dot").read_text()
    report(capsys, "[criterion 9] AR quiver structure and golden DOT: PASS "
                   "(module n=5: 5 vertices/8 arrows, stable: 4/6)")


def test_criterion_10_critical_ideal_annihilation(capsys):
    start = time.perf_counter()
    ws = [z(360), z(216), GF3.parse("x") ** 2 * GF3.parse("x+1") ** 3]
    violations = 0
    checked = 0
    for W in ws:
        g = critical_ideal_generator(critical_decompose(W))
        divisors = all_divisors(W)
        for v1, v2 in itertools.product(divisors, repeat=2):
            h = hmf_hom(elementary(v1, W), elementary(v2, W))
            for module in (h.even, h.odd):
                if module.free_rank != 0:
                    violations += 1
                for d in module.cyclic_factors:
                    if not divides(d, g):
                        violations += 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    report(capsys, f"[criterion 10] critical-ideal annihilation: PASS "
                   f"({checked} divisor pairs, 0 violations, {elapsed:.1f}s)")


def test_criterion_11_label_multiset_round_trip(capsys):
    start = time.perf_counter()
    rng = random.Random(60601)
    total = 0
    for W in STRONG_WS:
        cd = critical_decompose(W)
        for _ in range(500):
            labels = random_label_multiset(cd, rng)
            a = elementary_sum(W, [p ** i for p, i in labels])
            twin = conjugate_factorization(a, rng)
            got = primary_decompose(twin, cd).labels
            want = tuple(sorted(labels, key=lambda t: (t[0].sort_key(), t[1])))
            assert got == want
            total += 1
    elapsed = time.perf_counter() - start
    report(capsys, f"[criterion 11] Krull-Schmidt label round trip: PASS "
                   f"({total} multisets, 100% recovered, {elapsed:.1f}s)")
