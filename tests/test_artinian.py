"""Artinian quotient-ring module calculus and AR quivers."""

import pathlib
import sys

import pytest

from smithfact import (
    ARQuiver,
    ValidationError,
    CyclicDecomposition,
    LambdaContext,
    PreconditionError,
    ar_quiver,
    ar_sequence,
    cok_crosscheck,
    decompose_module,
    delta,
    generation_steps,
    gf_polynomial_ring,
    hom_cyclic,
    hom_module,
    mu,
    quiver_dot,
    quotient,
    serre_identity,
    stable_hom,
    syzygy,
)
from conftest import GF3, Z, z

GOLDEN = pathlib.Path(__file__).parent / "golden"


def ctx_for(n, p=2):
    return LambdaContext(Z.from_int(p), n)


# ---------------------------------------------------------------------------
# context


def test_context_validation():
    ctx = ctx_for(4)
    assert ctx.modulus == z(16)
    with pytest.raises(ValidationError):
        LambdaContext(z(2), 1)
    with pytest.raises(ValidationError):
        LambdaContext(z(6), 3)
    with pytest.raises(ValidationError):
        LambdaContext(Z.zero, 2)


def test_context_canonicalizes_prime():
    ctx = LambdaContext(z(-3), 2)
    assert ctx.p == z(3)


def test_context_gf():
    x = GF3.parse("x")
    ctx = LambdaContext(x, 3)
    assert ctx.modulus == x * x * x


# ---------------------------------------------------------------------------
# delta and mu


def test_delta_values():
    assert [delta(5, i) for i in range(6)] == [0, 1, 2, 2, 1, 0]
    assert delta(6, 3) == 3


def test_mu_values():
    assert mu(5, 2, 2) == 2
    assert mu(5, 3, 4) == 1
    assert mu(5, 2, 4) == 1
    for i in range(6):
        assert mu(5, i, 5) == 0


def test_mu_range_check():
    with pytest.raises(PreconditionError):
        mu(5, 6, 1)
    with pytest.raises(PreconditionError):
        delta(5, -1)


def test_mu_identities_small():
    for n in range(2, 12):
        for i in range(n + 1):
            assert delta(n, i) == delta(n, n - i)
            for j in range(n + 1):
                assert mu(n, i, j) == mu(n, j, i)
                assert mu(n, i, j) == mu(n, n - i, j) == mu(n, i, n - j)


# ---------------------------------------------------------------------------
# hom formulas


def test_hom_module():
    ctx = ctx_for(6)
    assert hom_module(ctx, 3, 5) == 3
    assert hom_module(ctx, 4, 6) == 4
    assert hom_module(ctx, 0, 3) == 0


def test_stable_hom():
    assert stable_hom(ctx_for(5), 2, 4) == 1
    assert stable_hom(ctx_for(4), 2, 2) == 2
    ctx = ctx_for(7)
    for i in range(1, 7):
        for j in range(1, 7):
            assert stable_hom(ctx, i, j) == stable_hom(ctx, j, i)


def test_stable_hom_range():
    with pytest.raises(PreconditionError):
        stable_hom(ctx_for(5), 0, 1)
    with pytest.raises(PreconditionError):
        stable_hom(ctx_for(5), 1, 5)


def test_hom_cyclic():
    assert hom_cyclic(z(4), z(6), z(12)) == z(2)
    assert hom_cyclic(z(4), z(4), z(8)) == z(4)
    assert hom_cyclic(z(1), z(6), z(12)) == z(1)
    with pytest.raises(PreconditionError):
        hom_cyclic(z(5), z(6), z(12))


# ---------------------------------------------------------------------------
# syzygies and quotients


def test_syzygy():
    ctx = ctx_for(5)
    assert syzygy(ctx, 2) == 3
    for i in range(1, 5):
        assert syzygy(ctx, syzygy(ctx, i)) == i
    assert syzygy(ctx, 5) == 0


def test_quotient():
    ctx = ctx_for(5)
    assert quotient(ctx, 3, 0) == 3
    assert quotient(ctx, 4, 1) == 3
    with pytest.raises(PreconditionError):
        quotient(ctx, 1, 3)


# ---------------------------------------------------------------------------
# cyclic decompositions


def test_decompose_module():
    ctx = ctx_for(3)
    p = z(2)
    dec = decompose_module(ctx, [p * p, p, p * p])
    assert dec.counts() == {1: 1, 2: 2}
    assert str(dec) == "V_1 + V_2^2"


def test_decompose_module_drops_units_and_empty():
    ctx = ctx_for(3)
    dec = decompose_module(ctx, [])
    assert dec.length() == 0
    dec = decompose_module(ctx, [z(1)])
    assert dec.counts() == {}


def test_decompose_module_full_exponent():
    ctx = ctx_for(3)
    dec = decompose_module(ctx, [z(8)])
    assert dec.counts() == {3: 1}


def test_decompose_module_rejects_foreign():
    ctx = ctx_for(3)
    with pytest.raises(PreconditionError):
        decompose_module(ctx, [z(16)])
    with pytest.raises(PreconditionError):
        decompose_module(ctx, [z(6)])


def test_decompose_module_stops_dividing_past_n(monkeypatch):
    # every power of p divides 0, so division must stop once the exponent
    # passes n; the call cap turns a loop that never ends into a failure
    x = GF3.parse("x")
    for ctx, anns in ((ctx_for(3), (Z.zero, z(2) ** 1000)),
                      (LambdaContext(x, 3), (GF3.zero, x ** 1000))):
        calls = []
        real = ctx.p.ring._divmod

        def counting(a, b, real=real, calls=calls):
            calls.append(1)
            assert len(calls) < 100, "division does not stop"
            return real(a, b)

        monkeypatch.setattr(ctx.p.ring, "_divmod", counting, raising=False)
        for ann in anns:
            calls.clear()
            with pytest.raises(PreconditionError,
                               match="exponent 4 exceeds n = 3"):
                decompose_module(ctx, [ann])
            assert len(calls) == 4


def test_cyclic_decomposition_from_counts():
    ctx = ctx_for(4)
    dec = CyclicDecomposition.from_counts(ctx, {2: 1, 1: 3})
    assert dec.mult == ((1, 3), (2, 1))
    assert dec.length() == 3 * 1 + 1 * 2


# ---------------------------------------------------------------------------
# AR sequences


def test_ar_sequence_generic():
    ctx = ctx_for(5)
    seq = ar_sequence(ctx, 2)
    assert seq.left == 2 and seq.right == 2
    assert seq.middle.counts() == {1: 1, 3: 1}


def test_ar_sequence_edges():
    ctx = ctx_for(5)
    assert ar_sequence(ctx, 1).middle.counts() == {2: 1}
    assert ar_sequence(ctx, 4).middle.counts() == {3: 1, 5: 1}
    with pytest.raises(PreconditionError):
        ar_sequence(ctx, 5)


def test_ar_sequence_length_additivity():
    for n in (2, 3, 5, 8):
        ctx = ctx_for(n)
        for i in range(1, n):
            seq = ar_sequence(ctx, i)
            assert seq.left + seq.right == seq.middle.length()


# ---------------------------------------------------------------------------
# AR quivers


def test_module_quiver_n5():
    q = ar_quiver(ctx_for(5))
    assert q.vertices == (1, 2, 3, 4, 5)
    assert len(q.arrows) == 8
    assert q.projectives == (5,)
    assert q.valuation(1, 2) == (1, 1)
    tau = q.translation_map()
    assert tau[5] is None
    assert all(tau[i] == i for i in range(1, 5))


def test_stable_quiver_n5():
    q = ar_quiver(ctx_for(5), stable=True)
    assert q.vertices == (1, 2, 3, 4)
    assert len(q.arrows) == 6
    assert q.projectives == ()
    assert all(q.translation_map()[i] == i for i in range(1, 5))


def test_stable_quiver_n2_single_vertex():
    q = ar_quiver(ctx_for(2), stable=True)
    assert q.vertices == (1,)
    assert q.arrows == ()


def test_quiver_arrows_nearest_neighbor():
    q = ar_quiver(ctx_for(6))
    ups = {(a, b) for a, b in q.arrows if b == a + 1}
    downs = {(a, b) for a, b in q.arrows if b == a - 1}
    assert len(ups) == 5 and len(downs) == 5
    assert len(q.arrows) == 10


def test_quiver_dot_matches_golden():
    ctx = ctx_for(5)
    want = (GOLDEN / "ar_quiver_module_n5.dot").read_text()
    assert quiver_dot(ar_quiver(ctx)) == want
    want = (GOLDEN / "ar_quiver_stable_n5.dot").read_text()
    assert quiver_dot(ar_quiver(ctx, stable=True)) == want


# ---------------------------------------------------------------------------
# structural checks


def test_serre_identity():
    for n in (2, 3, 5, 11):
        assert serre_identity(ctx_for(n))


def test_generation_steps():
    for n in range(2, 12):
        assert generation_steps(ctx_for(n)) == n - 2


def test_cok_crosscheck_integer():
    assert cok_crosscheck(ctx_for(4))
    assert cok_crosscheck(ctx_for(2))


def test_cok_crosscheck_gf():
    x = GF3.parse("x")
    assert cok_crosscheck(LambdaContext(x, 3))


@pytest.mark.parametrize("ctx", [ctx_for(6), ctx_for(3, p=3),
                                 LambdaContext(GF3.parse("x"), 3)],
                         ids=["2^6", "3^3", "x^3"])
def test_cok_crosscheck_factors_once(ctx, monkeypatch):
    rings, classify = (sys.modules[f"smithfact.{m}"]
                       for m in ("rings", "classify"))
    real, calls = rings.factorize, []

    def counting(a):
        calls.append(a)
        return real(a)

    for module in (rings, classify):
        monkeypatch.setattr(module, "factorize", counting)
    assert cok_crosscheck(ctx)
    assert calls == [ctx.modulus]
