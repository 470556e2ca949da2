"""Payload kernels (smith, @, det, kron) against the element-level reference."""

import random
import sys

import pytest

import element_reference as ref
from smithfact import (PreconditionError, RingElement, RingMatrix, kron,
                       random_matrix, smith)
from smithfact.rings import BezoutCertificate, IntegerRing
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
    for a in sweep_inputs(ring, 41):
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


def test_det_refuses_an_inexact_bareiss_step(monkeypatch):
    # an off-by-one subtraction makes the step-two division by the first
    # pivot (2) inexact
    monkeypatch.setattr(IntegerRing, "_sub", lambda self, a, b: a - b + 1)
    with pytest.raises(PreconditionError, match="2 does not divide"):
        RingMatrix.from_rows(Z, [[2, 1, 0], [0, 1, 0], [0, 0, 1]]).det()
