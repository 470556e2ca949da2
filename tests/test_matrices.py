"""Dense exact matrices: construction, arithmetic, determinants, kron."""

import pytest

from smithfact import (PreconditionError, RingElement, RingMatrix,
                       ValidationError, kron, smith)
from conftest import GF3, Z, z


def M(rows):
    return RingMatrix.from_rows(Z, rows)


def test_from_rows_and_entry():
    a = M([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    assert a.entry(0, 1) == z(2)
    assert a.row(1) == (z(3), z(4))
    assert a.column(0) == (z(1), z(3))


def test_ragged_rejected():
    with pytest.raises(ValidationError):
        M([[1, 2], [3]])


def test_constructors():
    assert RingMatrix.zeros(Z, 2, 3).is_zero
    eye = RingMatrix.identity(Z, 3)
    assert eye.entry(0, 0) == z(1) and eye.entry(0, 1) == Z.zero
    d = RingMatrix.diagonal(Z, [z(2), z(3)])
    assert d == M([[2, 0], [0, 3]])
    assert RingMatrix.diagonal(Z, [2, 3]) == d
    rect = RingMatrix.diagonal(Z, [z(5)], rows=2, cols=3)
    assert rect == M([[5, 0, 0], [0, 0, 0]])


def test_block_assembly():
    a, b = M([[1]]), M([[2]])
    za = RingMatrix.zeros(Z, 1, 1)
    blk = RingMatrix.block([[a, za], [za, b]])
    assert blk == M([[1, 0], [0, 2]])


def test_block_ragged_grid():
    a = M([[1]])
    for grid in ([[a, a], [a]], [[a], []], [[a], [a, a]]):
        with pytest.raises(ValidationError, match="ragged block grid"):
            RingMatrix.block(grid)


def test_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[5, 6], [7, 8]])
    assert a + b == M([[6, 8], [10, 12]])
    assert b - a == M([[4, 4], [4, 4]])
    assert -a == M([[-1, -2], [-3, -4]])
    assert a @ b == M([[19, 22], [43, 50]])
    assert a.scale(z(2)) == M([[2, 4], [6, 8]])


def test_matmul_shape_check():
    with pytest.raises(ValidationError):
        M([[1, 2]]) @ M([[1, 2]])


def test_transpose():
    assert M([[1, 2, 3]]).transpose() == M([[1], [2], [3]])


def test_det_small_and_fraction_free():
    assert M([[1, 2], [3, 4]]).det() == z(-2)
    assert M([[2, 0, 1], [1, 1, 0], [0, 3, 1]]).det() == z(5)
    # singular case exercises the zero-pivot path of the elimination
    assert M([[1, 2], [2, 4]]).det() == Z.zero
    assert M([[7]]).det() == z(7)


def test_det_gf():
    x = GF3.parse("x")
    a = RingMatrix.from_rows(GF3, [[x, GF3.one], [GF3.one, x]])
    assert a.det() == x * x - GF3.one


def test_det_requires_square():
    with pytest.raises(PreconditionError):
        M([[1, 2]]).det()


def test_unit_determinant():
    assert M([[1, 5], [0, -1]]).is_unit_determinant()
    assert not M([[2, 0], [0, 1]]).is_unit_determinant()


def test_kron_convention():
    # kron(a, b)[(i1*rb + i2), (j1*cb + j2)] = a[i1,j1] * b[i2,j2]
    a = M([[1, 2]])
    b = M([[3], [4]])
    k = kron(a, b)
    assert k.shape == (2, 2)
    assert k == M([[3, 6], [4, 8]])


def test_kron_mixed_product():
    a, b = M([[1, 2], [3, 4]]), M([[0, 1], [1, 0]])
    c, d = M([[2, 0], [1, 1]]), M([[1, 1], [0, 1]])
    assert kron(a @ c, b @ d) == kron(a, b) @ kron(c, d)


def test_str():
    a = M([[1, -2]])
    assert "1" in str(a) and "-2" in str(a)


# ---------------------------------------------------------------------------
# the element edge: entries are checked where elements come in, and the
# payload kernels build no elements


X = GF3.parse("x")
EYE_GF3 = RingMatrix.identity(GF3, 2)

MIXED_RING_CASES = {
    "from_rows": lambda: RingMatrix.from_rows(Z, [[1, X]]),
    "diagonal": lambda: RingMatrix.diagonal(Z, [z(1), X]),
    "scale": lambda: M([[1, 2]]).scale(X),
    "matmul": lambda: M([[1, 0], [0, 1]]) @ EYE_GF3,
    "add": lambda: M([[1, 0], [0, 1]]) + EYE_GF3,
    "sub": lambda: M([[1, 0], [0, 1]]) - EYE_GF3,
    "kron": lambda: kron(M([[1]]), EYE_GF3),
    "block": lambda: RingMatrix.block([[M([[1, 0], [0, 1]]), EYE_GF3]]),
}


@pytest.mark.parametrize("build", MIXED_RING_CASES.values(),
                         ids=MIXED_RING_CASES.keys())
def test_mixed_rings_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_non_element_entries_rejected():
    with pytest.raises(ValidationError):
        RingMatrix.from_rows(Z, [["3"]])
    with pytest.raises(ValidationError):
        RingMatrix.diagonal(Z, [1.5])


@pytest.fixture
def element_count(monkeypatch):
    """A list whose length is the number of RingElement.__init__ calls."""
    calls = []
    real = RingElement.__init__

    def counting(self, ring, payload):
        calls.append(payload)
        real(self, ring, payload)

    monkeypatch.setattr(RingElement, "__init__", counting)
    return calls


def test_smith_builds_only_the_invariant_factors(element_count):
    a = RingMatrix.diagonal(Z, [z(1), z(2), z(6)])
    element_count.clear()
    dec = smith(a)
    assert len(element_count) == 3
    assert [d.payload for d in dec.invariant_factors] == [1, 2, 6]


def test_payload_kernels_build_no_elements(element_count):
    a, b = M([[1, 2], [3, 4]]), M([[0, -1], [5, 7]])
    element_count.clear()
    a @ b
    kron(a, b)
    RingMatrix.block([[a, b], [b, a]])
    a.transpose()
    a + b
    -a
    assert element_count == []
