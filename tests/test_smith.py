"""Normal form, minor-gcd oracle, kernels, cokernel presentations."""

import random
import sys

import pytest

from smithfact import (
    PreconditionError,
    LinearSolver,
    ModuleInvariants,
    RingMatrix,
    SmithDecomposition,
    ValidationError,
    conjugate_factorization,
    divides,
    determinantal_invariants,
    elementary_sum,
    hmf_hom,
    hom_differentials,
    image_cokernel_invariants,
    invariant_factors_via_delta,
    kernel_basis,
    normalize,
    random_matrix,
    smith,
    subquotient,
)
from conftest import GF3, GF5, Z, gf, z


def M(rows, ring=Z):
    return RingMatrix.from_rows(ring, rows)


def factors_of(a):
    return tuple(str(d) for d in smith(a).invariant_factors)


# ---------------------------------------------------------------------------
# worked examples


def test_smith_2x2_integer():
    a = M([[2, 4], [6, 8]])
    dec = smith(a)
    assert dec.verify(a)
    assert factors_of(a) == ("2", "4")


def test_smith_gf5():
    x = GF5.parse("x")
    a = RingMatrix.from_rows(GF5, [[x, x * x], [GF5.zero, x]])
    dec = smith(a)
    assert dec.verify(a)
    assert tuple(str(d) for d in dec.invariant_factors) == ("x", "x")


def test_smith_identity_and_zero():
    eye = RingMatrix.identity(Z, 3)
    dec = smith(eye)
    assert dec.verify(eye)
    assert factors_of(eye) == ("1", "1", "1")
    zero = RingMatrix.zeros(Z, 2, 3)
    dec = smith(zero)
    assert dec.rank == 0 and dec.invariant_factors == ()
    assert dec.verify(zero)


def _bumped(m, i, j):
    """m with 1 added to entry (i, j)."""
    entries = list(m.entries)
    entries[i * m.cols + j] = entries[i * m.cols + j] + 1
    return RingMatrix(m.ring, m.rows, m.cols, [e.payload for e in entries])


@pytest.mark.parametrize("ring", [Z, GF3], ids=lambda r: r.name)
def test_verify_rejects_tampered_certificates(ring):
    rng = random.Random(31)
    a = random_matrix(ring, rng, 3, 3, int_bound=9, max_degree=2)
    while smith(a).rank < 3:
        a = random_matrix(ring, rng, 3, 3, int_bound=9, max_degree=2)
    dec = smith(a)
    assert dec.verify(a)
    tampered = [
        dec._replace(U=_bumped(dec.U, 1, 0)),
        dec._replace(v_inv=_bumped(dec.v_inv, 0, 2)),
        # U*A = D*V still holds; V*v_inv = 2*I does not
        dec._replace(U=dec.U.scale(2), V=dec.V.scale(2)),
    ]
    for bad in tampered:
        assert not bad.verify(a)


def test_verify_rejects_non_unit_transforms_on_zero_matrix():
    # with A = 0 the product check U*A = D*V holds for any U and V
    zero = RingMatrix.zeros(Z, 2, 2)
    dec = smith(zero)
    assert dec.verify(zero)
    assert not dec._replace(V=dec.V.scale(2)).verify(zero)
    assert not dec._replace(U=dec.U.scale(2)).verify(zero)


def test_verify_rejects_non_chain_D():
    a = M([[2, 0], [0, 3]])
    eye = RingMatrix.identity(Z, 2)
    # U = V = I certifies A = D, but (2, 3) is not a divisibility chain
    not_chain = SmithDecomposition(U=eye, V=eye,
                                   invariant_factors=(z(2), z(3)), v_inv=eye)
    assert not_chain.D == a
    assert not not_chain.verify(a)
    # the true factors (1, 6), but U = V = I do not carry A to diag(1, 6)
    mismatched = not_chain._replace(invariant_factors=(z(1), z(6)))
    assert not mismatched.verify(a)
    assert smith(a).invariant_factors == (z(1), z(6))


def test_rank_and_D_are_read_from_the_chain():
    a = M([[2, 4, 4], [-6, 6, 12]])
    dec = smith(a)
    assert dec.rank == len(dec.invariant_factors) == 2
    assert dec.D == RingMatrix.diagonal(Z, dec.invariant_factors, 2, 3)
    assert dec.U @ a == dec.D @ dec.V


def test_verify_is_false_on_a_certificate_of_the_wrong_shape():
    a = M([[2, 0], [0, 3]])
    dec = smith(a)
    assert dec.verify(a)
    # U of the wrong size used to raise from the product U * A
    assert not dec._replace(U=RingMatrix.identity(Z, 3)).verify(a)
    assert not dec._replace(V=RingMatrix.identity(Z, 3)).verify(a)
    assert not dec._replace(v_inv=RingMatrix.identity(Z, 3)).verify(a)
    # a 2x3 decomposition checked against a 3x2 matrix
    b = M([[1, 2, 3], [4, 5, 6]])
    assert smith(b).verify(b)
    assert not smith(b).verify(b.transpose())
    # a chain longer than the matrix allows
    assert not dec._replace(invariant_factors=(z(1), z(1), z(6))).verify(a)
    # a certificate over another ring
    assert not smith(M([[2, 0], [0, 3]], GF3)).verify(a)


# verify proves U invertible from a right inverse when rank == rows and
# from det U when rank < rows; (rows, cols, rank) below cover rows - rank
# = 0, 1 and 2 or more
VERIFY_SHAPES = [(3, 3, 3), (2, 4, 2), (3, 5, 3), (1, 1, 1),
                 (4, 3, 3), (3, 3, 2), (4, 4, 3), (2, 2, 1),
                 (5, 3, 3), (4, 4, 2), (5, 4, 2), (3, 3, 0)]
NON_UNITS = {Z: ("2", "3", "6"), GF3: ("x", "x + 1", "x^2 + 1")}


def _of_rank(ring, rng, rows, cols, rank):
    """rows x cols, a product through rank columns: rank at most ``rank``."""
    bounds = {"int_bound": 9} if ring is Z else {"max_degree": 2}
    return (random_matrix(ring, rng, rows, rank, **bounds)
            @ random_matrix(ring, rng, rank, cols, **bounds))


def _scale_row(m, k, c):
    """m with row k multiplied by c."""
    return RingMatrix.from_rows(m.ring, [[c * e for e in m.row(i)] if i == k
                                         else m.row(i) for i in range(m.rows)])


def _equations_hold(dec, a):
    """Everything verify checks except that U is invertible."""
    chain = dec.invariant_factors
    return (dec.U @ a == dec.D @ dec.V
            and dec.V @ dec.v_inv == RingMatrix.identity(a.ring, a.cols)
            and all(normalize(d).canonical == d and not d.is_zero
                    for d in chain)
            and all(divides(chain[i], chain[i + 1])
                    for i in range(len(chain) - 1)))


def _singular_twins(dec, c):
    """Certificates that keep every equation but whose U has det U * c:
    row k of U and d_k times c (where the chain survives), or a row of U
    past the rank times c."""
    chain, r = dec.invariant_factors, dec.rank
    for k in range(r):
        scaled = chain[:k] + (c * chain[k],) + chain[k + 1:]
        if k == r - 1 or divides(scaled[k], scaled[k + 1]):
            yield dec._replace(U=_scale_row(dec.U, k, c),
                               invariant_factors=scaled)
    for k in range(r, dec.U.rows):
        yield dec._replace(U=_scale_row(dec.U, k, c))


@pytest.mark.parametrize("ring", [Z, GF3], ids=lambda r: r.name)
def test_verify_refuses_a_singular_U_that_keeps_the_equations(ring):
    rng = random.Random(67)
    refused, deficits = {"full": 0, "deficient": 0}, set()
    for rows, cols, rank in VERIFY_SHAPES:
        for _ in range(12):
            a = _of_rank(ring, rng, rows, cols, rank)
            dec = smith(a)
            deficits.add(min(rows - dec.rank, 2))
            # on a valid certificate the new check agrees with det U
            assert dec.verify(a) is True
            assert dec.U.is_unit_determinant()
            c = ring.parse(rng.choice(NON_UNITS[ring]))
            for bad in _singular_twins(dec, c):
                assert _equations_hold(bad, a)
                assert not bad.U.is_unit_determinant()
                assert bad.verify(a) is False
                refused["full" if dec.rank == rows else "deficient"] += 1
    assert deficits == {0, 1, 2}
    assert min(refused.values()) >= 40, refused


@pytest.mark.parametrize("ring", [Z, GF3], ids=lambda r: r.name)
def test_verify_computes_det_U_only_when_rank_is_below_rows(ring,
                                                            monkeypatch):
    rng = random.Random(71)
    calls = []
    real = RingMatrix.det

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(RingMatrix, "det", counting)
    paths = set()
    for rows, cols, rank in VERIFY_SHAPES:
        a = _of_rank(ring, rng, rows, cols, rank)
        dec = smith(a)
        calls.clear()
        assert dec.verify(a) is True
        paths.add(dec.rank == rows)
        assert calls == ([] if dec.rank == rows else [(rows, rows)])
    assert paths == {True, False}


def test_smith_diagonal_with_zero():
    a = M([[3, 0, 0], [0, 6, 0], [0, 0, 0]])
    assert factors_of(a) == ("3", "6")


def test_smith_merges_coprime_diagonal():
    a = M([[2, 0], [0, 3]])
    assert factors_of(a) == ("1", "6")


def test_smith_negative_entries_canonicalized():
    a = M([[-2, 0], [0, -4]])
    assert factors_of(a) == ("2", "4")


def test_smith_regression_unit_pivot_cycle():
    # This matrix once sent the elimination into a two-state cycle: with a
    # unit pivot, non-trivial Bezout blocks for divisible pairs kept mixing
    # the pivot row back into cleared columns.  Kept as a termination guard.
    a = M([[-10, -12, -5], [-2, 1, -17], [-18, 10, 6]])
    dec = smith(a)
    assert dec.verify(a)
    assert factors_of(a) == ("1", "1", "5566")
    assert invariant_factors_via_delta(a) == dec.invariant_factors


def test_minor_oracle_examples():
    a = M([[2, 4], [6, 8]])
    inv = determinantal_invariants(a)
    # delta_1 = gcd of entries = 2, delta_2 = |det| = 8
    assert tuple(str(d) for d in inv.delta) == ("1", "2", "8")
    assert tuple(str(d) for d in invariant_factors_via_delta(a)) == ("2", "4")
    assert invariant_factors_via_delta(a) == smith(a).invariant_factors


def test_minor_oracle_refuses_above_cap():
    rng = random.Random(3)
    a = random_matrix(Z, rng, 6, 6, int_bound=4)
    with pytest.raises(PreconditionError):
        determinantal_invariants(a)
    with pytest.raises(PreconditionError):
        invariant_factors_via_delta(a)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_examples():
    # injective map: trivial kernel
    a = M([[2]])
    assert kernel_basis(a).shape == (1, 0)
    # row (1 1): kernel spanned by (1, -1) up to sign
    a = M([[1, 1]])
    k = kernel_basis(a)
    assert k.shape == (2, 1)
    assert (a @ k).is_zero
    assert not k.column(0) == (Z.zero, Z.zero)
    # zero map: full kernel
    a = RingMatrix.zeros(Z, 2, 2)
    k = kernel_basis(a)
    assert k.shape == (2, 2) and k.is_unit_determinant()


def test_kernel_columns_annihilate(ring_and_bounds):
    ring, bounds = ring_and_bounds
    rng = random.Random(11)
    for _ in range(25):
        a = random_matrix(ring, rng, rng.randint(1, 4), rng.randint(1, 4), **bounds)
        k = kernel_basis(a)
        assert (a @ k).is_zero
        assert k.shape == (a.cols, a.cols - smith(a).rank)


# ---------------------------------------------------------------------------
# linear systems


def test_linear_solver_matrix():
    a = M([[2, 0], [0, 3]])
    b = M([[4], [9]])
    x = LinearSolver(a).solve_matrix(b)
    assert x is not None and a @ x == b


def test_linear_solver_no_solution():
    a = M([[2]])
    b = M([[3]])
    assert LinearSolver(a).solve_matrix(b) is None


def test_linear_solver_refuses_a_non_zero_row_past_the_rank():
    # U * b has a non-zero row where D is zero: no division is tried
    a = M([[2], [0]])
    solver = LinearSolver(a)
    assert solver.solve_matrix(M([[2], [1]])) is None
    assert solver.solve_matrix(M([[2], [0]])) == M([[1]])


def test_linear_solver_refuses_the_wrong_height():
    with pytest.raises(ValidationError, match="wrong height"):
        LinearSolver(M([[2], [0]])).solve_matrix(M([[2]]))


def test_linear_solver_vector():
    a = M([[1, 2], [3, 4]])
    sol = LinearSolver(a).solve_vector([z(5), z(11)])
    assert sol is not None
    assert a @ RingMatrix(Z, 2, 1, [e.payload for e in sol]) == M([[5], [11]])


# ---------------------------------------------------------------------------
# cokernel presentations


def test_image_cokernel():
    m = image_cokernel_invariants(M([[2, 0], [0, 3]]))
    assert str(m) in ("R/(6)", "Z/6") or m.torsion_factors == (z(6),)
    m = image_cokernel_invariants(M([[1, 0], [0, 1]]))
    assert m.is_zero
    m = image_cokernel_invariants(RingMatrix.zeros(Z, 2, 2))
    assert m.free_rank == 2 and m.torsion_factors == ()


@pytest.mark.parametrize("ring, factors, want", [
    (Z, [], "0"),
    (Z, [1, 6], "R/<6>"),
    (Z, [0], "R"),
    (Z, [0, 0], "R^2"),
    (Z, [2, 6, 0, 0], "R/<2> + R/<6> + R^2"),
    (GF3, ["x", "0"], "R/<x> + R"),
], ids=["zero", "cyclic", "R", "R^2", "mixed", "GF3"])
def test_module_invariants_text(ring, factors, want):
    factors = [ring.parse(str(f)) for f in factors]
    assert str(ModuleInvariants.build(ring, factors)) == want


def test_module_invariants_refuse_factors_that_are_not_a_chain():
    with pytest.raises(ValidationError, match="do not form a chain"):
        ModuleInvariants.build(Z, [z(2), z(3)])


def test_subquotient_smoke():
    # ker(0)/im(diag(2,3)) = Z^2 / (2Z + 3Z) = Z/6 after merging
    outer = RingMatrix.zeros(Z, 2, 2)
    inner = M([[2, 0], [0, 3]])
    sq = subquotient(outer, inner)
    assert sq.invariants.torsion_factors == (z(6),)
    assert sq.invariants.free_rank == 0


def test_subquotient_precondition():
    with pytest.raises(PreconditionError):
        subquotient(RingMatrix.identity(Z, 2), M([[2, 0], [0, 3]]))


def test_subquotient_precondition_partial_rank():
    # rank-one outer: ker = span (1, -1); the first column of inner lies in
    # it, the second does not
    outer = M([[1, 1], [2, 2]])
    with pytest.raises(PreconditionError):
        subquotient(outer, M([[1, 1], [-1, 0]]))
    sq = subquotient(outer, M([[2], [-2]]))
    assert sq.invariants.torsion_factors == (z(2),)
    assert sq.invariants.free_rank == 0


# ---------------------------------------------------------------------------
# subquotient against the three-Smith route it replaced


def three_smith_subquotient(outer, inner):
    """Kernel basis, a solve in that basis, then Smith of the relations."""
    assert (outer @ inner).is_zero
    gens = kernel_basis(outer)
    rel = LinearSolver(gens).solve_matrix(inner)
    assert rel is not None
    dec = smith(rel)
    factors = list(dec.invariant_factors) + \
        [outer.ring.zero] * (gens.cols - dec.rank)
    return gens, rel, ModuleInvariants.build(outer.ring, factors)


def hom_pairs(W, divisors, seed, count):
    """Seeded pairs of conjugated sums of one to three elementary objects."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = (conjugate_factorization(
            elementary_sum(W, rng.choices(divisors, k=rng.randint(1, 3))), rng)
            for _ in range(2))
        yield hom_differentials(a, b)


def _gf3_case():
    x, y = gf(GF3, "x"), gf(GF3, "x+1")
    return x ** 3 * y ** 2, [x, x ** 2, y, x * y, x ** 2 * y, x * y ** 2]


ORACLE_CASES = [
    (z(360), [z(d) for d in (2, 3, 4, 6, 12, 30, 60, 120)], 5),
    (*_gf3_case(), 6),
]


@pytest.mark.parametrize("W, divisors, seed", ORACLE_CASES, ids=["Z", "GF3"])
def test_subquotient_matches_three_smith_oracle(W, divisors, seed):
    for d_even, d_odd in hom_pairs(W, divisors, seed, 6):
        for outer, inner in ((d_even, d_odd), (d_odd, d_even)):
            sq = subquotient(outer, inner)
            gens, rel, inv = three_smith_subquotient(outer, inner)
            assert sq.generators == gens
            assert sq.relations == rel
            assert sq.invariants == inv


def test_hmf_hom_runs_two_smith_decompositions(monkeypatch):
    # the package attribute smithfact.smith is the function; the module
    # that subquotient looks smith up in is only reachable via sys.modules
    module = sys.modules["smithfact.smith"]
    classify = sys.modules["smithfact.classify"]
    calls, subquotients = [], []
    real, real_sq = module.smith, classify.subquotient

    def counting(a):
        calls.append(a.shape)
        return real(a)

    def counting_sq(outer, inner):
        subquotients.append(outer.shape)
        return real_sq(outer, inner)

    monkeypatch.setattr(module, "smith", counting)
    monkeypatch.setattr(classify, "smith", counting)
    monkeypatch.setattr(classify, "subquotient", counting_sq)
    W = z(360)
    a, b = (elementary_sum(W, [z(d) for d in ds])
            for ds in ((2, 12), (6, 60, 4)))
    hmf_hom(a, b)
    assert len(calls) == 2 and len(subquotients) == 1


# ---------------------------------------------------------------------------
# randomized agreement with the minor oracle


def test_random_smith_vs_minor_oracle(ring_and_bounds):
    ring, bounds = ring_and_bounds
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(ring, rng, rows, cols, **bounds)
        dec = smith(a)
        assert dec.verify(a)
        oracle = invariant_factors_via_delta(a)
        assert dec.invariant_factors == oracle
