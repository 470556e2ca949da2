"""Isomorphism classification of matrix factorizations.

Two layers of classification are computed exactly.  The strict layer
(conjugation by unit-determinant block transforms) is decided by the Smith
invariant factors of the v block, with the diagonalizing transform returned
as a witness.  The homotopy layer is decided by Krull-Schmidt data: each
object decomposes against the critical primes of W into primary elementary
pieces e_{p^i}, and the multiset of labels (p, i) with 1 <= i < n_p is a
complete invariant.  Both layers are read from one Smith decomposition of
v: the strong factors d_i make the object strongly isomorphic to the sum of
the e_{d_i}, whose class ``MfClass.from_divisors`` reads off.  A validated
object already guarantees what the strong layer needs (full rank, each d_i
dividing W, the u half of the witness); the proofs are in the docstrings
of ``strong_decompose`` and ``StrongDecomposition.witness_holds``.

Every reader of the strong factors that returns no witness
(``strong_factors``, ``is_zero_object``, ``strong_iso``,
``primary_decompose``) goes through ``_strong_factors``, which computes
them at most once per object and keeps them on it; ``strong_decompose``
stores the factors of its own Smith call there too.  Rank <= 2 needs no
Smith call: the factors are d1 = gcd of v's entries and d2 = det(v) / d1,
the quotients of consecutive determinantal divisors.

Whether an object is zero is read from the same factors
(``is_zero_object``): e_d is zero exactly when gcd(d, W/d) is a unit, a
test symmetric in d and W/d.  With U * v = D * V, u = W * v^-1 gives
V * u * U^-1 = W * D^-1 = diag(W/d_i), so the u block's invariant factors
are the W/d_i; the suspension (W, -v, -u) swaps the blocks, so the
suspension's strong factors are the object's u-block factors.
``elementary_sum`` is the one builder of the diagonal objects diag(W/d),
diag(d), normal forms included.  Hom modules in the homotopy category are
computed from the even degree's cocycle/boundary subquotient, never from
assumed closed forms; the odd module's invariants are read off the same
Smith forms (``hmf_hom``).

The strong-factor readers, ``cone_split`` and ``is_iso`` compute on raw
payloads with the ring's ``_gcd``, ``_divmod``, ``_mul`` and
``_canonical_unit``, and wrap only what they return.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError, ValidationError
from .factorizations import (MatrixFactorization, MfMorphism, elementary,
                             hom_differentials)
from .matrices import RingMatrix
from .rings import (RingElement, _not_dividing, _valuation, exact_div,
                    factorize, normalize, same_ring)
from .smith import ModuleInvariants, smith, subquotient

__all__ = [
    "CriticalData",
    "critical_decompose",
    "critical_ideal_generator",
    "StrongDecomposition",
    "strong_decompose",
    "strong_factors",
    "strong_iso",
    "is_zero_object",
    "cone_split",
    "is_iso",
    "HomModules",
    "hmf_hom",
    "MfClass",
    "primary_decompose",
    "localize_class",
    "suspend_class",
    "primary_test_objects",
    "elementary_sum",
]


class CriticalData(NamedTuple):
    """The critical primes of W: the (p, n) with p^n exactly dividing W,
    n >= 2 and p canonical."""

    W: RingElement
    critical: tuple[tuple[RingElement, int], ...]

    def order_of(self, p: RingElement) -> int | None:
        p = normalize(p).canonical
        for q, n in self.critical:
            if q == p:
                return n
        return None


def critical_decompose(W: RingElement) -> CriticalData:
    if W.is_zero:
        raise PreconditionError("W must be non-zero")
    if W.is_unit:
        raise PreconditionError("W must not be a unit")
    return CriticalData(W=W, critical=tuple(
        (p, e) for p, e in factorize(W).factors if e >= 2))


def critical_ideal_generator(cd: CriticalData) -> RingElement:
    """Generator of the ideal of elements divisible by every critical
    divisor: prod over critical primes of p^(n // 2); 1 when none exist."""
    g = cd.W.ring.one
    for p, n in cd.critical:
        g = g * p ** (n // 2)
    return g


class StrongDecomposition(NamedTuple):
    """Diagonalization of an object to a sum of elementary factorizations.

    factors is the divisibility chain d1 | ... | d_rho; the block transform
    diag(even_transform, odd_transform) has unit determinant and conjugates
    the differential onto the normal form's differential.  The transforms
    are the U and V of the Smith form U * v = diag(factors) * V.
    """

    W: RingElement
    factors: tuple[RingElement, ...]
    even_transform: RingMatrix
    odd_transform: RingMatrix

    def normal_form(self) -> MatrixFactorization:
        return elementary_sum(self.W, self.factors)

    def witness_holds(self, a: MatrixFactorization) -> bool:
        """Whether diag(E, O) conjugates the differential of ``a`` onto the
        normal form's, with E = even_transform, O = odd_transform.

        Three checks: a factors this W, E * v = diag(factors) * O on rho x
        rho blocks, and det E, det O are units.  The u half of the block
        identity, O * u = diag(W/d) * E, follows: ``a`` is valid, so over
        the fraction field u = W * v^-1, and E * v = D * O (D non-singular,
        since v is) gives v^-1 = O^-1 * D^-1 * E, so O * u = W * D^-1 * E.
        Without the W check an object over 2W with the same v would pass.
        A witness whose rank, ring or transform shapes do not fit ``a``
        gives False before any product is formed, never an exception.
        """
        E, O = self.even_transform, self.odd_transform
        rho = len(self.factors)
        if (a.W != self.W or a.rho != rho
                or any(x.ring is not a.ring or x.shape != (rho, rho)
                       for x in (E, O))):
            return False
        return (E @ a.v == RingMatrix.diagonal(a.ring, self.factors) @ O
                and E.is_unit_determinant() and O.is_unit_determinant())


def strong_decompose(a: MatrixFactorization) -> StrongDecomposition:
    """The Smith form U * v = D * V of the v block as a strong decomposition.

    A valid object needs no further check.  det u * det v = W^rho != 0, so
    v has full rank rho.  And u = W * v^-1 = W * V^-1 * D^-1 * U over the
    fraction field, so D^-1 * W = V * u * U^-1 is integral (U^-1 is, as
    det U is a unit): every invariant factor divides W.  The factors are
    kept on ``a`` for the readers of ``_strong_factors``.
    """
    dec = smith(a.v)
    a._factors = tuple(d.payload for d in dec.invariant_factors)
    return StrongDecomposition(W=a.W, factors=dec.invariant_factors,
                               even_transform=dec.U, odd_transform=dec.V)


def _is_zero_sum(ring, w, factors) -> bool:
    """Whether the sum of the e_d over the payloads d is a zero object of
    the homotopy category: gcd(d, W/d) is a unit for every d, w the
    payload of W.  The d are the strong factors of a valid object or the
    split of a valid cone, so each is non-zero and divides W.  One
    ``_divmod`` and one ``_gcd`` per factor, up to the first that is not a
    unit."""
    gcd_, divmod_, is_unit = ring._gcd, ring._divmod, ring._is_unit
    for d in factors:
        if not is_unit(gcd_(d, divmod_(w, d)[0])):
            return False
    return True


def _strong_factors(a: MatrixFactorization) -> tuple:
    """Payloads of the strong factors d1 | ... | d_rho of a valid object,
    equal to ``smith(a.v).invariant_factors``.

    They are computed once per object: the first call keeps them in
    ``a``'s private slot and later calls return it.  For rho <= 2 they
    come without ``smith``: d_k = Delta_k / Delta_(k-1), Delta_k the
    canonical gcd of the k x k minors of v (Kaplansky 1949), so d1 is the
    gcd of v's entries and d2 the canonical det(v) / d1.  Both quotients
    are exact and non-zero, since v is non-singular and d1 divides every
    entry.  Rank 0 has no factors; rank 3 and up call ``smith``.
    """
    if a._factors is not None:
        return a._factors
    v, rho, ring = a.v.payloads, a.rho, a.ring
    if rho > 2:
        factors = tuple(d.payload for d in smith(a.v).invariant_factors)
    elif rho == 0:
        factors = ()
    else:
        d1 = ring._from_int(0)
        for x in v:
            d1 = ring._gcd(d1, x)
        factors = (d1,)
        if rho == 2:
            mul = ring._mul
            det = ring._sub(mul(v[0], v[3]), mul(v[1], v[2]))
            d2 = ring._divmod(det, d1)[0]
            factors = d1, mul(ring._canonical_unit(d2), d2)
    a._factors = factors
    return factors


def strong_factors(a: MatrixFactorization) -> tuple[RingElement, ...]:
    """The strong factors d1 | ... | d_rho of an object, the invariant
    factors of its v block: ``a`` is strongly isomorphic to the sum of the
    e_{d_i}.  Computed at most once per object (``_strong_factors``)."""
    ring = a.ring
    return tuple(RingElement(ring, d) for d in _strong_factors(a))


def strong_iso(a: MatrixFactorization, b: MatrixFactorization) -> bool:
    """Conjugate by unit-determinant block transforms; decided by rank and
    the invariant factors of the v blocks (``_strong_factors``)."""
    if a.W != b.W:
        raise ValidationError("objects factor different elements")
    if a.rho != b.rho:
        return False
    return _strong_factors(a) == _strong_factors(b)


def is_zero_object(a: MatrixFactorization) -> bool:
    """Zero objects of the homotopy category: gcd(d, W/d) is a unit for
    every strong factor d (``_strong_factors``)."""
    return _is_zero_sum(a.ring, a.W.payload, _strong_factors(a))


def _elementary_scalar(ring, f00, v2, d):
    """The unique r with f = r * (generator), on payloads, for a morphism
    f: e_{v1} -> e_{v2} with f00 component f00 and d = gcd(v1, v2).

    The generator is (v2/d, v1/d).  A valid f has v2 * f11 = f00 * v1, so
    (v2/d) * f11 = f00 * (v1/d) with v1/d and v2/d coprime: v2/d divides
    f00, r = f00 * d / v2 is exact, and cancelling v2/d gives
    f11 = r * v1/d.  Every morphism e_{v1} -> e_{v2} is r times the
    generator, so f11 needs no check.
    """
    return ring._divmod(ring._mul(f00, d), v2)[0]


def _split_payloads(f: MfMorphism) -> tuple:
    """Payloads (xi, zeta) of ``cone_split``.  Every division is exact on
    a valid morphism: d divides v1 and s * v1, xi divides v1 * u2.

    The split is computed once per morphism: the first call keeps it in
    ``f``'s private slot and later calls return it."""
    if f._split is not None:
        return f._split
    src, dst = f.source, f.target
    if not (src.is_elementary and dst.is_elementary):
        raise PreconditionError("morphism endpoints must be elementary")
    ring = src.ring
    gcd_, divmod_, mul = ring._gcd, ring._divmod, ring._mul
    unit = ring._canonical_unit
    (v1,), (v2,) = src.v.payloads, dst.v.payloads
    (u1,), (u2,) = src.u.payloads, dst.u.payloads
    d = gcd_(v1, v2)
    r = _elementary_scalar(ring, f.f00.payloads[0], v2, d)
    s = gcd_(gcd_(gcd_(d, u1), u2), r)
    xi = divmod_(mul(s, v1), d)[0]
    xi = mul(unit(xi), xi)
    zeta = divmod_(mul(v1, u2), xi)[0]
    f._split = xi, mul(unit(zeta), zeta)
    return f._split


def cone_split(f: MfMorphism) -> tuple[RingElement, RingElement]:
    """Split the cone of an elementary morphism into two elementary pieces.

    Returns the canonical pair (xi, zeta) with
    xi = gcd(v1, v2, u1, u2, r) * v1 / gcd(v1, v2) and zeta = v1*u2 / xi;
    these are the invariant factors of the cone's u block, ordered by
    divisibility, and the suspended cone is strongly isomorphic to
    e_xi + e_zeta.  The split is computed once per morphism and shared
    with ``is_iso``.
    """
    ring = f.ring
    xi, zeta = _split_payloads(f)
    return RingElement(ring, xi), RingElement(ring, zeta)


def is_iso(f: MfMorphism) -> bool:
    """Invertibility in the homotopy category: the cone, strongly isomorphic
    to e_xi + e_zeta after suspension, is a zero object.  Reads the split
    that ``cone_split`` computed on ``f``, or computes it once."""
    return _is_zero_sum(f.ring, f.source.W.payload, _split_payloads(f))


class HomModules(NamedTuple):
    even: ModuleInvariants
    odd: ModuleInvariants


def hmf_hom(a: MatrixFactorization, b: MatrixFactorization) -> HomModules:
    """Invariant factors of the hom modules Hom(a, b) in even and odd
    degree, from one subquotient: two Smith decompositions.

    The even module is ker(d_even) / im(d_odd), and the odd module
    ker(d_odd) / im(d_even) is read off the even one's ``outer_smith``.
    Both differentials are N x N, and ``hom_differentials`` makes both
    their products zero.  Let U * d_odd = D * V be the Smith form of
    d_odd, of rank r_o.  Then D * V * d_even = U * d_odd * d_even = 0, so
    the first r_o rows of V * d_even vanish: V * d_even = [0; X], where X
    holds the coordinates of im(d_even) in the kernel basis of d_odd, and
    the odd module is coker X.  V is unimodular, so X has d_even's
    invariant factors and rank r_e, and coker X is the sum of the R/(d_i)
    over them plus a free part of rank (N - r_o) - r_e.  That is the even
    module's free rank, ker(d_even) having rank N - r_e and im(d_odd)
    rank r_o.  The test oracle ``hom_subquotients`` builds both
    presentations.
    """
    d_even, d_odd = hom_differentials(a, b)
    even = subquotient(d_even, d_odd)
    free = (a.ring.zero,) * even.invariants.free_rank
    return HomModules(even.invariants, ModuleInvariants.build(
        a.ring, even.outer_smith.invariant_factors + free))


class MfClass(NamedTuple):
    """Homotopy-isomorphism class: a multiset of primary labels (p, i),
    p critical in W and 1 <= i <= n_p - 1, sorted canonically."""

    critical: CriticalData
    labels: tuple[tuple[RingElement, int], ...]

    @classmethod
    def from_labels(cls, cd: CriticalData, labels) -> "MfClass":
        checked = []
        for p, i in labels:
            p = normalize(p).canonical
            n = cd.order_of(p)
            if n is None:
                raise PreconditionError(f"{p.text()} is not a critical prime "
                                        f"of {cd.W.text()}")
            if not 1 <= i <= n - 1:
                raise PreconditionError(
                    f"label size {i} outside 1..{n - 1} for {p.text()}")
            checked.append((p, i))
        checked.sort(key=lambda t: (t[0].sort_key(), t[1]))
        return cls(critical=cd, labels=tuple(checked))

    @classmethod
    def from_divisors(cls, cd: CriticalData, divisors) -> "MfClass":
        """The class of the sum of e_d over the given divisors d of W.

        Each e_d contributes (p, i) for every critical prime p with
        1 <= i <= n_p - 1, i the multiplicity of p in d; everything else
        about d is a zero object and contributes nothing.  Every d must
        divide W: one over another ring is refused (``ValidationError``), as
        is zero or a non-divisor (``PreconditionError``), as in
        ``elementary_sum``.  So no multiplicity exceeds n_p: each is read by
        ``_valuation``, capped at n_p, on d's payload with the primes found
        so far divided out, with no further factoring.
        """
        W = cd.W
        ring, w = W.ring, W.payload
        labels = []
        for d in divisors:
            same_ring(W, d)
            rest = d.payload
            if not rest or ring._divmod(w, rest)[1]:
                raise _not_dividing(ring, rest, w)
            for p, n in cd.critical:
                e, rest = _valuation(ring, p.payload, rest, n)
                if 1 <= e <= n - 1:
                    labels.append((p, e))
        return cls.from_labels(cd, labels)

    @property
    def is_zero(self) -> bool:
        return not self.labels

    def __str__(self):
        if not self.labels:
            return "0"
        return " + ".join(f"e({p.text()}^{i})" for p, i in self.labels)


def primary_decompose(a: MatrixFactorization,
                      cd: CriticalData | None = None) -> MfClass:
    """Krull-Schmidt class of an object against the critical primes of W:
    the class of the sum of e_d over its strong factors d."""
    if cd is None:
        cd = critical_decompose(a.W)
    elif cd.W != a.W:
        raise ValidationError("critical data belongs to a different W")
    return MfClass.from_divisors(cd, strong_factors(a))


def localize_class(c: MfClass, p: RingElement) -> MfClass:
    """Restrict a class to one critical prime."""
    p = normalize(p).canonical
    if c.critical.order_of(p) is None:
        raise PreconditionError(f"{p.text()} is not a critical prime of "
                                f"{c.critical.W.text()}")
    return MfClass.from_labels(c.critical,
                               [lab for lab in c.labels if lab[0] == p])


def suspend_class(c: MfClass) -> MfClass:
    """Class-level suspension: (p, i) -> (p, n_p - i)."""
    out = []
    for p, i in c.labels:
        n = c.critical.order_of(p)
        out.append((p, n - i))
    return MfClass.from_labels(c.critical, out)


def primary_test_objects(cd: CriticalData) -> list[MatrixFactorization]:
    """The non-zero primary elementary objects e_{p^i}, ordered by prime and
    then by i; ``artinian.cok_crosscheck`` checks their hom modules."""
    return [elementary(p ** i, cd.W)
            for p, n in cd.critical for i in range(1, n)]


def elementary_sum(W: RingElement, divisors) -> MatrixFactorization:
    """Direct sum of the elementary factorizations e_d, in the given order:
    u = diag(W/d) and v = diag(d), checked once as one factorization.

    ``exact_div`` refuses a divisor over another ring (``ValidationError``),
    a zero one or one that does not divide W (``PreconditionError``), as
    ``elementary`` does.
    """
    divisors = list(divisors)
    ring = W.ring
    return MatrixFactorization(
        W, RingMatrix.diagonal(ring, [exact_div(W, d) for d in divisors]),
        RingMatrix.diagonal(ring, divisors))
