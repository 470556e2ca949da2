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

Whether an object is zero is read from the same factors
(``StrongDecomposition.is_zero``): e_d is zero exactly when gcd(d, W/d) is
a unit, a test symmetric in d and W/d.  With U * v = D * V, u = W * v^-1
gives V * u * U^-1 = W * D^-1 = diag(W/d_i), so the u block's invariant
factors are the W/d_i; the suspension (W, -v, -u) swaps the blocks, so one
decomposition of either block answers for both.  ``elementary_sum`` is the
one builder of the diagonal objects diag(W/d), diag(d), normal forms
included.  Hom modules in the homotopy category are computed from the
cocycle/boundary subquotient, never from assumed closed forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError, ValidationError
from .factorizations import (MatrixFactorization, MfMorphism, elementary,
                             hom_differentials)
from .matrices import RingMatrix
from .rings import (RingElement, _valuation, exact_div, factorize, gcd,
                    gcd_all, normalize)
from .smith import ModuleInvariants, Subquotient, smith, subquotient

__all__ = [
    "CriticalData",
    "critical_decompose",
    "critical_ideal_generator",
    "StrongDecomposition",
    "strong_decompose",
    "strong_iso",
    "is_zero_object",
    "cone_split",
    "is_iso",
    "HomModules",
    "hmf_hom",
    "hom_subquotients",
    "MfClass",
    "primary_decompose",
    "localize_class",
    "suspend_class",
    "primary_test_objects",
    "elementary_sum",
]


class CriticalData(NamedTuple):
    """W = unit * W0 * prod(p^n) with W0 square-free and coprime to the
    critical primes; critical lists the (p, n) with n >= 2, p canonical."""

    W: RingElement
    W0: RingElement
    critical: tuple[tuple[RingElement, int], ...]
    unit: RingElement

    def order_of(self, p: RingElement) -> int | None:
        p = normalize(p).canonical
        for q, n in self.critical:
            if q == p:
                return n
        return None

    @property
    def is_critical(self) -> bool:
        return bool(self.critical)


def critical_decompose(W: RingElement) -> CriticalData:
    if W.is_zero:
        raise PreconditionError("W must be non-zero")
    if W.is_unit:
        raise PreconditionError("W must not be a unit")
    fac = factorize(W)
    ring = W.ring
    w0 = ring.one
    critical = []
    for p, e in fac.factors:
        if e == 1:
            w0 = w0 * p
        else:
            critical.append((p, e))
    return CriticalData(W=W, W0=w0, critical=tuple(critical), unit=fac.unit)


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

    @staticmethod
    def is_zero(W: RingElement, factors) -> bool:
        """Whether the sum of the e_d over ``factors`` is a zero object of
        the homotopy category: gcd(d, W/d) is a unit for every d.

        ``factors`` is an object's strong factors or a cone split
        (xi, zeta).  The test is symmetric in d and W/d, so it gives the
        same answer on either block's factors.
        """
        return all(gcd(d, exact_div(W, d)).is_unit for d in factors)

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
    det U is a unit): every invariant factor divides W.
    """
    dec = smith(a.v)
    return StrongDecomposition(W=a.W, factors=dec.invariant_factors,
                               even_transform=dec.U, odd_transform=dec.V)


def strong_iso(a: MatrixFactorization, b: MatrixFactorization) -> bool:
    """Conjugate by unit-determinant block transforms; decided by rank and
    the invariant factors of the v blocks."""
    if a.W != b.W:
        raise ValidationError("objects factor different elements")
    if a.rho != b.rho:
        return False
    return smith(a.v).invariant_factors == smith(b.v).invariant_factors


def is_zero_object(a: MatrixFactorization) -> bool:
    """Zero objects of the homotopy category, read from the strong factors
    (``StrongDecomposition.is_zero``)."""
    sd = strong_decompose(a)
    return sd.is_zero(a.W, sd.factors)


def _elementary_scalar(f00: RingElement, v2: RingElement,
                       d: RingElement) -> RingElement:
    """The unique r with f = r * (generator), for a morphism
    f: e_{v1} -> e_{v2} with f00 component f00 and d = gcd(v1, v2).

    The generator is (v2/d, v1/d).  A valid f has v2 * f11 = f00 * v1, so
    (v2/d) * f11 = f00 * (v1/d) with v1/d and v2/d coprime: v2/d divides
    f00, r = f00 * d / v2 is exact, and cancelling v2/d gives
    f11 = r * v1/d.  Every morphism e_{v1} -> e_{v2} is r times the
    generator, so f11 needs no check.
    """
    return exact_div(f00 * d, v2)


def cone_split(f: MfMorphism) -> tuple[RingElement, RingElement]:
    """Split the cone of an elementary morphism into two elementary pieces.

    Returns the canonical pair (xi, zeta) with
    xi = gcd(v1, v2, u1, u2, r) * v1 / gcd(v1, v2) and zeta = v1*u2 / xi;
    these are the invariant factors of the cone's u block, ordered by
    divisibility, and the suspended cone is strongly isomorphic to
    e_xi + e_zeta.
    """
    if not (f.source.is_elementary and f.target.is_elementary):
        raise PreconditionError("morphism endpoints must be elementary")
    v1, v2 = f.source.v_scalar(), f.target.v_scalar()
    u1, u2 = f.source.u_scalar(), f.target.u_scalar()
    d = gcd(v1, v2)
    r = _elementary_scalar(f.f00.entry(0, 0), v2, d)
    s = gcd_all([d, u1, u2, r])
    xi = normalize(exact_div(s * v1, d)).canonical
    zeta = normalize(exact_div(v1 * u2, xi)).canonical
    return xi, zeta


def is_iso(f: MfMorphism) -> bool:
    """Invertibility in the homotopy category: the cone, strongly isomorphic
    to e_xi + e_zeta after suspension, is a zero object."""
    return StrongDecomposition.is_zero(f.source.W, cone_split(f))


class HomModules(NamedTuple):
    even: ModuleInvariants
    odd: ModuleInvariants


def hom_subquotients(a: MatrixFactorization,
                     b: MatrixFactorization) -> tuple[Subquotient, Subquotient]:
    """Presentations (generators, relations) of the even and odd hom
    modules in the homotopy category."""
    d_even, d_odd = hom_differentials(a, b)
    return subquotient(d_even, d_odd), subquotient(d_odd, d_even)


def hmf_hom(a: MatrixFactorization, b: MatrixFactorization) -> HomModules:
    """Invariant factors of the hom modules Hom(a, b) in even and odd
    degree, computed from the cocycle/boundary subquotient."""
    even, odd = hom_subquotients(a, b)
    return HomModules(even.invariants, odd.invariants)


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
        about d is a zero object and contributes nothing.  Every d divides
        W, so no multiplicity exceeds n_p: each is read by ``_valuation``,
        capped at n_p, on d's payload with the primes found so far divided
        out, with no further factoring.
        """
        ring = cd.W.ring
        labels = []
        for d in divisors:
            rest = d.payload
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
    return MfClass.from_divisors(cd, strong_decompose(a).factors)


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
