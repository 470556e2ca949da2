"""Isomorphism classification of matrix factorizations.

Two layers of classification are computed exactly.  The strict layer
(conjugation by unit-determinant block transforms) is decided by the Smith
invariant factors of the v block, with the diagonalizing transform returned
as a witness.  The homotopy layer is decided by Krull-Schmidt data: each
object decomposes against the critical primes of W into primary elementary
pieces e_{p^i}, and the multiset of labels (p, i) with 1 <= i < n_p is a
complete invariant.  Hom modules in the homotopy category are computed from
the cocycle/boundary subquotient, never from assumed closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import PreconditionError, ValidationError
from .factorizations import (MatrixFactorization, MfMorphism, elementary,
                             direct_sum, hom_differentials)
from .matrices import RingMatrix
from .rings import (RingElement, divides, exact_div, factorize, gcd, gcd_all,
                    normalize)
from .smith import (ModuleInvariants, Subquotient, _kernel_coordinates, smith,
                    subquotient)

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
    "induced_hom_iso",
    "is_iso_by_induced_homs",
    "MfClass",
    "primary_decompose",
    "hmf_iso",
    "localize_class",
    "suspend_class",
    "primary_test_objects",
    "elementary_sum",
]


@dataclass(frozen=True)
class CriticalData:
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


@dataclass(frozen=True)
class StrongDecomposition:
    """Diagonalization of an object to a sum of elementary factorizations.

    factors is the divisibility chain d1 | ... | d_rho; the block transform
    diag(even_transform, odd_transform) has unit determinant and conjugates
    the differential onto the normal form's differential.
    """

    W: RingElement
    factors: tuple[RingElement, ...]
    even_transform: RingMatrix
    odd_transform: RingMatrix

    def normal_form(self) -> MatrixFactorization:
        ring = self.W.ring
        rho = len(self.factors)
        u_diag = [exact_div(self.W, d) for d in self.factors]
        return MatrixFactorization(
            self.W,
            RingMatrix.diagonal(ring, u_diag, rho, rho),
            RingMatrix.diagonal(ring, list(self.factors), rho, rho),
        )

    def block_transform(self) -> RingMatrix:
        ring = self.W.ring
        rho = self.even_transform.rows
        z = RingMatrix.zeros(ring, rho, rho)
        return RingMatrix.block([[self.even_transform, z],
                                 [z, self.odd_transform]])

    def witness_holds(self, a: MatrixFactorization) -> bool:
        """block_transform * differential(a) = differential(normal form) *
        block_transform, and both transform determinants are units."""
        ud = self.block_transform()
        if ud @ a.differential() != self.normal_form().differential() @ ud:
            return False
        return (self.even_transform.is_unit_determinant()
                and self.odd_transform.is_unit_determinant())


def strong_decompose(a: MatrixFactorization) -> StrongDecomposition:
    dec = smith(a.v)
    if dec.rank != a.rho:
        # impossible while u*v = W*I holds with W != 0
        raise ValidationError("v block is singular")
    for d in dec.invariant_factors:
        if not divides(d, a.W):
            raise ValidationError("invariant factor does not divide W")
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
    """Zero objects of the homotopy category: every elementary factor e_d
    has gcd(d, W/d) a unit."""
    sd = strong_decompose(a)
    return all(gcd(d, exact_div(a.W, d)).is_unit for d in sd.factors)


def _elementary_scalar(f: MfMorphism) -> RingElement:
    """The unique r with f = r * (generator); endpoints must be elementary."""
    if not (f.source.is_elementary and f.target.is_elementary):
        raise PreconditionError("morphism endpoints must be elementary")
    v1, v2 = f.source.v_scalar(), f.target.v_scalar()
    d = gcd(v1, v2)
    r = exact_div(f.f00.entry(0, 0) * d, v2)
    if f.f11.entry(0, 0) * d != r * v1:
        raise ValidationError("components are not a scalar multiple of the "
                              "generating morphism")
    return r


def cone_split(f: MfMorphism) -> tuple[RingElement, RingElement]:
    """Split the cone of an elementary morphism into two elementary pieces.

    Returns the canonical pair (xi, zeta) with
    xi = gcd(v1, v2, u1, u2, r) * v1 / gcd(v1, v2) and zeta = v1*u2 / xi;
    these are the invariant factors of the cone's u block, ordered by
    divisibility, and the suspended cone is strongly isomorphic to
    e_xi + e_zeta.
    """
    v1, v2 = f.source.v_scalar(), f.target.v_scalar()
    u1, u2 = f.source.u_scalar(), f.target.u_scalar()
    r = _elementary_scalar(f)
    d = gcd(v1, v2)
    s = gcd_all([v1, v2, u1, u2, r])
    xi = normalize(exact_div(s * v1, d)).canonical
    zeta = normalize(exact_div(v1 * u2, xi)).canonical
    return xi, zeta


def is_iso(f: MfMorphism) -> bool:
    """Invertibility in the homotopy category: both cone components are
    zero objects."""
    xi, zeta = cone_split(f)
    W = f.source.W
    return (gcd(xi, exact_div(W, xi)).is_unit
            and gcd(zeta, exact_div(W, zeta)).is_unit)


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


def _postcompose_matrix(f: MfMorphism, t: MatrixFactorization) -> RingMatrix:
    """Matrix of g -> f o g on flattened component pairs Hom(t, source) ->
    Hom(t, target); the same matrix acts on even and odd pairs."""
    from .matrices import kron

    eye_t = RingMatrix.identity(f.ring, t.rho)
    blk00 = kron(f.f00, eye_t)
    blk11 = kron(f.f11, eye_t)
    za = RingMatrix.zeros(f.ring, blk00.rows, blk11.cols)
    zb = RingMatrix.zeros(f.ring, blk11.rows, blk00.cols)
    return RingMatrix.block([[blk00, za], [zb, blk11]])


def induced_hom_iso(f: MfMorphism, t: MatrixFactorization) -> bool:
    """Whether Hom(t, f) is invertible on both hom-module degrees.

    Surjectivity plus equal composition length decides invertibility for
    these finite-length modules.
    """
    src_even, src_odd = hom_subquotients(t, f.source)
    dst_even, dst_odd = hom_subquotients(t, f.target)
    lmat = _postcompose_matrix(f, t)
    return (_presented_map_iso(src_even, dst_even, lmat)
            and _presented_map_iso(src_odd, dst_odd, lmat))


def _presented_map_iso(src: Subquotient, dst: Subquotient,
                       lmat: RingMatrix) -> bool:
    y = _kernel_coordinates(dst.outer_smith, lmat @ src.generators)
    if y is None:
        raise ValidationError("induced map does not preserve cocycles")
    if src.invariants.free_rank or dst.invariants.free_rank:
        raise ValidationError("hom modules must have finite length")
    if src.invariants.length() != dst.invariants.length():
        return False
    onto = RingMatrix.block([[y, dst.relations]])
    dec = smith(onto)
    if dec.rank != y.rows:
        return False
    return all(d.is_unit for d in dec.invariant_factors)


def is_iso_by_induced_homs(f: MfMorphism, tests) -> bool:
    """Invertibility probed through Hom(t, -) for each test object."""
    return all(induced_hom_iso(f, t) for t in tests)


@dataclass(frozen=True)
class MfClass:
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

    @property
    def is_zero(self) -> bool:
        return not self.labels

    def __str__(self):
        if not self.labels:
            return "0"
        return " + ".join(f"e({p.text()}^{i})" for p, i in self.labels)


def primary_decompose(a: MatrixFactorization,
                      cd: CriticalData | None = None) -> MfClass:
    """Krull-Schmidt class of an object against the critical primes of W.

    Each elementary factor e_d contributes (p, i) for every critical prime
    p with 1 <= i <= n_p - 1, i the multiplicity of p in d; everything else
    about d is a zero object and contributes nothing.  Every d divides W,
    so the multiplicities are read by repeated exact division by the
    critical primes, with no further factoring.
    """
    if cd is None:
        cd = critical_decompose(a.W)
    elif cd.W != a.W:
        raise ValidationError("critical data belongs to a different W")
    labels = []
    for d in strong_decompose(a).factors:
        for p, n in cd.critical:
            e = 0
            while e < n and divides(p, d):
                d = exact_div(d, p)
                e += 1
            if 1 <= e <= n - 1:
                labels.append((p, e))
    return MfClass.from_labels(cd, labels)


def hmf_iso(a: MatrixFactorization, b: MatrixFactorization) -> bool:
    if a.W != b.W:
        raise ValidationError("objects factor different elements")
    cd = critical_decompose(a.W)
    return primary_decompose(a, cd).labels == primary_decompose(b, cd).labels


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
    """The non-zero primary elementary objects e_{p^i}, the generators used
    by the induced-hom invertibility probe."""
    return [elementary(p ** i, cd.W)
            for p, n in cd.critical for i in range(1, n)]


def elementary_sum(W: RingElement, divisors) -> MatrixFactorization:
    """Direct sum of elementary factorizations e_v for each given divisor."""
    divisors = list(divisors)
    if not divisors:
        ring = W.ring
        return MatrixFactorization(W, RingMatrix.zeros(ring, 0, 0),
                                   RingMatrix.zeros(ring, 0, 0))
    acc = elementary(divisors[0], W)
    for v in divisors[1:]:
        acc = direct_sum(acc, elementary(v, W))
    return acc
