"""Finite-rank matrix factorizations of a ring element and their morphisms.

A factorization of W consists of two square matrices u, v of equal size rho
with u*v = v*u = W*I.  The differential pairs them into an odd-degree square
root of W on a free graded module of rank (rho | rho); rank zero is a legal
object.  Morphisms are even maps (f00, f11) commuting with the differentials;
the odd solutions of the same commutation pattern are the null homotopies.

All constructors re-validate, so no invalid object can be produced through
the public surface.  The checks are cheap enough for the many rank-one and
rank-two objects that classification builds: rings are interned and compared
by identity, matrices hold raw payloads, and each check costs one matrix
product.  Over a domain u*v = W*I already implies v*u = W*I, and the first
commutation condition implies the second (see ``MatrixFactorization`` and
``_commutes``), so only one product of each pair is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, ValidationError
from .matrices import RingMatrix, kron
from .rings import RingElement, exact_div, gcd, same_ring
from .smith import LinearSolver

__all__ = [
    "MatrixFactorization",
    "MfMorphism",
    "Triangle",
    "elementary",
    "suspension",
    "suspend_morphism",
    "direct_sum",
    "elementary_morphism",
    "identity_morphism",
    "zero_morphism",
    "compose",
    "is_cocycle",
    "hom_differentials",
    "null_homotopy_witness",
    "is_null_homotopic",
    "cone",
    "cone_triangle",
]


class MatrixFactorization:
    """(u, v) with u*v = v*u = W*I, both rho x rho over W's ring.

    Only u*v = W*I is checked: over a domain R with fraction field K,
    det u * det v = W^rho != 0, so u is invertible over K, v = W*u^-1 and
    v*u = W*I follows.
    """

    __slots__ = ("W", "rho", "u", "v")

    def __init__(self, W: RingElement, u: RingMatrix, v: RingMatrix):
        if W.is_zero:
            raise ValidationError("the factored element W must be non-zero")
        ring = W.ring
        if u.ring is not ring or v.ring is not ring:
            raise ValidationError("factors must live over W's ring")
        if not (u.is_square() and v.is_square() and u.rows == v.rows):
            raise ValidationError("u and v must be square of equal size")
        rho = u.rows
        if u @ v != RingMatrix.diagonal(ring, [W] * rho):
            raise ValidationError("u*v = v*u = W*I fails")
        self.W = W
        self.rho = rho
        self.u = u
        self.v = v

    @property
    def ring(self):
        return self.W.ring

    def differential(self) -> RingMatrix:
        """The odd map [[0, v], [u, 0]] on the even+odd column convention."""
        z = RingMatrix.zeros(self.ring, self.rho, self.rho)
        return RingMatrix.block([[z, self.v], [self.u, z]])

    @property
    def is_elementary(self) -> bool:
        return self.rho == 1

    def v_scalar(self) -> RingElement:
        if not self.is_elementary:
            raise PreconditionError("not an elementary factorization")
        return self.v.entry(0, 0)

    def u_scalar(self) -> RingElement:
        if not self.is_elementary:
            raise PreconditionError("not an elementary factorization")
        return self.u.entry(0, 0)

    def __eq__(self, other):
        return (isinstance(other, MatrixFactorization) and other.W == self.W
                and other.u == self.u and other.v == self.v)

    def __hash__(self):
        return hash((self.W, self.u, self.v))

    def __repr__(self):
        return (f"<MatrixFactorization rho={self.rho} of {self.W.text()} "
                f"over {self.ring.name}>")


def elementary(v: RingElement, W: RingElement) -> MatrixFactorization:
    """Rank-one factorization with the given v; u = W/v, so v must divide W."""
    same_ring(v, W)
    if v.is_zero:
        raise PreconditionError("v must be non-zero")
    u = exact_div(W, v)
    ring = W.ring
    return MatrixFactorization(W,
                               RingMatrix(ring, 1, 1, [u.payload]),
                               RingMatrix(ring, 1, 1, [v.payload]))


class MfMorphism:
    """Even morphism between two factorizations of the same W.

    Components f00 (even) and f11 (odd) are rho2 x rho1 and must satisfy the
    commutation conditions v2*f11 = f00*v1 and u2*f00 = f11*u1.
    """

    __slots__ = ("source", "target", "f00", "f11")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization,
                 f00: RingMatrix, f11: RingMatrix):
        if source.W != target.W:
            raise ValidationError("morphism endpoints factor different elements")
        shape = (target.rho, source.rho)
        for part in (f00, f11):
            if part.ring is not source.ring:
                raise ValidationError("components over the wrong ring")
            if part.shape != shape:
                raise ValidationError(
                    f"component shape {part.shape}, expected {shape}")
        if not _commutes(source, target, f00, f11):
            raise ValidationError("components do not commute with the "
                                  "differentials")
        self.source = source
        self.target = target
        self.f00 = f00
        self.f11 = f11

    @property
    def ring(self):
        return self.source.ring

    def __eq__(self, other):
        return (isinstance(other, MfMorphism) and other.source == self.source
                and other.target == self.target and other.f00 == self.f00
                and other.f11 == self.f11)

    def __repr__(self):
        return (f"<MfMorphism {self.source.rho}->{self.target.rho} "
                f"of {self.source.W.text()}>")


def _commutes(source: MatrixFactorization, target: MatrixFactorization,
              f00: RingMatrix, f11: RingMatrix) -> bool:
    """v2*f11 = f00*v1 and u2*f00 = f11*u1, by checking the first only.

    If v2*f11 = f00*v1, then (u2*f00 - f11*u1)*v1 = u2*v2*f11 - f11*u1*v1
    = W*f11 - W*f11 = 0, and v1 is non-singular (det u1 * det v1 = W^rho1
    != 0 in a domain), so u2*f00 = f11*u1.
    """
    return target.v @ f11 == f00 @ source.v


def is_cocycle(f: MfMorphism) -> bool:
    """Re-check the commutation conditions on the stored components."""
    return _commutes(f.source, f.target, f.f00, f.f11)


def identity_morphism(a: MatrixFactorization) -> MfMorphism:
    eye = RingMatrix.identity(a.ring, a.rho)
    return MfMorphism(a, a, eye, eye)


def zero_morphism(a: MatrixFactorization,
                  b: MatrixFactorization) -> MfMorphism:
    z = RingMatrix.zeros(a.ring, b.rho, a.rho)
    return MfMorphism(a, b, z, z)


def compose(g: MfMorphism, f: MfMorphism) -> MfMorphism:
    """g after f."""
    if f.target != g.source:
        raise ValidationError("morphisms do not compose")
    return MfMorphism(f.source, g.target, g.f00 @ f.f00, g.f11 @ f.f11)


def elementary_morphism(source: MatrixFactorization,
                        target: MatrixFactorization,
                        r: RingElement) -> MfMorphism:
    """r times the generating morphism between elementary factorizations.

    With d = gcd(v1, v2) the generator has components (v2/d, v1/d); the two
    commutation conditions then hold identically.
    """
    if not (source.is_elementary and target.is_elementary):
        raise PreconditionError("endpoints must be elementary")
    same_ring(r, source.W)
    v1, v2 = source.v_scalar(), target.v_scalar()
    d = gcd(v1, v2)
    f00 = RingMatrix(source.ring, 1, 1, [(r * exact_div(v2, d)).payload])
    f11 = RingMatrix(source.ring, 1, 1, [(r * exact_div(v1, d)).payload])
    return MfMorphism(source, target, f00, f11)


def suspension(a: MatrixFactorization) -> MatrixFactorization:
    """Shift the grading: the suspension factors W as (-v, -u)."""
    return MatrixFactorization(a.W, -a.v, -a.u)


def suspend_morphism(f: MfMorphism) -> MfMorphism:
    return MfMorphism(suspension(f.source), suspension(f.target),
                      f.f11, f.f00)


def direct_sum(a: MatrixFactorization,
               b: MatrixFactorization) -> MatrixFactorization:
    if a.W != b.W:
        raise ValidationError("summands factor different elements")
    za = RingMatrix.zeros(a.ring, a.rho, b.rho)
    zb = RingMatrix.zeros(a.ring, b.rho, a.rho)
    return MatrixFactorization(
        a.W,
        RingMatrix.block([[a.u, za], [zb, b.u]]),
        RingMatrix.block([[a.v, za], [zb, b.v]]),
    )


def hom_differentials(a1: MatrixFactorization,
                      a2: MatrixFactorization) -> tuple[RingMatrix, RingMatrix]:
    """Matrices of the differential acting on morphism components.

    Components are flattened row-major, even pairs as (f00, f11) and odd
    pairs as (s01, s10).  The even matrix sends (f00, f11) to
    (v2*f11 - f00*v1, u2*f00 - f11*u1); the odd matrix sends (s01, s10) to
    (v2*s10 + s01*u1, u2*s01 + s10*v1).  Both square of size 2*rho1*rho2,
    and their products vanish in either order.
    """
    if a1.W != a2.W:
        raise ValidationError("morphism spaces need a common W")
    r1, r2 = a1.rho, a2.rho
    ring = a1.ring
    eye1 = RingMatrix.identity(ring, r1)
    eye2 = RingMatrix.identity(ring, r2)
    even = RingMatrix.block([
        [-kron(eye2, a1.v.transpose()), kron(a2.v, eye1)],
        [kron(a2.u, eye1), -kron(eye2, a1.u.transpose())],
    ])
    odd = RingMatrix.block([
        [kron(eye2, a1.u.transpose()), kron(a2.v, eye1)],
        [kron(a2.u, eye1), kron(eye2, a1.v.transpose())],
    ])
    return even, odd


def null_homotopy_witness(
        f: MfMorphism) -> tuple[RingMatrix, RingMatrix] | None:
    """Odd pair (s01, s10) trivializing f, or None when f is essential."""
    r1, r2 = f.source.rho, f.target.rho
    n = r1 * r2
    if n == 0:
        z = RingMatrix.zeros(f.ring, r2, r1)
        return (z, z)
    _, system = hom_differentials(f.source, f.target)
    rhs = RingMatrix(f.ring, 2 * n, 1, f.f00.payloads + f.f11.payloads)
    x = LinearSolver(system).solve_matrix(rhs)
    if x is None:
        return None
    s01 = RingMatrix(f.ring, r2, r1, x.payloads[:n])
    s10 = RingMatrix(f.ring, r2, r1, x.payloads[n:])
    return (s01, s10)


def is_null_homotopic(f: MfMorphism) -> bool:
    return null_homotopy_witness(f) is not None


def cone(f: MfMorphism) -> MatrixFactorization:
    """Mapping cone; blocks follow the fixed sign convention

    u = [[-v1, 0], [f11, u2]],  v = [[-u1, 0], [f00, v2]].
    """
    a1, a2 = f.source, f.target
    z = RingMatrix.zeros(f.ring, a1.rho, a2.rho)
    cu = RingMatrix.block([[-a1.v, z], [f.f11, a2.u]])
    cv = RingMatrix.block([[-a1.u, z], [f.f00, a2.v]])
    return MatrixFactorization(f.source.W, cu, cv)


@dataclass(frozen=True)
class Triangle:
    """a1 -f-> a2 -phi-> cone(f) -psi-> suspension(a1)."""

    a1: MatrixFactorization
    a2: MatrixFactorization
    cone: MatrixFactorization
    f: MfMorphism
    phi: MfMorphism
    psi: MfMorphism


def cone_triangle(f: MfMorphism) -> Triangle:
    """The cone with its inclusion and projection structure maps."""
    a1, a2 = f.source, f.target
    c = cone(f)
    ring = f.ring
    incl = RingMatrix.block([[RingMatrix.zeros(ring, a1.rho, a2.rho)],
                             [RingMatrix.identity(ring, a2.rho)]])
    phi = MfMorphism(a2, c, incl, incl)
    proj = RingMatrix.block([[RingMatrix.identity(ring, a1.rho),
                              RingMatrix.zeros(ring, a1.rho, a2.rho)]])
    psi = MfMorphism(c, suspension(a1), proj, proj)
    return Triangle(a1, a2, c, f, phi, psi)
