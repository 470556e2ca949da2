"""Finite-rank matrix factorizations of a ring element and their morphisms.

A factorization of W consists of two square matrices u, v of equal size rho
with u*v = v*u = W*I.  The differential pairs them into an odd-degree square
root of W on a free graded module of rank (rho | rho); rank zero is a legal
object.  Morphisms are even maps (f00, f11) commuting with the differentials;
the odd solutions of the same commutation pattern are the null homotopies.

All constructors re-validate, so no invalid object can be produced through
the public surface.  The checks are cheap enough for the many rank-one and
rank-two objects that classification builds: rings are interned and compared
by identity, and each check hands the blocks' payloads to the ring's
``_matmul`` and compares the payload list it returns with the expected one
(W on the diagonal, or the other side of the commutation), with no
``RingMatrix`` or ``RingElement`` built on the way.  Over a domain u*v = W*I
already implies v*u = W*I, and the first commutation condition implies the
second (see ``MatrixFactorization`` and ``_commutes``), so only one product
of each pair is computed.  ``elementary_morphism`` computes its components
on payloads too.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError, ValidationError
from .matrices import RingMatrix, kron
from .rings import RingElement, exact_div, same_ring
from .smith import LinearSolver

__all__ = [
    "MatrixFactorization",
    "MfMorphism",
    "Triangle",
    "elementary",
    "suspension",
    "direct_sum",
    "elementary_morphism",
    "identity_morphism",
    "compose",
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

    An object is never mutated after ``__init__``, so the payloads of its
    strong factors, once ``classify`` has computed them, are kept in a
    private slot and read back by every reader of them.  An object built
    again, even an equal one, computes its factors afresh.
    """

    __slots__ = ("W", "rho", "u", "v", "_factors")

    def __init__(self, W: RingElement, u: RingMatrix, v: RingMatrix):
        if W.is_zero:
            raise ValidationError("the factored element W must be non-zero")
        ring = W.ring
        if u.ring is not ring or v.ring is not ring:
            raise ValidationError("factors must live over W's ring")
        if not (u.is_square() and v.is_square() and u.rows == v.rows):
            raise ValidationError("u and v must be square of equal size")
        rho = u.rows
        expected = [ring._from_int(0)] * (rho * rho)
        expected[::rho + 1] = [W.payload] * rho
        if ring._matmul(u.payloads, v.payloads, rho, rho, rho) != expected:
            raise ValidationError("u*v = v*u = W*I fails")
        self.W = W
        self.rho = rho
        self.u = u
        self.v = v
        self._factors = None

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

    A morphism is never mutated after ``__init__``, so the payloads of its
    cone split, once ``classify`` has computed them, are kept in a private
    slot and read back by ``cone_split`` and ``is_iso``.  A morphism built
    again, even an equal one, computes its split afresh.
    """

    __slots__ = ("source", "target", "f00", "f11", "_split")

    def __init__(self, source: MatrixFactorization, target: MatrixFactorization,
                 f00: RingMatrix, f11: RingMatrix):
        if source.W != target.W:
            raise ValidationError("morphism endpoints factor different elements")
        if not _commutes(source, target, f00, f11):
            raise ValidationError("components do not commute with the "
                                  "differentials")
        self.source = source
        self.target = target
        self.f00 = f00
        self.f11 = f11
        self._split = None

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
    != 0 in a domain), so u2*f00 = f11*u1.  Components over another ring
    or of another shape than rho2 x rho1 raise ``ValidationError``, before
    the two payload products are compared.
    """
    ring, r1, r2 = source.ring, source.rho, target.rho
    for part in (f00, f11):
        if part.ring is not ring:
            raise ValidationError("components over the wrong ring")
        if part.rows != r2 or part.cols != r1:
            raise ValidationError(
                f"component shape {part.shape}, expected {(r2, r1)}")
    return (ring._matmul(target.v.payloads, f11.payloads, r2, r2, r1)
            == ring._matmul(f00.payloads, source.v.payloads, r2, r1, r1))


def identity_morphism(a: MatrixFactorization) -> MfMorphism:
    eye = RingMatrix.identity(a.ring, a.rho)
    return MfMorphism(a, a, eye, eye)


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
    ring = same_ring(r, source.W, target.W)
    divmod_, mul = ring._divmod, ring._mul
    (v1,), (v2,) = source.v.payloads, target.v.payloads
    d = ring._gcd(v1, v2)  # non-zero and dividing both: exact quotients
    f00 = RingMatrix(ring, 1, 1, (mul(r.payload, divmod_(v2, d)[0]),))
    f11 = RingMatrix(ring, 1, 1, (mul(r.payload, divmod_(v1, d)[0]),))
    return MfMorphism(source, target, f00, f11)


def suspension(a: MatrixFactorization) -> MatrixFactorization:
    """Shift the grading: the suspension factors W as (-v, -u)."""
    return MatrixFactorization(a.W, -a.v, -a.u)


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

    They share four Kronecker blocks, each built once: V2 = v2 (x) I,
    U2 = u2 (x) I, V1 = I (x) v1^T and U1 = I (x) u1^T give
    even = [[-V1, V2], [U2, -U1]] and odd = [[U1, V2], [U2, V1]].
    """
    if a1.W != a2.W:
        raise ValidationError("morphism spaces need a common W")
    eye1 = RingMatrix.identity(a1.ring, a1.rho)
    eye2 = RingMatrix.identity(a1.ring, a2.rho)
    V2, U2 = kron(a2.v, eye1), kron(a2.u, eye1)
    V1, U1 = kron(eye2, a1.v.transpose()), kron(eye2, a1.u.transpose())
    even = RingMatrix.block([[-V1, V2], [U2, -U1]])
    odd = RingMatrix.block([[U1, V2], [U2, V1]])
    return even, odd


def null_homotopy_witness(
        f: MfMorphism) -> tuple[RingMatrix, RingMatrix] | None:
    """Odd pair (s01, s10) trivializing f, or None when f is essential."""
    r1, r2 = f.source.rho, f.target.rho
    n = r1 * r2
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

    Each block is assembled as one row-major payload list; the validated
    morphism already fixes the shapes and the ring, and
    ``MatrixFactorization`` checks the result.
    """
    a1, a2 = f.source, f.target
    return MatrixFactorization(a1.W, _cone_block(a1.v, f.f11, a2.u),
                               _cone_block(a1.u, f.f00, a2.v))


def _cone_block(top: RingMatrix, low: RingMatrix,
                right: RingMatrix) -> RingMatrix:
    """[[-top, 0], [low, right]] for top rho1 x rho1, low rho2 x rho1 and
    right rho2 x rho2."""
    ring, r1, r2 = top.ring, top.rows, right.rows
    neg, tp, lp, rp = ring._neg, top.payloads, low.payloads, right.payloads
    pad = [ring._from_int(0)] * r2
    out = []
    for i in range(r1):
        out += [neg(x) for x in tp[i * r1:(i + 1) * r1]]
        out += pad
    for i in range(r2):
        out += lp[i * r1:(i + 1) * r1]
        out += rp[i * r2:(i + 1) * r2]
    n = r1 + r2
    return RingMatrix(ring, n, n, out)


class Triangle(NamedTuple):
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
