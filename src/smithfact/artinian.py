"""Module calculus over the Artinian quotient by a prime power.

Fix a prime p and n >= 1 and work over the quotient of the base domain by
p^n.  The indecomposable modules are the cyclic quotients V_i by p^i for
1 <= i <= n, so everything here is index arithmetic: hom sizes, stable hom
sizes, syzygies, almost-split sequences and the Auslander-Reiten quiver,
which can be rendered to DOT.  ``cok_crosscheck`` ties the index formulas
back to the matrix-factorization hom modules computed by the SNF machinery.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .classify import (critical_decompose, hmf_hom, primary_decompose,
                       primary_test_objects)
from .errors import PreconditionError, ValidationError
from .factorizations import suspension
from .rings import (RingElement, _valuation, divides, gcd, is_prime, normalize,
                    same_ring)

__all__ = [
    "LambdaContext",
    "delta",
    "mu",
    "hom_module",
    "stable_hom",
    "hom_cyclic",
    "syzygy",
    "quotient",
    "CyclicDecomposition",
    "decompose_module",
    "ARSequence",
    "ar_sequence",
    "ARQuiver",
    "ar_quiver",
    "quiver_dot",
    "serre_identity",
    "generation_steps",
    "cok_crosscheck",
]


class _LambdaFields(NamedTuple):
    p: RingElement
    n: int


class LambdaContext(_LambdaFields):
    """The quotient ring by p^n; p is pinned to its canonical associate.

    A NamedTuple body may not define ``__new__``, so the fields live on a
    base class and the checks here.  ``_make`` goes through them too, so
    ``_replace``, unpickling and copying build only checked contexts.
    """

    __slots__ = ()

    def __new__(cls, p: RingElement, n: int):
        # n = 1 gives a semisimple quotient with no stable theory; keep n >= 2
        if not isinstance(n, int) or n < 2:
            raise ValidationError("n must be an integer >= 2")
        canonical = normalize(p).canonical
        if not is_prime(canonical):
            raise ValidationError(f"{p.text()} is not prime")
        return super().__new__(cls, canonical, n)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def modulus(self) -> RingElement:
        return self.p ** self.n

    def __str__(self):
        return f"{self.p.ring.name}/<{self.modulus.text()}>"


def delta(n: int, i: int) -> int:
    """min(i, n - i); the size of the stable endomorphism ring of V_i."""
    if not 0 <= i <= n:
        raise PreconditionError(f"index {i} outside 0..{n}")
    return min(i, n - i)


def mu(n: int, i: int, j: int) -> int:
    """min(delta(n, i), delta(n, j)); the stable hom size between V_i, V_j."""
    return min(delta(n, i), delta(n, j))


def hom_module(ctx: LambdaContext, i: int, j: int) -> int:
    """Hom(V_i, V_j) is cyclic with annihilator exponent min(i, j)."""
    for k in (i, j):
        if not 0 <= k <= ctx.n:
            raise PreconditionError(f"index {k} outside 0..{ctx.n}")
    return min(i, j)


def stable_hom(ctx: LambdaContext, i: int, j: int) -> int:
    """Hom modulo projectives; cyclic with annihilator exponent mu."""
    for k in (i, j):
        # V_0 = 0 and V_n projective are both zero in the stable category
        if not 1 <= k <= ctx.n - 1:
            raise PreconditionError(f"index {k} outside 1..{ctx.n - 1}")
    return mu(ctx.n, i, j)


def hom_cyclic(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """Annihilator of Hom(R/<a>, R/<b>) over R/<c>: the canonical gcd(a, b).

    Both a and b must divide the ambient modulus c.
    """
    for x in (a, b):
        if not divides(x, c):
            raise PreconditionError(
                f"{x.text()} does not divide the modulus {c.text()}")
    return gcd(a, b)


def syzygy(ctx: LambdaContext, i: int) -> int:
    """First syzygy index: V_i -> V_{n-i}; an involution off the projective."""
    if not 1 <= i <= ctx.n:
        raise PreconditionError(f"index {i} outside 1..{ctx.n}")
    return ctx.n - i


def quotient(ctx: LambdaContext, i: int, j: int) -> int:
    """V_i / (image of V_j) = V_{i-j} for j <= i."""
    if not 0 <= j <= i <= ctx.n:
        raise PreconditionError(f"need 0 <= j <= i <= {ctx.n}")
    return i - j


class CyclicDecomposition(NamedTuple):
    """A finite multiset of indecomposables V_i, 1 <= i <= n."""

    context: LambdaContext
    mult: tuple[tuple[int, int], ...]  # (index, count), index ascending

    @classmethod
    def from_counts(cls, ctx: LambdaContext,
                    counts: Mapping[int, int]) -> "CyclicDecomposition":
        items = []
        for i in sorted(counts):
            c = counts[i]
            if c < 0:
                raise ValidationError("negative multiplicity")
            if c == 0:
                continue
            if not 1 <= i <= ctx.n:
                raise PreconditionError(f"index {i} outside 1..{ctx.n}")
            items.append((i, c))
        return cls(ctx, tuple(items))

    def counts(self) -> dict[int, int]:
        return dict(self.mult)

    def length(self) -> int:
        return sum(i * c for i, c in self.mult)

    def __str__(self):
        if not self.mult:
            return "0"
        return " + ".join(f"V_{i}" if c == 1 else f"V_{i}^{c}"
                          for i, c in self.mult)


def decompose_module(ctx: LambdaContext,
                     annihilators) -> CyclicDecomposition:
    """Collects cyclic annihilators p^k into a decomposition; exponent 0
    entries are zero modules and are dropped.  Division stops once the
    exponent passes n, so a zero annihilator (which every power of p
    divides) is refused like any p^k with k > n."""
    counts: dict[int, int] = {}
    for ann in annihilators:
        ring = same_ring(ctx.p, ann)
        k, rest = _valuation(ring, ctx.p.payload, ann.payload, ctx.n + 1)
        if k > ctx.n:
            raise PreconditionError(f"exponent {k} exceeds n = {ctx.n}")
        if not ring._is_unit(rest):
            raise PreconditionError(
                f"{ann.text()} is not a power of {ctx.p.text()}")
        if k:
            counts[k] = counts.get(k, 0) + 1
    return CyclicDecomposition.from_counts(ctx, counts)


class ARSequence(NamedTuple):
    """Almost split sequence 0 -> V_i -> middle -> V_i -> 0."""

    left: int
    middle: CyclicDecomposition
    right: int


def ar_sequence(ctx: LambdaContext, i: int) -> ARSequence:
    """Middle term V_{i-1} + V_{i+1}, with V_0 dropped as the zero module."""
    if not 1 <= i <= ctx.n - 1:
        raise PreconditionError(
            f"almost split sequences end in V_i with 1 <= i <= {ctx.n - 1}")
    counts: dict[int, int] = {}
    if i - 1 >= 1:
        counts[i - 1] = 1
    counts[i + 1] = counts.get(i + 1, 0) + 1
    return ARSequence(left=i, middle=CyclicDecomposition.from_counts(ctx, counts),
                      right=i)


class ARQuiver(NamedTuple):
    """Auslander-Reiten quiver; every arrow carries valuation (1, 1).

    translation pairs (i, tau(i)); tau(i) is None exactly on projective
    vertices of the module-level quiver.
    """

    context: LambdaContext
    stable: bool
    vertices: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...]
    translation: tuple[tuple[int, int | None], ...]
    projectives: tuple[int, ...]

    def valuation(self, src: int, dst: int) -> tuple[int, int]:
        if (src, dst) not in self.arrows:
            raise PreconditionError(f"no arrow {src} -> {dst}")
        return (1, 1)

    def translation_map(self) -> dict[int, int | None]:
        return dict(self.translation)


def ar_quiver(ctx: LambdaContext, stable: bool = False) -> ARQuiver:
    """Nearest-neighbour double arrows on the indecomposables.

    Module level: vertices 1..n, V_n projective, tau fixes 1..n-1 and is
    undefined on n.  Stable level: vertices 1..n-1, tau the identity.
    """
    top = ctx.n - 1 if stable else ctx.n
    vertices = tuple(range(1, top + 1))
    arrows = []
    for i in range(1, top):
        arrows.append((i, i + 1))
        arrows.append((i + 1, i))
    arrows.sort()
    if stable:
        translation = tuple((i, i) for i in vertices)
        projectives: tuple[int, ...] = ()
    else:
        translation = tuple((i, i if i < ctx.n else None) for i in vertices)
        projectives = (ctx.n,)
    return ARQuiver(context=ctx, stable=stable, vertices=vertices,
                    arrows=tuple(arrows), translation=translation,
                    projectives=projectives)


def quiver_dot(q: ARQuiver) -> str:
    """Deterministic DOT rendering; tau appears as dashed self-loops."""
    kind = "stable" if q.stable else "module"
    lines = [
        f"digraph ar_quiver_{kind} {{",
        "  rankdir=LR;",
        "  node [shape=circle, fontsize=12];",
    ]
    for v in q.vertices:
        attrs = [f'label="V_{v}"']
        if v in q.projectives:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        lines.append(f"  V{v} [{', '.join(attrs)}];")
    for src, dst in q.arrows:
        lines.append(f"  V{src} -> V{dst};")
    for v, tv in q.translation:
        if tv is not None:
            lines.append(f'  V{v} -> V{tv} [style=dashed, label="tau"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def serre_identity(ctx: LambdaContext) -> bool:
    """Stable homs twisted by the syzygy: mu(i, j) = mu(j, n - i) for all
    non-projective indices."""
    n = ctx.n
    return all(mu(n, i, j) == mu(n, j, n - i)
               for i in range(1, n) for j in range(1, n))


def generation_steps(ctx: LambdaContext) -> int:
    """Closure steps from {V_1} under AR-sequence middle terms until all
    non-projective indecomposables appear.  Returns the step count; the
    socle generates the stable category in exactly n - 2 steps."""
    reached = {1}
    target = set(range(1, ctx.n))
    steps = 0
    while reached != target:
        new = set(reached)
        for i in reached:
            if 1 <= i <= ctx.n - 1:
                new.update(k for k, _ in ar_sequence(ctx, i).middle.mult)
        new &= target  # the projective V_n is not a stable vertex
        if new == reached:
            raise ValidationError("closure stalled before generating")
        reached = new
        steps += 1
    return steps


def cok_crosscheck(ctx: LambdaContext) -> bool:
    """Tie the index formulas to the matrix-factorization computations.

    Over W = p^n, the even hom module between e_{p^i} and e_{p^j} must be
    cyclic with annihilator p^mu(i, j), and the matrix-level suspension of
    e_{p^i} must land in the class labelled (p, n - i).  W is factored
    once, and each e_{p^i} (the primary test objects of W, in order
    i = 1, ..., n - 1) is built once.
    """
    n = ctx.n
    cd = critical_decompose(ctx.modulus)
    objects = primary_test_objects(cd)
    for i, ei in enumerate(objects, 1):
        expected = [(ctx.p, n - i)]
        got = primary_decompose(suspension(ei), cd).labels
        if list(got) != expected:
            return False
        for j, ej in enumerate(objects, 1):
            hom = hmf_hom(ei, ej)
            m = mu(n, i, j)
            expected_factors = (ctx.p ** m,) if m else ()
            if hom.even.cyclic_factors != expected_factors:
                return False
    return True
