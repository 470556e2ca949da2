"""The induced-hom invertibility probe and the hom-module presentations,
kept as test oracles.

A morphism f is invertible in the homotopy category exactly when
Hom(t, f) is invertible for every primary elementary test object t
(``primary_test_objects``).  ``is_iso_by_induced_homs`` decides that from
the hom-module presentations (``hom_subquotients``) of each t.  It was part
of ``smithfact.classify`` until ``is_iso`` read invertibility from the cone
split alone; no library path needs it, so it lives here as the independent
check that criterion 5 (``test_acceptance.py``) and the probe tests in
``test_classify.py`` compare ``is_iso`` against.

``hom_subquotients`` builds both degrees' presentations, one subquotient
each.  It left ``smithfact.classify`` once ``hmf_hom`` read the odd module
off the even subquotient; it is the oracle of ``hmf_hom``.
"""

from __future__ import annotations

from smithfact.errors import ValidationError
from smithfact.factorizations import (MatrixFactorization, MfMorphism,
                                      hom_differentials)
from smithfact.matrices import RingMatrix, kron
from smithfact.rings import RingElement
from smithfact.smith import (ModuleInvariants, Subquotient,
                             _kernel_coordinates, smith, subquotient)

__all__ = ["hom_subquotients", "postcompose_matrix", "induced_hom_iso",
           "is_iso_by_induced_homs"]


def hom_subquotients(a: MatrixFactorization,
                     b: MatrixFactorization) -> tuple[Subquotient, Subquotient]:
    """Presentations (generators, relations) of the even and odd hom
    modules in the homotopy category."""
    d_even, d_odd = hom_differentials(a, b)
    return subquotient(d_even, d_odd), subquotient(d_odd, d_even)


def postcompose_matrix(f: MfMorphism, t: MatrixFactorization) -> RingMatrix:
    """Matrix of g -> f o g on flattened component pairs Hom(t, source) ->
    Hom(t, target); the same matrix acts on even and odd pairs."""
    eye_t = RingMatrix.identity(f.ring, t.rho)
    blk00 = kron(f.f00, eye_t)
    blk11 = kron(f.f11, eye_t)
    za = RingMatrix.zeros(f.ring, blk00.rows, blk11.cols)
    zb = RingMatrix.zeros(f.ring, blk11.rows, blk00.cols)
    return RingMatrix.block([[blk00, za], [zb, blk11]])


def induced_hom_iso(f: MfMorphism, t: MatrixFactorization) -> bool:
    """Whether Hom(t, f) is invertible on both hom-module degrees.

    Surjectivity plus equal order (``_order``) decides invertibility for
    these finite-length modules.
    """
    src_even, src_odd = hom_subquotients(t, f.source)
    dst_even, dst_odd = hom_subquotients(t, f.target)
    lmat = postcompose_matrix(f, t)
    return (_presented_map_iso(src_even, dst_even, lmat)
            and _presented_map_iso(src_odd, dst_odd, lmat))


def _order(m: ModuleInvariants) -> RingElement:
    """The order of a finite-length module: the product of its torsion
    factors, canonical because each factor is.

    Over a PID the order is multiplicative in short exact sequences, and
    its prime factors, counted with multiplicity, number the length.  So a
    surjection between modules of equal order has a kernel of order 1,
    hence zero, and is an isomorphism.  Equal orders give equal lengths,
    and a surjection between modules of equal length is an isomorphism,
    which forces equal orders: comparing orders gives every answer that
    comparing lengths gave, with no factoring.
    """
    order = m.ring.one
    for d in m.torsion_factors:
        order = order * d
    return order


def _presented_map_iso(src: Subquotient, dst: Subquotient,
                       lmat: RingMatrix) -> bool:
    y = _kernel_coordinates(dst.outer_smith, lmat @ src.generators)
    if y is None:
        raise ValidationError("induced map does not preserve cocycles")
    if src.invariants.free_rank or dst.invariants.free_rank:
        raise ValidationError("hom modules must have finite length")
    if _order(src.invariants) != _order(dst.invariants):
        return False
    onto = RingMatrix.block([[y, dst.relations]])
    dec = smith(onto)
    if dec.rank != y.rows:
        return False
    return all(d.is_unit for d in dec.invariant_factors)


def is_iso_by_induced_homs(f: MfMorphism, tests) -> bool:
    """Invertibility probed through Hom(t, -) for each test object."""
    return all(induced_hom_iso(f, t) for t in tests)
