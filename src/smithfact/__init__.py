"""Exact matrix-factorization calculus over Z and GF(p)[x].

Smith normal forms with transformation certificates, strict and homotopy
classification of finite-rank matrix factorizations of a non-zero ring
element, mapping cones, hom modules, and the module calculus of the
Artinian quotients R/<p^n> with their Auslander-Reiten quivers.
"""

from .errors import (ParseError, PreconditionError, SmithfactError,
                     ValidationError)
from .rings import (BezoutCertificate, CanonicalAssociate, GFPolynomialRing,
                    IntegerRing, PrimeFactorization, Ring, RingElement, ZZ,
                    divides, exact_div, factorize, gcd, gcd_all, gcd_bezout,
                    gf_polynomial_ring, is_prime, lcm,
                    normalize, ring_from_text, same_ring)
from .matrices import RingMatrix, kron
from .smith import (LinearSolver, MINOR_ORACLE_CAP, ModuleInvariants,
                    SmithDecomposition, Subquotient, determinantal_invariants,
                    equivalent, image_cokernel_invariants,
                    invariant_factors_via_delta, kernel_basis, smith,
                    subquotient)
from .factorizations import (MatrixFactorization, MfMorphism, Triangle,
                             compose, cone, cone_triangle, direct_sum,
                             elementary, elementary_morphism,
                             hom_differentials, identity_morphism, is_cocycle,
                             is_null_homotopic, null_homotopy_witness,
                             suspend_morphism, suspension, zero_morphism)
from .classify import (CriticalData, HomModules, MfClass, StrongDecomposition,
                       cone_split, critical_decompose,
                       critical_ideal_generator, elementary_sum, hmf_hom,
                       hmf_iso, hom_subquotients, induced_hom_iso, is_iso,
                       is_iso_by_induced_homs, is_zero_object, localize_class,
                       primary_decompose, primary_test_objects,
                       strong_decompose, strong_iso, suspend_class)
from .artinian import (ARQuiver, ARSequence, CyclicDecomposition,
                       LambdaContext, ar_quiver, ar_sequence, cok_crosscheck,
                       decompose_module, delta, generation_steps, hom_cyclic,
                       hom_module, mu, quiver_dot, quotient, serre_identity,
                       stable_hom, syzygy)
from .sampling import (conjugate_factorization, random_element,
                       random_label_multiset, random_matrix,
                       random_nonzero_element, random_unimodular)

__version__ = "0.1.0"

__all__ = [
    "SmithfactError", "ParseError", "ValidationError", "PreconditionError",
    "Ring", "IntegerRing", "GFPolynomialRing", "RingElement", "ZZ",
    "gf_polynomial_ring", "ring_from_text", "same_ring", "normalize",
    "CanonicalAssociate", "BezoutCertificate", "PrimeFactorization",
    "gcd", "gcd_all", "gcd_bezout", "lcm", "divides", "exact_div",
    "factorize", "is_prime",
    "RingMatrix", "kron",
    "SmithDecomposition", "smith", "MINOR_ORACLE_CAP",
    "determinantal_invariants", "invariant_factors_via_delta", "equivalent",
    "kernel_basis", "ModuleInvariants", "image_cokernel_invariants",
    "LinearSolver", "Subquotient", "subquotient",
    "MatrixFactorization", "MfMorphism", "Triangle",
    "elementary", "elementary_morphism", "identity_morphism", "zero_morphism",
    "compose", "is_cocycle", "suspension", "suspend_morphism", "direct_sum",
    "hom_differentials",
    "null_homotopy_witness", "is_null_homotopic", "cone", "cone_triangle",
    "CriticalData", "critical_decompose", "critical_ideal_generator",
    "StrongDecomposition", "strong_decompose", "strong_iso",
    "is_zero_object", "cone_split", "is_iso", "HomModules", "hmf_hom",
    "hom_subquotients", "induced_hom_iso", "is_iso_by_induced_homs",
    "MfClass", "primary_decompose", "hmf_iso", "localize_class",
    "suspend_class", "primary_test_objects", "elementary_sum",
    "LambdaContext", "delta", "mu", "hom_module", "stable_hom", "hom_cyclic",
    "syzygy", "quotient", "CyclicDecomposition", "decompose_module",
    "ARSequence", "ar_sequence", "ARQuiver", "ar_quiver", "quiver_dot",
    "serre_identity", "generation_steps", "cok_crosscheck",
    "random_element", "random_nonzero_element", "random_matrix",
    "random_unimodular", "conjugate_factorization", "random_label_multiset",
    "__version__",
]
