"""Exact matrix-factorization calculus over Z and GF(p)[x].

Smith normal forms with transformation certificates, strict and homotopy
classification of finite-rank matrix factorizations of a non-zero ring
element, mapping cones, hom modules, and the module calculus of the
Artinian quotients R/<p^n> with their Auslander-Reiten quivers.

The package re-exports each module's ``__all__``; ``jsonio`` and ``cli``
are reached as submodules.
"""

from . import (errors, rings, matrices, smith, factorizations, classify,
               artinian, sampling)

__version__ = "0.1.0"

# read from the module objects before the star imports, which rebind the
# package name ``smith`` to the function
__all__ = [name for module in (errors, rings, matrices, smith, factorizations,
                               classify, artinian, sampling)
           for name in module.__all__] + ["__version__"]

from .errors import *
from .rings import *
from .matrices import *
from .smith import *
from .factorizations import *
from .classify import *
from .artinian import *
from .sampling import *
