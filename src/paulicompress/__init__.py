"""Register minimization for collections of weighted Pauli operators.

Given a list of Pauli terms on n registers, find an equivalent list (same
pairwise commutation relations, same number of independent generators) on
the provably smallest number of registers, via GF(2) symplectic linear
algebra and a congruence reduction of the commutation matrix.
"""

__version__ = "0.1.0"

# the star import below rebinds ``compress`` to the function, so the lists
# are read while the name is still the module
from . import compress, gf2, pauli

__all__ = ["__version__", *pauli.__all__, *gf2.__all__, *compress.__all__]

from .compress import *
from .gf2 import *
from .pauli import *
