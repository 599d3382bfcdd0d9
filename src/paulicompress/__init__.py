"""Register minimization for collections of weighted Pauli operators.

Given a list of Pauli terms on n registers, find an equivalent list (same
pairwise commutation relations, same number of independent generators) on
the provably smallest number of registers, via GF(2) symplectic linear
algebra and a congruence reduction of the commutation matrix.
"""

from .compress import (
    CompressionResult,
    EquivalenceReport,
    GeneratorBasis,
    apply_basis_change,
    canonical_generators,
    commutation_matrix,
    compress,
    extract_generators,
    min_registers,
    symplectic_rank,
    verify_equivalence,
)
from .gf2 import (
    BitMatrix,
    CanonicalForm,
    congruence_reduce,
    is_invertible,
    mat_mul,
    rank,
)
from .pauli import (
    PauliString,
    WeightedPauli,
    compose,
    from_symplectic,
    pauli_weight,
    symplectic_product,
    to_symplectic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PauliString",
    "WeightedPauli",
    "compose",
    "from_symplectic",
    "pauli_weight",
    "symplectic_product",
    "to_symplectic",
    "BitMatrix",
    "CanonicalForm",
    "congruence_reduce",
    "is_invertible",
    "mat_mul",
    "rank",
    "CompressionResult",
    "EquivalenceReport",
    "GeneratorBasis",
    "apply_basis_change",
    "canonical_generators",
    "commutation_matrix",
    "compress",
    "extract_generators",
    "min_registers",
    "symplectic_rank",
    "verify_equivalence",
]
