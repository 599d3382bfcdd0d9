"""End-to-end register minimization for weighted Pauli collections.

The pipeline: pick an independent generating subset of the input, form
the pairwise commutation matrix of those generators, congruence-reduce it
to the canonical block diagonal, realize the canonical blocks with
single-letter operators on ``dim - rank/2`` registers (one Z per zero
block, an X/Z pair per antidiagonal block), map them back through the
reduction transform, and finally rebuild every original term from the new
generators using the coefficients recorded during extraction.  Weights
ride along untouched.

The canonical operators are distinct unit vectors, so the realize step
makes no product: new generator i is row i of the transform T with its
bits moved to the canonical positions, and bit b of the new generators
is one of T's columns (or zero, for the X of a zero block).  One
transpose of T's columns followed by those columns in register order
gives both T's rows and the new generators.  Likewise a generator's
combo is its own unit bit, so the rebuild copies the new generators into
the generator rows and multiplies only the dependent rows.

Operators enter the GF(2) layer once: a public function ``f`` here turns
each collection it takes into images with one call of ``pauli._images``
(the one register-count check), passes them to its private twin ``_f``,
which sees only packed ints, and builds objects from what that returns.
The command line calls the twins directly, on the images ``io`` reads.

Every pairwise symplectic product here is one call of
``gf2._mul_swapped``, a row at a time as a packed Python int: of the
generators with themselves for the Gram and the postcondition, of a few
chosen rows with all for the verify; the rebuild's product is ``gf2._mul``.
The pipeline checks itself once, at the end: the new generators must
reproduce the input generators' commutation matrix and stay independent.
That check raises an explicit RuntimeError, so it also runs under
``python -O``.  The reduction does not check the Gram on its way in:
every Gram of operators is alternating, so one that is not can never be
reproduced, and the reduction raises RuntimeError itself where such a
Gram leaves it without a pivot pair.

Equivalence is decided from a few Gram rows (the S-row lemma).  Let A and
B be two collections of m terms, and S the union of the greedy generator
indices of both.  Their m x m commutation matrices are equal exactly when
the rows indexed by S are.  For each term j let c_j hold j's coefficients
over A's generators, and d_j = b_j - sum_k c_jk b_k.  Equal S-rows make
d_j pair to zero with every b_l, l in S (both k and l lie in S, where the
two matrices agree, and a_j - sum_k c_jk a_k is zero).  B's generators lie
in S and span B, so d_j pairs to zero with all of B: row j of B is
sum_k c_jk (row k of B) = sum_k c_jk (row k of A), which is row j of A.
So ``verify_equivalence`` computes |S| <= rank_A + rank_B rows per
side, O(|S| m) products instead of O(m^2).

A compression is also verified from its own certificate (``_certify``),
with no elimination at all: the certificate lemma.  Let A be the input
and B the output, m rows each, J the generator indices, d = |J|, N the
d new generators, and C the m x d matrix of the extraction's combos,
whose row J_k is e_k.  The certificate is the rebuild of both sides:
rebuilding A | B << 2n from its generator rows reproduces it, that is,
C.(A_J | N << 2n) = A | B << 2n.  At row J_k this says B_{J_k} = N_k,
so the rebuild's rows are those of A | B << 2n, and at every row A =
C.A_J and B = C.B_J.  Then Gram(A) = C.Gram(A_J).C^t = C.Gram(B_J).C^t =
Gram(B); and A_J and B_J are rows of A and B that span them, so both
have rank d.  The middle equality and the independence of N = B_J are
the postcondition's checks; that A_J is independent is the extraction's.
For the pipeline's own output B_J = N holds by construction, since the
rebuild copies the new generators into the generator rows; the
certificate still checks it, because it is handed the output as an
argument and must reject one whose generator rows were changed.  The
input half is compared with the input, so a fault in ``_rebuild``, which
both the pipeline and the certificate call, cannot cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf2 import (
    BitMatrix,
    CanonicalForm,
    _check_alternating,
    _congruence_columns,
    _independent_rows,
    _joined_rows,
    _mul,
    _mul_swapped,
    _transpose,
    rank,
)
from .pauli import PauliString, WeightedPauli, _images, from_symplectic

__all__ = [
    "GeneratorBasis",
    "CompressionResult",
    "EquivalenceReport",
    "symplectic_rank",
    "commutation_matrix",
    "min_registers",
    "compress",
    "verify_equivalence",
]


@dataclass(frozen=True)
class GeneratorBasis:
    """An independent generating subset plus reconstruction coefficients.

    ``generator_indices[j]`` is the input position of generator j.
    ``coeffs[e]`` packs the GF(2) coefficient vector of input element e
    over the generators (bit j set = generator j participates), so the
    symplectic image of element e is the XOR of its generators' images.
    """

    generator_indices: tuple[int, ...]
    coeffs: tuple[int, ...]

    @property
    def num_generators(self) -> int:
        return len(self.generator_indices)


@dataclass(frozen=True)
class EquivalenceReport:
    pairwise_match: bool
    rank_original: int
    rank_candidate: int
    rank_match: bool
    passed: bool


@dataclass(frozen=True)
class CompressionResult:
    """Everything produced by :func:`compress`.

    ``images`` holds one term per original input term, on ``q`` registers,
    with the original weight copied verbatim; the compressed generators
    are ``images[j].op`` for j in ``basis.generator_indices``.
    """

    q: int
    original_n: int
    basis: GeneratorBasis
    canonical: CanonicalForm
    images: tuple[WeightedPauli, ...]


def symplectic_rank(ops: Sequence[PauliString]) -> int:
    """Number of compositionally independent operators in the collection."""
    n, images = _images(ops, "collection")
    return len(_joined_rows(images, 2 * n))


def commutation_matrix(basis_ops: Sequence[PauliString]) -> BitMatrix:
    """d x d matrix of pairwise symplectic products (symmetric, zero diagonal)."""
    return _commutation_matrix(*_images(basis_ops, "generator list"))


def _commutation_matrix(n: int, images: Sequence[int]) -> BitMatrix:
    return BitMatrix(len(images), len(images), _mul_swapped(images, images, n))


def min_registers(m: BitMatrix) -> int:
    """Fewest registers able to carry these commutation relations: dim - rank/2."""
    _check_alternating(m, "min_registers")
    return m.rows - rank(m) // 2


def _realize_columns(iso_count: int, columns: list[int]) -> list[int]:
    """The new generators' 2q columns (bit i = generator i) from the
    transform's: bit t is the X and bit q + t the Z of register t+1.
    Registers 1..iso carry a zero block's Z alone, each later one a pair,
    X from its first column and Z from its second."""
    pairs = columns[iso_count:]
    return [0] * iso_count + pairs[::2] + columns[:iso_count] + pairs[1::2]


def _realize(gram: BitMatrix) -> tuple[CanonicalForm, int, list[int]]:
    """``congruence_reduce(gram)``, q and the images of the new generators on
    q registers, from one transpose of the transform's columns and their
    realized columns: row i holds T's row i in its low d bits and new
    generator i above them."""
    d = gram.rows
    iso_count, columns = _congruence_columns(gram)
    q = (d + iso_count) // 2
    rows = _transpose(columns + _realize_columns(iso_count, columns), d)
    low = (1 << d) - 1
    form = CanonicalForm(d, iso_count, q - iso_count, BitMatrix(d, d, [r & low for r in rows]))
    return form, q, [r >> d for r in rows]


def _rebuild(basis: GeneratorBasis, new_images: Sequence[int], cols: int) -> list[int]:
    """Every term rebuilt from ``new_images``, one row of ``cols`` bits per
    generator: the new generators, or for the certificate the input's
    generator rows joined to them.  A generator's combo is its own unit
    bit, so its row is its own; only the other rows take the product."""
    joined = basis.generator_indices
    dependent = list(basis.coeffs)
    for j in reversed(joined):
        del dependent[j]
    out = list(_mul(dependent, new_images, cols))
    # the generator indices increase, so each lands after the rows before it
    for j, new in zip(joined, new_images):
        out.insert(j, new)
    return out


def compress(collection: Sequence[WeightedPauli]) -> CompressionResult:
    """Rewrite a weighted collection onto the minimal number of registers.

    The output preserves the pairwise commutation pattern of every input
    term and the number of independent generators; weights are attached
    to the corresponding images unchanged.

    Raises:
        ValueError: empty input, mixed register counts, or a collection
            with no non-identity content.
        RuntimeError: the new generators fail the postcondition (an
            internal fault, checked at every size and under ``python -O``).
    """
    terms = tuple(collection)
    n, images = _images([t.op for t in terms], "collection")
    basis, form, q, new_images, out, _ = _compress(n, images)
    rebuilt = [from_symplectic(image, q) for image in out]
    return CompressionResult(
        q=q,
        original_n=n,
        basis=basis,
        canonical=form,
        images=tuple(map(WeightedPauli, rebuilt, [t.weight for t in terms])),
    )


def _compress(n: int, images: Sequence[int]) -> tuple:
    """Returns the generator basis, the canonical form, q, the images of the
    new generators and of every rebuilt term, on q registers, and the input
    generators' commutation matrix."""
    if not images:
        raise ValueError("cannot compress an empty collection")
    basis = GeneratorBasis(*_independent_rows(images, 2 * n))
    d = basis.num_generators
    if d == 0:
        raise ValueError("no non-identity content: every term is the identity")

    gram = _commutation_matrix(n, [images[i] for i in basis.generator_indices])
    form, q, new_images = _realize(gram)
    # Equal Gram matrices mean transform . D . transform^t reproduces the
    # input's; full rank means the transform is invertible.
    if tuple(_mul_swapped(new_images, new_images, q)) != gram.data:
        raise RuntimeError("compressed generators do not reproduce the commutation matrix")
    if len(_joined_rows(new_images, 2 * q)) != d:
        raise RuntimeError("compressed generators are not independent")
    return basis, form, q, new_images, _rebuild(basis, new_images, 2 * q), gram


def _certify(n, images, basis, q, new_images, out) -> bool:
    """Whether ``out`` is equivalent to ``images`` by the compression's own
    certificate (the certificate lemma in the module docstring).  False
    means only that the certificate fails; the output may still verify.
    """
    shift = 2 * n
    rows = [images[j] | new << shift for j, new in zip(basis.generator_indices, new_images)]
    return _rebuild(basis, rows, shift + 2 * q) == [a | b << shift for a, b in zip(images, out)]


def verify_equivalence(
    original: Sequence[PauliString], candidate: Sequence[PauliString]
) -> EquivalenceReport:
    """Check that two collections share all pairwise commutation relations
    and have the same number of independent generators.

    Equal pairwise relations alone would accept candidates that collapse
    independent generators onto each other; the rank condition rules that
    out.

    One greedy elimination per side gives its rank and its generator
    indices.  With S the union of those indices, the two commutation
    matrices are equal exactly when their rows indexed by S are (the
    S-row lemma in the module docstring), so only those |S| rows are
    computed and compared: O(|S| m) pairings, not O(m^2).
    """
    if len(original) != len(candidate):
        raise ValueError(
            f"collections differ in length: {len(original)} vs {len(candidate)}"
        )
    n_a, images_a = _images(original, "original collection")
    n_b, images_b = _images(candidate, "candidate collection")
    return _verify_equivalence(n_a, images_a, n_b, images_b)


def _verify_equivalence(n_a, images_a, n_b, images_b) -> EquivalenceReport:
    joined_a, joined_b = _joined_rows(images_a, 2 * n_a), _joined_rows(images_b, 2 * n_b)
    rows = sorted(set(joined_a).union(joined_b))
    gram_a = _mul_swapped([images_a[i] for i in rows], images_a, n_a)
    gram_b = _mul_swapped([images_b[i] for i in rows], images_b, n_b)
    pairwise = all(a == b for a, b in zip(gram_a, gram_b))
    rank_match = len(joined_a) == len(joined_b)
    return EquivalenceReport(
        pairwise_match=pairwise,
        rank_original=len(joined_a),
        rank_candidate=len(joined_b),
        rank_match=rank_match,
        passed=pairwise and rank_match,
    )
