"""End-to-end register minimization for weighted Pauli collections.

The pipeline: pick an independent generating subset of the input, form
the pairwise commutation matrix of those generators, congruence-reduce it
to the canonical block diagonal, realize the canonical blocks with
single-letter operators on ``dim - rank/2`` registers (one Z per zero
block, an X/Z pair per antidiagonal block), map them back through the
reduction transform, and finally rebuild every original term from the new
generators using the coefficients recorded during extraction.  Weights
ride along untouched.

Operators enter the GF(2) layer once: a public function ``f`` here turns
each collection it takes into images with one call of ``pauli._images``
(the one register-count check), passes them to its private twin ``_f``,
which sees only packed ints, and builds objects from what that returns.
The command line calls the twins directly, on the images ``io`` reads.

One routine, ``_gram_rows``, computes every pairwise symplectic product
here, a row at a time as a packed Python int, for all rows or for a chosen
few; the product, like the realize step and the rebuild, is ``gf2._mul``.
The pipeline checks itself once, at the end: the new generators must
reproduce the input generators' commutation matrix and stay independent.
That check raises an explicit RuntimeError, so it also runs under
``python -O``.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .gf2 import (
    BitMatrix,
    CanonicalForm,
    _check_alternating,
    _check_exact,
    _independent_rows,
    _mul,
    _transpose,
    congruence_reduce,
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
    with the original weight copied verbatim.
    """

    q: int
    original_n: int
    original_terms: tuple[WeightedPauli, ...]
    basis: GeneratorBasis
    canonical: CanonicalForm
    compressed_generators: tuple[PauliString, ...]
    images: tuple[WeightedPauli, ...]


def symplectic_rank(ops: Sequence[PauliString]) -> int:
    """Number of compositionally independent operators in the collection."""
    return len(_independent_rows(_images(ops, "collection")[1])[0])


def _extract_generators(images: Sequence[int]) -> GeneratorBasis:
    if not images:
        raise ValueError("cannot extract generators from an empty collection")
    return GeneratorBasis(*_independent_rows(images))


def _gram_rows(images: Sequence[int], n: int, rows: Sequence[int] | None = None) -> Iterator[int]:
    """Rows of the pairwise symplectic products of ``images``, one at a time.

    ``images`` are the symplectic images of operators on ``n`` registers.
    Bit j of row i is the parity of image_i & swap(image_j), where swap
    exchanges the x and z halves.  ``rows`` lists the row indices to
    produce, in order; the default is every row.  Raises ValueError for
    2**22 registers or more, before the transpose.
    """
    _check_exact(2 * n)
    # bit k of a swapped image is bit (k + n) mod 2n of the image
    columns = _transpose(images, 2 * n)
    left = images if rows is None else [images[i] for i in rows]
    return _mul(left, columns[n:] + columns[:n], len(images))


def commutation_matrix(basis_ops: Sequence[PauliString]) -> BitMatrix:
    """d x d matrix of pairwise symplectic products (symmetric, zero diagonal)."""
    return _commutation_matrix(*_images(basis_ops, "generator list"))


def _commutation_matrix(n: int, images: Sequence[int]) -> BitMatrix:
    return BitMatrix(len(images), len(images), _gram_rows(images, n))


def min_registers(m: BitMatrix) -> int:
    """Fewest registers able to carry these commutation relations: dim - rank/2."""
    _check_alternating(m, "min_registers")
    return m.rows - rank(m) // 2


def _canonical_generators(iso_count: int, pair_count: int) -> list[int]:
    # X on register t+1 is bit t, Z is bit q + t
    q = iso_count + pair_count
    pairs = [1 << (t + q * z) for t in range(iso_count, q) for z in (0, 1)]
    return [1 << (q + t) for t in range(iso_count)] + pairs


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
    basis, form, q, new_images, out = _compress(n, images)
    rebuilt = [from_symplectic(image, q) for image in out]
    return CompressionResult(
        q=q,
        original_n=n,
        original_terms=terms,
        basis=basis,
        canonical=form,
        compressed_generators=tuple(from_symplectic(image, q) for image in new_images),
        images=tuple(map(WeightedPauli, rebuilt, [t.weight for t in terms])),
    )


def _compress(n: int, images: Sequence[int]) -> tuple:
    """Returns the generator basis, the canonical form, q, and the images of
    the new generators and of every rebuilt term, on q registers."""
    if not images:
        raise ValueError("cannot compress an empty collection")
    basis = _extract_generators(images)
    d = basis.num_generators
    if d == 0:
        raise ValueError("no non-identity content: every term is the identity")

    gram = _commutation_matrix(n, [images[i] for i in basis.generator_indices])
    form = congruence_reduce(gram)
    q = form.iso_count + form.pair_count
    canonical = _canonical_generators(form.iso_count, form.pair_count)
    new_images = list(_mul(form.transform.data, canonical, 2 * q))
    # Equal Gram matrices mean transform . D . transform^t reproduces the
    # input's; full rank means the transform is invertible.
    if tuple(_gram_rows(new_images, q)) != gram.data:
        raise RuntimeError("compressed generators do not reproduce the commutation matrix")
    if len(_independent_rows(new_images)[0]) != d:
        raise RuntimeError("compressed generators are not independent")
    return basis, form, q, new_images, list(_mul(basis.coeffs, new_images, 2 * q))


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
    return _verify_with(n_a, images_a, _independent_rows(images_a)[0], n_b, images_b)


def _verify_with(n_a, images_a, joined_a, n_b, images_b) -> EquivalenceReport:
    """``_verify_equivalence`` given ``joined_a``, the greedy generator indices of ``images_a``."""
    joined_b = _independent_rows(images_b)[0]
    rows = sorted(set(joined_a).union(joined_b))
    gram_a, gram_b = _gram_rows(images_a, n_a, rows), _gram_rows(images_b, n_b, rows)
    pairwise = all(a == b for a, b in zip(gram_a, gram_b))
    rank_match = len(joined_a) == len(joined_b)
    return EquivalenceReport(
        pairwise_match=pairwise,
        rank_original=len(joined_a),
        rank_candidate=len(joined_b),
        rank_match=rank_match,
        passed=pairwise and rank_match,
    )
