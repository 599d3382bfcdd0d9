"""End-to-end register minimization for weighted Pauli collections.

The pipeline: pick an independent generating subset of the input, form
the pairwise commutation matrix of those generators, congruence-reduce it
to the canonical block diagonal, realize the canonical blocks with
single-letter operators on ``dim - rank/2`` registers (one Z per zero
block, an X/Z pair per antidiagonal block), map them back through the
reduction transform, and finally rebuild every original term from the new
generators using the coefficients recorded during extraction.  Weights
ride along untouched.

One routine, ``_gram_rows``, computes every pairwise symplectic product
here, a row at a time as a packed Python int, for all rows or for a chosen
few.  It picks its path from the input size: XORs of packed-int columns
for small or tall inputs, else an exact float32 numpy product of the
unpacked 0/1 images in row blocks, in the packed dense style of M4RI
(Albrecht, Bard & Hart 2010) and of the tableaux of Aaronson & Gottesman
2004.  The pipeline checks itself once, at the end: the new generators
must reproduce the input generators' commutation matrix and stay
independent.  That check raises an explicit RuntimeError, so it also runs
under ``python -O``.

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
from typing import Iterator, Optional, Sequence

import numpy as np

from .gf2 import (
    BitMatrix,
    CanonicalForm,
    _check_alternating,
    _independent_rows,
    _transpose,
    _xor_rows,
    congruence_reduce,
    rank,
)
from .pauli import PauliString, WeightedPauli, from_symplectic, to_symplectic

__all__ = [
    "GeneratorBasis",
    "CompressionResult",
    "EquivalenceReport",
    "symplectic_rank",
    "extract_generators",
    "commutation_matrix",
    "min_registers",
    "canonical_generators",
    "apply_basis_change",
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


def _uniform_n(ops: Sequence[PauliString], what: str) -> int:
    n = ops[0].n
    for op in ops[1:]:
        if op.n != n:
            raise ValueError(f"{what} mixes operators on {n} and {op.n} registers")
    return n


def symplectic_rank(ops: Sequence[PauliString]) -> int:
    """Number of compositionally independent operators in the collection."""
    if not ops:
        return 0
    _uniform_n(ops, "collection")
    return len(_independent_rows(to_symplectic(op) for op in ops)[0])


def extract_generators(collection: Sequence[PauliString]) -> GeneratorBasis:
    """Greedy left-to-right independent subset with reconstruction coefficients.

    An element joins the basis exactly when its symplectic image is
    outside the span of the images seen so far; identities and duplicates
    receive coefficient vectors over the basis instead (the identity gets
    the all-zero vector).
    """
    if not collection:
        raise ValueError("cannot extract generators from an empty collection")
    _uniform_n(collection, "collection")
    return GeneratorBasis(*_independent_rows(to_symplectic(op) for op in collection))


# The packed-int path costs about one big-int XOR per set image bit (m*n in
# all), the dense product a fixed ~40 us more plus ~1 ns per entry (m*m in
# all).  Measured on one core, the int path is faster up to m*n = 128 image
# bits (terms x registers; calls made cold, between unrelated work, as in a
# pipeline run) and on tall inputs, with more than 100 terms per register.
_SMALL_GRAM_BITS = 128
_TALL_GRAM_RATIO = 100
# Added to every Gram count: a float32 in [2**23, 2**24) is an exact integer
# whose lowest mantissa bit is its parity.
_OFFSET = 1 << 23
# Entries of one row block of the dense product (float32, so 16 MiB): inputs
# over 2048 terms stream their rows and never hold an m x m array.  BLAS
# repacks the whole right operand for every block, so fewer, larger blocks
# are faster (m=20000, n=200: 7.8 s at 2**20 entries, 4.8 s at 2**22).
_BLOCK_ENTRIES = 1 << 22


def _gram_rows(
    ops: Sequence[PauliString], rows: Optional[Sequence[int]] = None
) -> Iterator[int]:
    """Rows of the pairwise symplectic products of ``ops``, one at a time.

    Bit j of row i is the pairing of ops i and j, the parity of
    image_i & swap(image_j), where swap exchanges the x and z halves.
    ``rows`` lists the row indices to produce, in order; the default is
    every row.  Each row has all m bits, and the path depends on m and n
    only.

    Small inputs transpose the swapped images into one column set per
    image bit, so row i is the XOR of the column sets at the set bits of
    image i.  Larger ones count the coinciding bits with a float32
    product of the unpacked 0/1 images, in blocks of rows; the counts are
    integers of at most 2n, so the product is exact.  Callers ensure that
    all operators share one register count.

    Raises:
        ValueError: for 2**22 registers or more, where the float32 counts
            would no longer be exact.
    """
    if not ops:
        return
    m, n = len(ops), ops[0].n
    if m * n <= _SMALL_GRAM_BITS or m > _TALL_GRAM_RATIO * n:
        columns = _transpose([op.z_bits | (op.x_bits << n) for op in ops], 2 * n)
        for op in ops if rows is None else [ops[i] for i in rows]:
            yield _xor_rows(columns, to_symplectic(op))
        return
    if 2 * n >= _OFFSET:
        raise ValueError(f"Gram products are exact below {_OFFSET // 2} registers, got {n}")
    width = (2 * n + 7) // 8
    packed = np.frombuffer(
        b"".join(to_symplectic(op).to_bytes(width, "little") for op in ops), np.uint8
    ).reshape(m, width)
    # [x | z | x]: its first 2n columns are the images, its last 2n the
    # swapped images, both views of one array
    xzx = np.empty((m, 3 * n), np.float32)
    xzx[:, : 2 * n] = np.unpackbits(packed, axis=1, count=2 * n, bitorder="little")
    xzx[:, 2 * n :] = xzx[:, :n]
    images, swapped = xzx[:, : 2 * n], xzx[:, n:]
    left = swapped if rows is None else swapped[list(rows)]
    step = max(1, min(len(left), _BLOCK_ENTRIES // m))
    # one buffer pair for every block: fresh pages cost more than the product
    counts = np.empty((step, m), np.float32)
    parity = np.empty((step, m), np.uint8)
    row_bytes = (m + 7) // 8
    for start in range(0, len(left), step):
        block = left[start : start + step]
        size = len(block)
        np.matmul(block, images.T, out=counts[:size])
        counts[:size] += _OFFSET
        np.bitwise_and(counts[:size].view(np.int32), 1, out=parity[:size], casting="unsafe")
        rows = np.packbits(parity[:size], axis=1, bitorder="little").tobytes()
        for k in range(0, len(rows), row_bytes):
            yield int.from_bytes(rows[k : k + row_bytes], "little")


def commutation_matrix(basis_ops: Sequence[PauliString]) -> BitMatrix:
    """d x d matrix of pairwise symplectic products (symmetric, zero diagonal)."""
    if basis_ops:
        _uniform_n(basis_ops, "generator list")
    d = len(basis_ops)
    return BitMatrix(d, d, tuple(_gram_rows(basis_ops)))


def min_registers(m: BitMatrix) -> int:
    """Fewest registers able to carry these commutation relations: dim - rank/2."""
    _check_alternating(m, "min_registers")
    return m.rows - rank(m) // 2


def canonical_generators(iso_count: int, pair_count: int) -> list[PauliString]:
    """Operators realizing the canonical block diagonal on iso+pair registers.

    Returns, in order, a single Z on each of the first ``iso_count``
    registers, then an X and a Z on each remaining register (one
    anticommuting pair per register).
    """
    if iso_count < 0 or pair_count < 0:
        raise ValueError("block counts must be non-negative")
    q = iso_count + pair_count
    ops = [PauliString(q, 0, 1 << i) for i in range(iso_count)]
    for reg in range(iso_count, q):
        ops.append(PauliString(q, 1 << reg, 0))
        ops.append(PauliString(q, 0, 1 << reg))
    return ops


def apply_basis_change(
    canonical: Sequence[PauliString], transform: BitMatrix
) -> list[PauliString]:
    """Compose canonical operators along the rows of a transform.

    Output i is the product of the canonical operators selected by row i,
    so the output's commutation matrix is transform . D . transform^t.
    """
    d = len(canonical)
    if transform.rows != d or transform.cols != d:
        raise ValueError(
            f"transform is {transform.rows}x{transform.cols}, need {d}x{d} for {d} generators"
        )
    if not d:
        return []
    q = _uniform_n(canonical, "canonical operator list")
    images = [to_symplectic(op) for op in canonical]
    return [from_symplectic(_xor_rows(images, row), q) for row in transform.data]


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
    if not terms:
        raise ValueError("cannot compress an empty collection")
    ops = [t.op for t in terms]
    n = _uniform_n(ops, "collection")

    basis = extract_generators(ops)
    d = basis.num_generators
    if d == 0:
        raise ValueError("no non-identity content: every term is the identity")

    gram = commutation_matrix([ops[i] for i in basis.generator_indices])
    form = congruence_reduce(gram)
    q = form.iso_count + form.pair_count
    new_gens = apply_basis_change(
        canonical_generators(form.iso_count, form.pair_count), form.transform
    )
    # Equal Gram matrices mean transform . D . transform^t reproduces the
    # input's; full rank means the transform is invertible.
    if tuple(_gram_rows(new_gens)) != gram.data:
        raise RuntimeError("compressed generators do not reproduce the commutation matrix")
    if symplectic_rank(new_gens) != d:
        raise RuntimeError("compressed generators are not independent")

    new_images = [to_symplectic(g) for g in new_gens]
    images = [
        WeightedPauli(from_symplectic(_xor_rows(new_images, combo), q), term.weight)
        for term, combo in zip(terms, basis.coeffs)
    ]

    return CompressionResult(
        q=q,
        original_n=n,
        original_terms=terms,
        basis=basis,
        canonical=form,
        compressed_generators=tuple(new_gens),
        images=tuple(images),
    )


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
    if original:
        _uniform_n(original, "original collection")
        _uniform_n(candidate, "candidate collection")

    joined_original = _independent_rows(map(to_symplectic, original))[0]
    joined_candidate = _independent_rows(map(to_symplectic, candidate))[0]
    rows = sorted(set(joined_original).union(joined_candidate))
    pairwise = all(
        a == b for a, b in zip(_gram_rows(original, rows), _gram_rows(candidate, rows))
    )
    rank_original = len(joined_original)
    rank_candidate = len(joined_candidate)
    rank_match = rank_original == rank_candidate
    return EquivalenceReport(
        pairwise_match=pairwise,
        rank_original=rank_original,
        rank_candidate=rank_candidate,
        rank_match=rank_match,
        passed=pairwise and rank_match,
    )
