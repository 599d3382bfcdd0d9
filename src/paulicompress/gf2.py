"""Exact linear algebra over GF(2) on packed-integer bit matrices.

Rows are stored as Python integers (bit j = column j), so row addition is
a single XOR regardless of width.  This module owns the one layout that
moves such rows to numpy 0/1 arrays and back (bit j of a row is bit j of
its little-endian bytes, ``bitorder="little"``): :func:`_unpack_rows` and
:func:`_pack_rows`, which the letter codec of ``pauli`` and the products
here share.  They make one of two conversions: rows of up to 64 bits
cross as one numpy array of ``<u8`` words, wider rows as one
``to_bytes`` or ``from_bytes`` each.  Every other change of shape goes
through them too: a transpose unpacks, transposes the 0/1 array and
packs, and the '0'/'1' row texts of reports are decoded from the
unpacked array.  Everything here is deterministic.  One elimination,
:func:`_independent_rows`, decides linear independence for the whole
package, so :func:`rank` and the generator basis of ``compress`` are the
same computation.  Its answer is that of a greedy left-to-right XOR basis:
row i joins when it is outside the span of the rows before it, and its
combo packs it as an XOR of joined rows.  The row loop keeps each row and
its combo as one int, the combo in the low bits, so one XOR reduces both,
and finds a pivot by leading bit in a list.  Both answers are unique, so
a tall input (over ``_TALL_ROWS`` = 16 rows per column) gets them from its
columns by the column lemma.  Let R be the reduced echelon form of the
transpose, pivots at the lowest bits first.  R's columns satisfy the same
linear relations as the transpose's, which are the input rows.  So the
joined rows are R's pivot columns, and row i's combo is column i of R.
Combos are made only where a caller reads them: :func:`_joined_rows`
gives the joined rows alone, and on a tall input stops after the forward
elimination, whose pivots are already R's.

It also owns the one GF(2) matrix product, :func:`_mul`, and the size rule
that picks its path: packed-row XORs or an exact float32 numpy product, in
the packed dense style of M4RI (Albrecht, Bard & Hart 2010) and of the
tableaux of Aaronson & Gottesman 2004.  :func:`mat_mul` and the rebuild of
``compress`` get their rows from it, and the Gram from :func:`_mul_swapped`,
the same product by a half-swapped transpose.

The one non-textbook routine is :func:`congruence_reduce`, which factors
a symmetric zero-diagonal matrix M as T.D.T^t with T invertible and D a
block diagonal of zero 1x1 blocks followed by antidiagonal 2x2 blocks, by
exact simultaneous row-and-column operations.  Its swaps act on a position
list, and T is not accumulated: a column of T is a unit vector until its
own pivot step, so a pair's columns are its two rows at that step.  A
pair step makes one XOR per row in the union of its two hit masks: a row
both pair rows hit gets their XOR at once.  :func:`_congruence_columns`
returns T by its columns, from which ``compress`` gathers the new
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BitMatrix",
    "CanonicalForm",
    "rank",
    "mat_mul",
    "is_invertible",
    "congruence_reduce",
]


_TEXT_BITS = {"0": 0, "1": 1}


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix; ``data[i]`` is row i as an integer bitset.  Any
    iterable of rows may be given as ``data``; it is kept as a tuple."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative dimensions {self.rows}x{self.cols}")
        if len(self.data) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.data)}")
        top = 1 << self.cols
        if any(not 0 <= r < top for r in self.data):
            raise ValueError(f"row value out of range for {self.cols} columns")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, (1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "BitMatrix":
        """Build from an iterable of 0/1 sequences.

        Every entry must equal 0 or 1; ``False`` and ``True`` are accepted
        as 0 and 1.  Any other entry raises ``ValueError`` naming its
        (row, column), counted from 0.
        """
        packed = []
        width = None
        for i, row in enumerate(rows):
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"ragged input: row of length {len(row)}, expected {width}")
            acc = 0
            for j, bit in enumerate(row):
                if bit == 1:
                    acc |= 1 << j
                elif bit != 0:
                    raise ValueError(f"entry ({i}, {j}) is {bit!r}, expected 0 or 1")
            packed.append(acc)
        return cls(len(packed), width or 0, packed)

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "BitMatrix":
        """Build from '0'/'1' strings, leftmost character = column 0.

        Any other character is rejected as :meth:`from_rows` rejects a
        non-bit entry.
        """
        return cls.from_rows([[_TEXT_BITS.get(ch, ch) for ch in row] for row in rows])

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return (self.data[i] >> j) & 1

    def to_rows(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.data]

    def to_strings(self) -> list[str]:
        """Each row as '0'/'1' text, column 0 first."""
        if not self.cols:
            return [""] * self.rows
        text = (_unpack_rows(self.data, self.cols) + ord("0")).tobytes().decode()
        return [text[k : k + self.cols] for k in range(0, len(text), self.cols)]

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, _transpose(self.data, self.cols))

    def is_symmetric(self) -> bool:
        if self.rows != self.cols or not self.rows:  # the bit codec needs a row and a column
            return self.rows == self.cols
        return bool(((bits := _unpack_rows(self.data, self.cols)) == bits.T).all())

    def has_zero_diagonal(self) -> bool:
        return all(((r >> i) & 1) == 0 for i, r in enumerate(self.data))

    def __str__(self) -> str:
        return "\n".join(self.to_strings())


@dataclass(frozen=True)
class CanonicalForm:
    """Result of :func:`congruence_reduce`.

    The input matrix equals ``transform . D . transform^t`` where D is
    :meth:`canonical_matrix`: ``iso_count`` zero 1x1 blocks followed by
    ``pair_count`` antidiagonal 2x2 blocks.
    """

    dim: int
    iso_count: int
    pair_count: int
    transform: BitMatrix

    def __post_init__(self):
        if self.iso_count < 0 or self.pair_count < 0:
            raise ValueError("block counts must be non-negative")
        if self.iso_count + 2 * self.pair_count != self.dim:
            raise ValueError(
                f"block counts ({self.iso_count} + 2*{self.pair_count}) do not add up to dim {self.dim}"
            )
        if self.transform.rows != self.dim or self.transform.cols != self.dim:
            raise ValueError("transform must be square of size dim")

    def canonical_matrix(self) -> BitMatrix:
        """The block diagonal D: zeros first, then 2x2 antidiagonal blocks."""
        rows = [0] * self.dim
        for k in range(self.pair_count):
            i = self.iso_count + 2 * k
            rows[i] |= 1 << (i + 1)
            rows[i + 1] |= 1 << i
        return BitMatrix(self.dim, self.dim, rows)


def _transpose(rows: Sequence[int], cols: int) -> tuple[int, ...]:
    """The ``cols`` columns of a packed matrix, each as a packed row."""
    if not (rows and cols):  # the bit codec needs at least one row and column
        return (0,) * cols
    # packbits runs several times faster along the rows of a contiguous array
    return tuple(_pack_rows(np.ascontiguousarray(_unpack_rows(rows, cols).T)))


def _unpack_rows(rows: Sequence[int], cols: int) -> np.ndarray:
    """The packed rows as a len(rows) x cols ``uint8`` array of 0/1, column j = bit j.

    Every row must fit in ``cols`` bits, and ``cols`` must be at least 1.
    Rows of up to 64 bits enter numpy as one array of ``<u8`` words, wider
    ones one ``to_bytes`` each; both are little-endian bytes.
    """
    if cols <= 64:
        packed = np.array(rows, "<u8").view(np.uint8)
        width = 8
    else:
        width = (cols + 7) // 8
        packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=cols, bitorder="little")


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Inverse of :func:`_unpack_rows`: each row of a 0/1 array as a packed int."""
    rows, cols = bits.shape
    if cols <= 64:
        # each row's packed bytes fill the low end of one <u8 word
        words = np.zeros((rows, 8), np.uint8)
        words[:, : (cols + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
        return words.view("<u8").ravel().tolist()
    # a row of packed bytes is one void item only on a C-contiguous array
    packed = np.ascontiguousarray(np.packbits(bits, axis=1, bitorder="little"))
    items = packed.view(f"V{packed.shape[1]}").ravel().tolist()
    return list(map(int.from_bytes, items, repeat("little")))


def _independent_rows(rows: Sequence[int], cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy left-to-right XOR basis of packed rows of ``cols`` bits.

    Row i joins the basis exactly when it is outside the span of the rows
    before it.  Returns ``(joined, combos)``: ``joined`` lists the indices
    of the rows that joined, in order, and ``combos[i]`` packs row i as an
    XOR of joined rows (bit k set = the k-th joined row participates).
    A joined row's combo is its own bit; a zero row's combo is 0.

    The row loop keeps pivots by their leading bit, each with its combo
    in its low bits.  Over ``_TALL_ROWS`` rows per column,
    :func:`_column_basis` eliminates the ``cols`` columns instead and
    returns the same answer: the joined rows are the pivot columns of the
    transpose's reduced echelon form, and the combos are that form's
    entries (the column lemma, module docstring).
    """
    if len(rows) > _TALL_ROWS * cols:
        return _column_basis(rows, cols)
    # A row and its combo are one int, the combo in the low ``low`` bits,
    # wide enough for every joined row; one XOR reduces both.  Pivots have
    # distinct leading bits, so a row whose leading bit has no pivot is
    # outside their span; pivots[b] is the pivot led by bit b, or 0.
    low = min(len(rows), cols)
    pivots = [0] * (low + cols + 1)
    joined: list[int] = []
    combos: list[int] = []
    for i, w in enumerate(rows):
        w <<= low
        while (top := w.bit_length()) > low:
            hit = pivots[top]
            if not hit:
                bit = 1 << len(joined)
                pivots[top] = w ^ bit
                joined.append(i)
                w = bit
                break
            w ^= hit
        combos.append(w)
    return tuple(joined), tuple(combos)


def _column_pivots(rows: Sequence[int], cols: int) -> dict[int, int]:
    """The forward elimination of the transpose: its ``cols`` rows, each an
    m-bit int, reduced to an echelon basis keyed by lowest set bit.  The
    keys are the joined rows of :func:`_independent_rows`."""
    pivots: dict[int, int] = {}
    for w in _transpose(rows, cols):
        while w:
            low = (w & -w).bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = w
                break
            w ^= hit
    return pivots


def _column_basis(rows: Sequence[int], cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`_independent_rows` from the reduced echelon form R of the
    transpose: :func:`_column_pivots` back-substituted.  The pivot bits are
    the joined rows, and the columns of R the combos."""
    pivots = _column_pivots(rows, cols)
    joined = sorted(pivots)
    reduced = [pivots[j] for j in joined]
    # back substitution, last pivot first: each row is cleared at the later
    # pivot columns with rows already zero at every other pivot column
    for k in range(len(reduced) - 2, -1, -1):
        for later in range(k + 1, len(reduced)):
            if reduced[k] >> joined[later] & 1:
                reduced[k] ^= reduced[later]
    return tuple(joined), _transpose(reduced, len(rows))


def _joined_rows(rows: Sequence[int], cols: int) -> tuple[int, ...]:
    """``_independent_rows(rows, cols)[0]`` without the combos: over
    ``_TALL_ROWS`` rows per column, only the forward column elimination."""
    if len(rows) > _TALL_ROWS * cols:
        return tuple(sorted(_column_pivots(rows, cols)))
    return _independent_rows(rows, cols)[0]


def rank(m: BitMatrix) -> int:
    """GF(2) row rank: the number of rows that join the greedy XOR basis."""
    return len(_joined_rows(m.data, m.cols))


def _xor_rows(rows: Sequence[int], mask: int) -> int:
    """XOR of ``rows[j]`` over the set bits j of ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


# The int path costs about one big-int XOR per set bit of a left row, the
# dense one a fixed ~40 us more plus ~1 ns per multiply-add.  Measured on the
# Gram (k = 2n, cols = m; one core, calls made cold as in a pipeline run),
# the int path is faster up to m*n = 128 image bits and for tall inputs,
# with over 100 terms per register (m=10**4, n=50: 0.12 s against
# 0.18-0.36 s).  It also keeps verify's memory: at m=10**5, n=50 the dense
# float32 images of both sides lift a verify run's peak RSS from 137 to 279 MB.
_SMALL_MUL_BITS = 256
_WIDE_MUL_RATIO = 50
# The size rule of :func:`_independent_rows` and :func:`_joined_rows`.  The
# column path costs two transposes (some 25 us of numpy on small inputs)
# plus one m-bit XOR per (column, pivot) step and the back substitution; the
# rank-only column path one transpose and no back substitution; the row
# loop one ``cols``-bit XOR per (row, pivot) step.  Measured the same way,
# the columns win above about 13 rows per column at 10 to 24 columns
# (Jordan-Wigner N=5, 131x10: 51 us on rows, 54 on columns; N=6, 283x12:
# 147 against 94 us; N=12, 5328x24: 7.4 against 2.0 ms), sooner when
# wider (random 768x48: 3.1 against 0.8 ms; 10**5x100: 0.61 against 0.16 s)
# and later when narrower (random 128x4: 43 against 57 us).  In a pipeline
# run every commutation matrix and new generator list is at most as tall as
# it is wide, so only term lists take the columns.
_TALL_ROWS = 16
# Added to every count of the dense product: a float32 in [2**23, 2**24) is
# an exact integer whose lowest mantissa bit is its parity.
_OFFSET = 1 << 23
# Bytes of one row block of the dense product, over its three arrays: the
# float32 left rows (4k bytes a row), the float32 counts (4 * cols) and the
# uint8 parity (cols), so a long product streams its rows and never holds a
# whole result.  BLAS repacks the whole right operand for every block, so
# fewer, larger blocks are faster (the Gram of m=20000, n=200: 7.8 s at
# blocks of 52 rows, 4.8 s at 209; this budget gives 206).
_BLOCK_BYTES = 5 << 22


def _check_exact(k: int) -> None:
    """Reject a product over ``k`` right rows whose float32 counts could be inexact."""
    if k >= _OFFSET:
        raise ValueError(f"GF(2) products are exact below {_OFFSET} summed rows, got {k}")


def _xors(k: int, cols: int) -> bool:
    """The size rule: whether a right operand of k rows of ``cols`` bits takes the XORs."""
    return k * cols <= _SMALL_MUL_BITS or cols > _WIDE_MUL_RATIO * k


def _mul(left: Sequence[int], right: Sequence[int], cols: int) -> Iterator[int]:
    """The rows of left . right over GF(2), one packed int at a time.

    ``right`` is k packed rows of ``cols`` bits; row i is the XOR of the
    right rows at the set bits of ``left[i]``.  Right operands of at most
    256 bits, or with rows over 50 times longer than they are tall, take
    the XORs; the rest an exact float32 product, a block of left rows at a
    time.  An empty ``left`` unpacks nothing.  Raises ValueError for
    k >= 2**23, before anything is unpacked.
    """
    k = len(right)
    _check_exact(k)
    if not left or _xors(k, cols):
        return (_xor_rows(right, row) for row in left)
    return _dense_mul(left, _unpack_rows(right, cols))


def _mul_swapped(left: Sequence[int], other: Sequence[int], half: int) -> Iterator[int]:
    """Rows of left . S . other^t, S swapping the halves of the 2 * ``half``-bit rows of
    ``other``: bit j of row i is the parity of left[i] & swap(other[j]).  :func:`_mul`'s
    size rule and errors; the float32 path multiplies by a view of ``other`` unpacked once."""
    k = 2 * half
    _check_exact(k)
    if _xors(k, len(other)):
        # bit t of a swapped row is bit (t + half) mod k of the row
        columns = _transpose(other, k)
        right = columns[half:] + columns[:half]
        return (_xor_rows(right, row) for row in left)
    # the parity of l & swap(o) is that of swap(l) & o
    low = (1 << half) - 1
    return _dense_mul([row >> half | (row & low) << half for row in left], _unpack_rows(other, k).T)


def _dense_mul(left: Sequence[int], right_bits: np.ndarray) -> Iterator[int]:
    """The float32 path of :func:`_mul` on the unpacked k x cols right operand, k, cols >= 1."""
    k, cols = right_bits.shape
    right_bits = right_bits.astype(np.float32)
    step = max(1, min(len(left), _BLOCK_BYTES // (4 * k + 5 * cols)))
    # one buffer pair for every block: fresh pages cost more than the product
    counts = np.empty((step, cols), np.float32)
    parity = np.empty((step, cols), np.uint8)
    for start in range(0, len(left), step):
        block = _unpack_rows(left[start : start + step], k).astype(np.float32)
        size = len(block)
        np.matmul(block, right_bits, out=counts[:size])
        counts[:size] += _OFFSET
        np.bitwise_and(counts[:size].view(np.int32), 1, out=parity[:size], casting="unsafe")
        yield from _pack_rows(parity[:size])


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return BitMatrix(a.rows, b.cols, _mul(a.data, b.data, b.cols))


def is_invertible(m: BitMatrix) -> bool:
    """True iff the matrix is square with full GF(2) rank."""
    if m.rows != m.cols:
        raise ValueError(f"invertibility is defined for square matrices, got {m.rows}x{m.cols}")
    return rank(m) == m.rows


def _check_alternating(m: BitMatrix, what: str) -> None:
    """Reject anything but a square, symmetric, zero-diagonal matrix."""
    if m.rows != m.cols:
        raise ValueError(f"{what} needs a square matrix, got {m.rows}x{m.cols}")
    if not m.is_symmetric():
        raise ValueError(f"{what} needs a symmetric matrix")
    if not m.has_zero_diagonal():
        raise ValueError(f"{what} needs a zero diagonal")


def congruence_reduce(m: BitMatrix) -> CanonicalForm:
    """Factor a symmetric hollow matrix as transform . D . transform^t.

    D is the canonical block diagonal (zero rows first, then antidiagonal
    pairs).  The pivot rule is fixed: take the first row with a nonzero
    entry in the active trailing block, pair it with the first column it
    hits, move the pair to the front of the block by symmetric swaps, and
    clear the rest of its rows and columns by simultaneous row-and-column
    additions.  Pairs accumulate at the front; a final permutation (also
    a congruence) puts the zero rows first.

    The swaps act on a position list: rows keep their input indices and
    ``order[p]`` is the input index at position p.  Nor is the transform
    accumulated: a step changes only its pair's two columns, so a column
    still in the active block is the unit vector of its index.  A pair's
    columns are thus its two rows at its step; a zero block's, unit vectors.

    Args:
        m: square, symmetric matrix with zero diagonal.

    Returns:
        CanonicalForm with ``iso_count = dim - rank(m)`` and
        ``pair_count = rank(m) / 2``.

    Raises:
        ValueError: if the input is not square, not symmetric, or has a
            nonzero diagonal entry.
    """
    _check_alternating(m, "congruence reduction")
    iso_count, columns = _congruence_columns(m)
    d = m.rows
    transform = BitMatrix(d, d, _transpose(columns, d))
    return CanonicalForm(dim=d, iso_count=iso_count, pair_count=(d - iso_count) // 2,
                         transform=transform)


def _congruence_columns(m: BitMatrix) -> tuple[int, list[int]]:
    """:func:`congruence_reduce` as ``(iso_count, columns)``: the columns of
    its transform, each a packed row of ``m.rows`` bits.

    The input is not checked: ``compress`` reduces the Gram it built, and
    its postcondition rejects any transform from a non-alternating one.
    Where such an input leaves the live row without a later row to hit,
    this raises RuntimeError.
    """
    d = m.rows
    a = list(m.data)
    order = list(range(d))
    # columns of the transform (rows of transform^t), two per pair
    pairs: list[int] = []
    # Invariant: the rows at positions from ``active`` on form a symmetric
    # hollow matrix on their own indices and have no bit elsewhere, since the
    # additions clear each finished pair's columns.
    active = 0
    while True:
        live = next((p for p in range(active, d) if a[order[p]]), None)
        if live is None:
            break
        order[active], order[live] = order[live], order[active]
        u = order[active]
        su = a[u]
        # positions active + 1 .. live hold zero rows, which by symmetry
        # the live row does not hit; its partner is the first one it does
        partner = next((p for p in range(live + 1, d) if su >> order[p] & 1), None)
        if partner is None:
            raise RuntimeError("congruence reduction: the matrix is not alternating")
        order[active + 1], order[partner] = order[partner], order[active + 1]
        v = order[active + 1]
        sv = a[v]
        # simultaneous row-and-column additions: add row v into every row
        # that u hits and row u into every row that v hits (pair excluded),
        # one XOR per row hit: su ^ sv into the rows both hit.  That clears
        # bits u and v of every other row; rows u and v are never read
        # again, so the mirroring column additions are not made.
        hu, hv = su ^ (1 << v), sv ^ (1 << u)
        both = hu & hv
        for hits, row in ((hu ^ both, sv), (hv ^ both, su), (both, su ^ sv)):
            while hits:
                low = hits & -hits
                a[low.bit_length() - 1] ^= row
                hits ^= low
        # column u, the unit vector of u, absorbs the unit columns of the
        # rows v hits, which makes it sv; column v likewise becomes su
        pairs += (sv, su)
        active += 2
    return d - active, [1 << i for i in order[active:]] + pairs
