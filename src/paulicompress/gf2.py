"""Exact linear algebra over GF(2) on packed-integer bit matrices.

Rows are stored as Python integers (bit j = column j), so row addition is
a single XOR regardless of width.  This module owns the one layout that
moves such rows to numpy 0/1 arrays and back (little-endian bytes,
``bitorder="little"``): :func:`_unpack_rows` and :func:`_pack_rows`, which
the letter codec of ``pauli`` and the products here share.  Every other
change of shape goes through them too: a transpose unpacks, transposes the
0/1 array and packs, and the '0'/'1' row texts of reports are decoded from
the unpacked array.  Everything here is deterministic.  One elimination,
:func:`_independent_rows`, decides linear independence for the whole
package: it keeps a greedy left-to-right XOR basis whose pivots are keyed
by their leading bit, so :func:`rank` and the generator basis of
``compress`` are the same computation.

It also owns the one GF(2) matrix product, :func:`_mul`, and the size rule
that picks its path: packed-row XORs or an exact float32 numpy product, in
the packed dense style of M4RI (Albrecht, Bard & Hart 2010) and of the
tableaux of Aaronson & Gottesman 2004.  :func:`mat_mul` and every product of
``compress`` (Gram, realize step, rebuild) get their rows from it.

The one non-textbook routine is :func:`congruence_reduce`, which factors
a symmetric zero-diagonal matrix M as T.D.T^t with T invertible and D a
block diagonal of zero 1x1 blocks followed by antidiagonal 2x2 blocks.
Simultaneous row-and-column operations keep the diagonal zero throughout,
so the factorization is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return self.rows == self.cols and self.data == _transpose(self.data, self.cols)

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
    return tuple(_pack_rows(_unpack_rows(rows, cols).T))


def _unpack_rows(rows: Sequence[int], cols: int) -> np.ndarray:
    """The packed rows as a len(rows) x cols ``uint8`` array of 0/1, column j = bit j.

    Every row must fit in ``cols`` bits, and ``cols`` must be at least 1.
    """
    width = (cols + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=cols, bitorder="little")


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Inverse of :func:`_unpack_rows`: each row of a 0/1 array as a packed int."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)]


def _independent_rows(rows: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy left-to-right XOR basis of packed rows.

    Row i joins the basis exactly when it is outside the span of the rows
    before it.  Returns ``(joined, combos)``: ``joined`` lists the indices
    of the rows that joined, in order, and ``combos[i]`` packs row i as an
    XOR of joined rows (bit k set = the k-th joined row participates).
    A joined row's combo is its own bit; a zero row's combo is 0.
    """
    # bit_length() -> (reduced row, its combo).  Pivots have distinct leading
    # bits, so a row whose leading bit has no pivot is outside their span.
    pivots: dict[int, tuple[int, int]] = {}
    joined: list[int] = []
    combos: list[int] = []
    for i, w in enumerate(rows):
        combo = 0
        while w:
            hit = pivots.get(w.bit_length())
            if hit is None:
                bit = 1 << len(joined)
                pivots[w.bit_length()] = (w, combo ^ bit)
                joined.append(i)
                combo = bit
                break
            w ^= hit[0]
            combo ^= hit[1]
        combos.append(combo)
    return tuple(joined), tuple(combos)


def rank(m: BitMatrix) -> int:
    """GF(2) row rank: the number of rows that join the greedy XOR basis."""
    return len(_independent_rows(m.data)[0])


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
# Added to every count of the dense product: a float32 in [2**23, 2**24) is
# an exact integer whose lowest mantissa bit is its parity.
_OFFSET = 1 << 23
# Entries of one row block of the dense product (float32, so 16 MiB): long
# products stream their rows and never hold a whole float32 result.  BLAS
# repacks the whole right operand for every block, so fewer, larger blocks
# are faster (m=20000, n=200: 7.8 s at 2**20 entries, 4.8 s at 2**22).
_BLOCK_ENTRIES = 1 << 22


def _check_exact(k: int) -> None:
    """Reject a product over ``k`` right rows whose float32 counts could be inexact."""
    if k >= _OFFSET:
        raise ValueError(f"GF(2) products are exact below {_OFFSET} summed rows, got {k}")


def _mul(left: Sequence[int], right: Sequence[int], cols: int) -> Iterator[int]:
    """The rows of left . right over GF(2), one packed int at a time.

    ``right`` is k packed rows of ``cols`` bits; row i is the XOR of the
    right rows at the set bits of ``left[i]``.  Right operands of at most
    256 bits, or with rows over 50 times longer than they are tall, take
    the XORs; the rest an exact float32 product, a block of left rows at a
    time.  Raises ValueError for k >= 2**23, before anything is unpacked.
    """
    k = len(right)
    _check_exact(k)
    if k * cols <= _SMALL_MUL_BITS or cols > _WIDE_MUL_RATIO * k:
        return (_xor_rows(right, row) for row in left)
    return _dense_mul(left, right, cols)


def _dense_mul(left: Sequence[int], right: Sequence[int], cols: int) -> Iterator[int]:
    """The float32 path of :func:`_mul`; needs k = len(right) and ``cols`` of at least 1."""
    right_bits = _unpack_rows(right, cols).astype(np.float32)
    step = max(1, min(len(left), _BLOCK_ENTRIES // cols))
    # one buffer pair for every block: fresh pages cost more than the product
    counts = np.empty((step, cols), np.float32)
    parity = np.empty((step, cols), np.uint8)
    for start in range(0, len(left), step):
        block = _unpack_rows(left[start : start + step], len(right)).astype(np.float32)
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

    d = m.rows
    a = list(m.data)
    # rows of transform^t; starts as identity, updated by column ops on transform
    lt = [1 << i for i in range(d)]

    def swap_sym(i: int, j: int) -> None:
        # by symmetry, bits i and j of row r differ exactly when bit r of
        # a[i] ^ a[j] is set; the zero diagonal makes this hold for rows i
        # and j too, so those are the rows whose columns i and j swap (none
        # when i == j)
        differ = a[i] ^ a[j]
        a[i], a[j] = a[j], a[i]
        flip = (1 << i) | (1 << j)
        for r in _set_bits(differ):
            a[r] ^= flip
        lt[i], lt[j] = lt[j], lt[i]

    # Invariant: a stays symmetric and hollow (every step is a congruence),
    # and no row from ``active`` on has a bit below ``active``, since the
    # additions clear each finished pair's columns.  So the live row is the
    # first nonzero one, and hit_u and hit_v below need no further masks.
    pair_count = 0
    while True:
        active = 2 * pair_count
        live = next((r for r in range(active, d) if a[r]), None)
        if live is None:
            break
        partner = (a[live] & -a[live]).bit_length() - 1
        # symmetry of the already-cleared block forces partner > live
        swap_sym(live, active)
        swap_sym(partner, active + 1)
        u, v = active, active + 1
        su, sv = a[u], a[v]
        # rows anticommuting with the u (resp. v) generator, pair excluded;
        # by symmetry these are exactly the set bits of rows u and v
        hit_u = su ^ (1 << v)
        hit_v = sv ^ (1 << u)
        # simultaneous row-and-column additions: add row v into every row
        # of hit_u and row u into every row of hit_v.  That clears bits u
        # and v of every other row, so the mirroring column additions
        # change only rows u and v, which are set outright below.
        for r in _set_bits(hit_u):
            a[r] ^= sv
        for r in _set_bits(hit_v):
            a[r] ^= su
        a[u] = 1 << v
        a[v] = 1 << u
        # transform bookkeeping: column v of the transform absorbs the
        # hit_u columns, column u the hit_v columns
        lt[v] ^= _xor_rows(lt, hit_u)
        lt[u] ^= _xor_rows(lt, hit_v)
        pair_count += 1

    iso_count = d - 2 * pair_count
    transform = BitMatrix(d, d, _transpose(lt[2 * pair_count :] + lt[: 2 * pair_count], d))

    return CanonicalForm(dim=d, iso_count=iso_count, pair_count=pair_count, transform=transform)
