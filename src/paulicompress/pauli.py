"""Phase-free Pauli operators and their binary symplectic encoding.

An operator on n registers is a tensor product of single-register letters
from {I, X, Y, Z}, taken modulo global phase (Y stands for the product of
X and Z; the scalar in front never matters for commutation structure).
Each register carries a bit pair (x, z):

    (0, 0) = I    (1, 0) = X    (0, 1) = Z    (1, 1) = Y

The x and z powers of all registers are packed into Python integers, bit
t holding register t+1, so equality and composition are whole-vector
operations.  The symplectic image of an operator is the 2n-bit vector
with the X powers in the low n bits and the Z powers in the high n bits;
composing operators XORs their images, and the symplectic product of two
images is 0 exactly when the operators commute.

Letter strings are parsed and printed a whole collection at a time by
``_from_strings`` and ``_to_strings``, which work on images: the letters
of every operator become one ``uint8`` array of codes x + 2z, mapped
through a lookup table, whose ``[x | z]`` columns are the images' bits,
packed and unpacked by the bit codec of ``gf2``.  :func:`from_strings`,
:func:`to_strings`, ``PauliString.from_string`` and ``str`` wrap them in
objects, so the package has one text codec.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf2 import _pack_rows, _unpack_rows

__all__ = [
    "PauliString",
    "WeightedPauli",
    "from_strings",
    "to_strings",
    "to_symplectic",
    "from_symplectic",
    "compose",
    "symplectic_product",
    "pauli_weight",
]

# A letter's code is x + 2z; _LETTERS[code] is its code point, and _CODE_OF_BYTE
# maps every byte back to its code, or to _BAD for anything but I, X, Z, Y.
_LETTERS = np.array([ord(ch) for ch in "IXZY"], "<u4")
_BAD = 4
_CODE_OF_BYTE = np.full(256, _BAD, np.uint8)
_CODE_OF_BYTE[_LETTERS] = np.arange(4)


@dataclass(frozen=True)
class PauliString:
    """A Pauli operator on ``n`` registers, global phase dropped.

    ``x_bits`` and ``z_bits`` hold the X and Z powers of every register,
    bit t = register t+1.
    """

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a Pauli operator needs at least one register, got n={self.n}")
        top = 1 << self.n
        if not (0 <= self.x_bits < top and 0 <= self.z_bits < top):
            raise ValueError(f"site bits out of range for n={self.n}")

    @classmethod
    def from_string(cls, letters: str) -> "PauliString":
        """Build from a string over I, X, Y, Z; the leftmost letter is register 1."""
        return from_strings([letters])[0]

    @property
    def sites(self) -> tuple[tuple[int, int], ...]:
        """Per-register (x, z) bit pairs, register 1 first."""
        return tuple(((self.x_bits >> t) & 1, (self.z_bits >> t) & 1) for t in range(self.n))

    def __mul__(self, other: "PauliString") -> "PauliString":
        return compose(self, other)

    def __str__(self) -> str:
        return to_strings([self])[0]

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


@dataclass(frozen=True)
class WeightedPauli:
    """A Pauli term with an opaque complex coefficient.

    Weights are carried through every transformation untouched; only the
    operator part participates in the algebra.
    """

    op: PauliString
    weight: complex = 1.0

    def __post_init__(self):
        w = complex(self.weight)
        if not cmath.isfinite(w):
            raise ValueError(f"weight must be finite, got {self.weight!r}")
        object.__setattr__(self, "weight", w)


def from_strings(texts: Sequence[str]) -> list[PauliString]:
    """Parse equal-length strings over I, X, Y, Z, leftmost letter = register 1.

    Raises:
        ValueError: for strings of differing lengths, an empty string, or
            a letter outside I, X, Y, Z (the first one is named).
    """
    n, images = _from_strings(texts)
    return [from_symplectic(image, n) for image in images]


def to_strings(ops: Sequence[PauliString]) -> list[str]:
    """Letter strings of operators that share one register count, register 1 first.

    Raises:
        ValueError: if the operators act on differing register counts.
    """
    return _to_strings(*_images(ops, "collection"))


def _from_strings(texts: Sequence[str]) -> tuple[int, list[int]]:
    if not texts:
        return 0, []
    m, n = len(texts), len(texts[0])
    if not n:
        raise ValueError("a Pauli operator needs at least one register, got n=0")
    for k, text in enumerate(texts):
        if len(text) != n:
            raise ValueError(f"operator {k} has {len(text)} letters, operator 0 has {n}")
    joined = "".join(texts)
    # "replace" writes one '?' per character it cannot encode, so byte i is
    # still character i and a bad letter's position is its index in ``joined``
    codes = _CODE_OF_BYTE[np.frombuffer(joined.encode("ascii", "replace"), np.uint8)]
    bad = np.flatnonzero(codes == _BAD)
    if bad.size:
        ch = joined[bad[0]]
        raise ValueError(f"invalid Pauli letter {ch!r} (want one of I, X, Y, Z)")
    codes = codes.reshape(m, n)
    return n, _pack_rows(np.concatenate([codes & 1, codes >> 1], axis=1))


def _to_strings(n: int, images: Sequence[int]) -> list[str]:
    if not images:
        return []
    bits = _unpack_rows(images, 2 * n)
    # a C-contiguous row of n UCS-4 code points is one numpy string item
    return _LETTERS[bits[:, :n] | bits[:, n:] << 1].view(f"<U{n}").ravel().tolist()


def _images(ops: Sequence[PauliString], what: str) -> tuple[int, list[int]]:
    """The register count and symplectic images of ``ops``; ``(0, [])`` if empty.

    The one conversion from operators to images.  Raises ValueError,
    naming the collection ``what``, on mixed register counts.
    """
    n = ops[0].n if ops else 0
    images = []
    for op in ops:
        if op.n != n:
            raise ValueError(f"{what} mixes operators on {n} and {op.n} registers")
        images.append(to_symplectic(op))
    return n, images


def to_symplectic(p: PauliString) -> int:
    """Symplectic image of ``p``: X powers in the low n bits, Z powers in the high n."""
    return p.x_bits | (p.z_bits << p.n)


def from_symplectic(bits: int, n: int) -> PauliString:
    """Inverse of :func:`to_symplectic` for a 2n-bit image."""
    return PauliString(n, bits & ((1 << n) - 1), bits >> n)


def compose(p: PauliString, q: PauliString) -> PauliString:
    """Phase-free product of two operators: per-register XOR of (x, z) pairs."""
    if p.n != q.n:
        raise ValueError(f"cannot compose operators on {p.n} and {q.n} registers")
    return PauliString(p.n, p.x_bits ^ q.x_bits, p.z_bits ^ q.z_bits)


def symplectic_product(p: PauliString, q: PauliString) -> int:
    """The GF(2) pairing x1.z2 + z1.x2: 0 if the operators commute, 1 if not."""
    if p.n != q.n:
        raise ValueError(f"cannot pair operators on {p.n} and {q.n} registers")
    return ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) & 1


def pauli_weight(p: PauliString) -> int:
    """Number of registers acted on by a non-identity letter."""
    return (p.x_bits | p.z_bits).bit_count()
