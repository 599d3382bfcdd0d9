"""Independent cross-checks built on explicit dense matrices.

Nothing here reuses the symplectic code paths: commutation is decided by
actually multiplying 2^n x 2^n matrices, and minimal register counts are
found by exhaustive search over small operator assignments with a locally
coded pairing.  These routines exist to catch bugs in the fast paths, so
they are deliberately dumb and capped at small sizes.

Since Y = i.XZ, the dense matrix of an operator p is i^{#Y(p)} times the
real Kronecker product R(p) of the per-register factors I, X, Z and XZ.
The scalar appears on both sides of AB = BA and cancels, so commutation
is decided on R alone, in ``float32``.  Every entry of R is 0 or +-1, so
each entry of a product of two is an integer sum of at most 2^n <=
2^DENSE_CAP = 1024 such terms: far below 2^24, hence exact in single
precision whatever order the sum is taken in.  The search keeps the
admissible vectors of each operator still to place as one ``4**q``-bit
set.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2 import BitMatrix
from .pauli import PauliString

__all__ = [
    "DENSE_CAP",
    "SEARCH_CAP",
    "dense_matrix",
    "commutes_dense",
    "oracle_commutation_matrix",
    "brute_force_min_registers",
]

DENSE_CAP = 10
SEARCH_CAP = 4

_X = np.array([[0, 1], [1, 0]], dtype=np.float32)
_Z = np.array([[1, 0], [0, -1]], dtype=np.float32)
# the real factor of each register, keyed by its (x, z) bits: Y = i.XZ
_REAL = {
    (0, 0): np.eye(2, dtype=np.float32),
    (1, 0): _X,
    (0, 1): _Z,
    (1, 1): _X @ _Z,
}
_PHASE = (1, 1j, -1, -1j)


def _real_matrix(p: PauliString) -> np.ndarray:
    """R(p), the ``float32`` Kronecker product of I, X, Z and XZ, register 1 leftmost."""
    if p.n > DENSE_CAP:
        raise ValueError(f"dense oracle is capped at {DENSE_CAP} registers, got n={p.n}")
    m = np.ones((1, 1), dtype=np.float32)
    for site in p.sites:
        k = m.shape[0]
        m = (m[:, None, :, None] * _REAL[site][None, :, None, :]).reshape(2 * k, 2 * k)
    return m


def dense_matrix(p: PauliString) -> np.ndarray:
    """2^n x 2^n Kronecker product of the per-register matrices, register 1 leftmost.

    The dtype is ``complex64``; every entry is exactly 0, +-1 or +-i.
    Since Y = i.XZ, the matrix is i^{#Y(p)} times the real matrix R(p) of
    :func:`_real_matrix`, which the oracle multiplies in its place: the
    phases cancel from AB = BA, and each entry of R(p).R(q) is an integer
    sum of at most 2^n <= 1024 terms +-1, exact in ``float32``.
    """
    y_count = sum(site == (1, 1) for site in p.sites)
    return _PHASE[y_count % 4] * _real_matrix(p).astype(np.complex64)


def commutes_dense(p: PauliString, q: PauliString) -> bool:
    """True iff R(p).R(q) equals R(q).R(p), exactly (see the module notes)."""
    if p.n != q.n:
        raise ValueError(f"cannot compare operators on {p.n} and {q.n} registers")
    return not oracle_commutation_matrix([p, q]).data[0]


def oracle_commutation_matrix(ops: Sequence[PauliString]) -> BitMatrix:
    """Pairwise anticommutation indicators recomputed from dense matrices."""
    if len({op.n for op in ops}) > 1:
        raise ValueError("operator list mixes register counts")
    mats = [_real_matrix(op) for op in ops]
    d = len(ops)
    rows = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            if not np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BitMatrix(d, d, rows)


def _pairing(u: int, v: int, q: int) -> int:
    # locally coded symplectic pairing on (x | z) packed vectors
    xm = (1 << q) - 1
    return (((u & xm) & (v >> q)).bit_count() + ((u >> q) & (v & xm)).bit_count()) & 1


def _residual(v: int, echelon: Sequence[int]) -> int:
    # echelon is sorted descending; rows have distinct leading bits
    for row in echelon:
        if (v ^ row) < v:
            v ^= row
    return v


def _assignment_exists(want: list[list[int]], d: int, q: int) -> bool:
    """Search for d independent vectors on q registers matching ``want``.

    ``cands[j]`` holds, as a ``4**q``-bit integer, the vectors that level
    j may still take: those whose pairing with every vector chosen so far
    equals ``want``.  Choosing v at level k ANDs every later level's set
    with v's pairing row (bit u set iff v and u anticommute) or with its
    complement.  Each level tries its admissible vectors in ascending
    order and keeps those independent of the vectors already chosen.
    """
    size = 1 << (2 * q)
    rows: dict[int, int] = {}
    echelon: list[int] = []

    def pairing_row(v: int) -> int:
        if v not in rows:
            rows[v] = sum(1 << u for u in range(size) if _pairing(v, u, q))
        return rows[v]

    def extend(k: int, cands: list[int]) -> bool:
        if k == d:
            return True
        todo = cands[0]
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            res = _residual(v, echelon)
            if res == 0:
                continue
            row = pairing_row(v)
            later = [c & row if want[k][j] else c & ~row
                     for j, c in enumerate(cands[1:], start=k + 1)]
            pos = next((i for i, e in enumerate(echelon) if e < res), len(echelon))
            echelon.insert(pos, res)
            if extend(k + 1, later):
                return True
            echelon.pop(pos)
        return False

    return extend(0, [(1 << size) - 1] * d)


def brute_force_min_registers(m: BitMatrix) -> int:
    """Smallest register count realizing ``m``, found by exhaustive search.

    The search enumerates tuples of independent operators (one symplectic
    vector per matrix row) on q registers, ascending in q, and accepts
    the first q admitting an assignment whose pairwise pairing reproduces
    the matrix.  Deliberately avoids the dimension/rank formula.

    Raises:
        ValueError: if the matrix is larger than the search cap, not
            symmetric, or not hollow.
    """
    if m.rows != m.cols:
        raise ValueError(f"need a square matrix, got {m.rows}x{m.cols}")
    if m.rows > SEARCH_CAP:
        raise ValueError(f"exhaustive search is capped at dimension {SEARCH_CAP}, got {m.rows}")
    if not m.is_symmetric():
        raise ValueError("need a symmetric matrix")
    if not m.has_zero_diagonal():
        raise ValueError("need a zero diagonal")
    d = m.rows
    want = m.to_rows()
    for q in range(d + 1):
        if _assignment_exists(want, d, q):
            return q
    raise AssertionError("unreachable: d independent operators always fit on d registers")
