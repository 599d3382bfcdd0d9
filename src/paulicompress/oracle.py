"""Independent cross-checks built on explicit dense matrices.

Nothing here reuses the symplectic code paths: commutation is decided by
actually multiplying 2^n x 2^n matrices, and minimal register counts are
found by exhaustive search over small operator assignments with a locally
coded pairing.  These routines exist to catch bugs in the fast paths, so
they are deliberately dumb and capped at small sizes.
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

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): _X,
    (0, 1): _Z,
    (1, 1): 1j * (_X @ _Z),
}


def dense_matrix(p: PauliString) -> np.ndarray:
    """2^n x 2^n Kronecker product of the per-register matrices, register 1 leftmost."""
    if p.n > DENSE_CAP:
        raise ValueError(f"dense oracle is capped at {DENSE_CAP} registers, got n={p.n}")
    m = np.eye(1, dtype=complex)
    for site in p.sites:
        m = np.kron(m, _SINGLE[site])
    return m


def commutes_dense(p: PauliString, q: PauliString) -> bool:
    """True iff the dense commutator vanishes (exact for Pauli inputs)."""
    if p.n != q.n:
        raise ValueError(f"cannot compare operators on {p.n} and {q.n} registers")
    a = dense_matrix(p)
    b = dense_matrix(q)
    return bool(np.max(np.abs(a @ b - b @ a)) < 1e-9)


def oracle_commutation_matrix(ops: Sequence[PauliString]) -> BitMatrix:
    """Pairwise anticommutation indicators recomputed from dense matrices."""
    if ops:
        n = ops[0].n
        if any(op.n != n for op in ops):
            raise ValueError("operator list mixes register counts")
    mats = [dense_matrix(op) for op in ops]
    d = len(ops)
    rows = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) >= 1e-9:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BitMatrix(d, d, tuple(rows))


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
    """Search for d independent vectors on q registers matching ``want``."""
    size = 1 << (2 * q)
    chosen: list[int] = []
    echelon: list[int] = []

    def extend(k: int) -> bool:
        if k == d:
            return True
        for v in range(size):
            if any(_pairing(chosen[t], v, q) != want[t][k] for t in range(k)):
                continue
            res = _residual(v, echelon)
            if res == 0:
                continue
            pos = next((i for i, row in enumerate(echelon) if row < res), len(echelon))
            echelon.insert(pos, res)
            chosen.append(v)
            if extend(k + 1):
                return True
            chosen.pop()
            echelon.pop(pos)
        return False

    return extend(0)


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
    for q in range(1, d + 1):
        if _assignment_exists(want, d, q):
            return q
    raise AssertionError("unreachable: d independent operators always fit on d registers")
