"""Independent cross-checks built on explicit dense matrices.

Nothing here reuses the symplectic code paths: commutation is decided by
comparing products of explicit 2^n x 2^n matrices, and minimal register
counts are found by exhaustive search over small operator assignments
with a locally coded pairing.  These routines exist to catch bugs in the
fast paths, so they are deliberately dumb and capped at small sizes.

Since Y = i.XZ, the dense matrix of p is i^{#Y(p)} times the real
Kronecker product R(p) of the factors I, X, Z and XZ, and the scalar
cancels from AB = BA.  R(p) is a signed permutation: after reading all
4^n entries and checking that each row holds one nonzero, the oracle
keeps row r's column c[r] and sign s[r].  Row r of R(a).R(b) is
s_a[r].s_b[c_a[r]] at column c_b[c_a[r]], so a pair's two products are
compared exactly in O(2^n).  The search keeps each operator's admissible
vectors, and the span of those chosen, as ``4**q``-bit sets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2 import BitMatrix
from .pauli import PauliString

__all__ = [
    "DENSE_CAP",
    "SEARCH_CAP",
    "oracle_commutation_matrix",
    "brute_force_min_registers",
]

DENSE_CAP = 10
SEARCH_CAP = 4

# each register's real factor I, X, Z or XZ (Y = i.XZ), keyed by its (x, z) bits
_REAL = {
    (0, 0): ((1, 0), (0, 1)),
    (1, 0): ((0, 1), (1, 0)),
    (0, 1): ((1, 0), (0, -1)),
    (1, 1): ((0, -1), (1, 0)),
}


def _real_matrix(p: PauliString) -> np.ndarray:
    """R(p), the ``float32`` Kronecker product of I, X, Z and XZ, register 1 leftmost."""
    if p.n > DENSE_CAP:
        raise ValueError(f"dense oracle is capped at {DENSE_CAP} registers, got n={p.n}")
    m = np.ones((1, 1), dtype=np.float32)
    for site in reversed(p.sites):
        # kron(f, m): block (i, j) is f[i][j] times m, written where f[i][j] != 0
        k = len(m)
        out = np.zeros((2 * k, 2 * k), dtype=np.float32)
        for i, row in enumerate(_REAL[site]):
            for j, f in enumerate(row):
                if f:
                    out[i * k:(i + 1) * k, j * k:(j + 1) * k] = m if f > 0 else -m
        m = out
    return m


def _signed_permutation(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's column and sign (the row sum), after checking it holds exactly one nonzero."""
    nonzero = r != 0
    if not (nonzero.sum(axis=1) == 1).all():
        raise RuntimeError("dense oracle: R(p) has a row without exactly one nonzero")
    return nonzero.argmax(axis=1), r.sum(axis=1)


def oracle_commutation_matrix(ops: Sequence[PauliString]) -> BitMatrix:
    """Pairwise anticommutation indicators recomputed from dense matrices."""
    for op in ops:
        if op.n != ops[0].n:
            raise ValueError(f"operator list mixes operators on {ops[0].n} and {op.n} registers")
    perms = [_signed_permutation(_real_matrix(op)) for op in ops]
    rows = [0] * len(ops)
    for i, (ci, si) in enumerate(perms):
        for j, (cj, sj) in enumerate(perms[i + 1:], start=i + 1):
            if not (np.array_equal(cj[ci], ci[cj]) and np.array_equal(si * sj[ci], sj * si[cj])):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BitMatrix(len(rows), len(rows), rows)


def _pairing(u: int, v: int, q: int) -> int:
    # locally coded symplectic pairing on (x | z) packed vectors
    xm = (1 << q) - 1
    return (((u & xm) & (v >> q)).bit_count() + ((u >> q) & (v & xm)).bit_count()) & 1


def _assignment_exists(want: list[list[int]], d: int, q: int) -> bool:
    """Search for d independent vectors on q registers matching ``want``.

    ``cands[j]`` holds, as a ``4**q``-bit integer, the vectors that level
    j may still take: those whose pairing with every vector chosen so far
    equals ``want``.  Choosing v at level k ANDs every later level's set
    with v's pairing row (bit u set iff v and u anticommute) or with its
    complement.  ``span`` is the span of the chosen vectors in the same
    layout, so each level tries ``cands[k] & ~span`` in ascending order;
    the last level only asks whether that set is empty.
    """
    size = 1 << (2 * q)
    rows: dict[int, int] = {}

    def pairing_row(v: int) -> int:
        if v not in rows:
            rows[v] = sum(1 << u for u in range(size) if _pairing(v, u, q))
        return rows[v]

    def extend(k: int, cands: list[int], span: int) -> bool:
        todo = cands[0] & ~span
        if k == d - 1:
            return bool(todo)
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            row = pairing_row(v)
            later = [c & row if want[k][j] else c & ~row
                     for j, c in enumerate(cands[1:], start=k + 1)]
            grown, rest = span, span
            while rest:
                grown |= 1 << (((rest & -rest).bit_length() - 1) ^ v)
                rest &= rest - 1
            if extend(k + 1, later, grown):
                return True
        return False

    return d == 0 or extend(0, [(1 << size) - 1] * d, 1)


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
