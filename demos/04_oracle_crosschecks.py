#!/usr/bin/env python3
# The trust-but-verify layer: recompute commutation from explicit dense
# matrices, and confirm the register formula by exhaustive search on
# every small commutation matrix.

import itertools
import random

from paulicompress import BitMatrix, PauliString, commutation_matrix, rank
from paulicompress.oracle import brute_force_min_registers, oracle_commutation_matrix

rng = random.Random(3)

print("dense-matrix concordance on random collections:")
for trial in range(5):
    n = rng.randint(2, 5)
    ops = [
        PauliString.from_string("".join(rng.choice("IXYZ") for _ in range(n)))
        for _ in range(rng.randint(2, 6))
    ]
    fast = commutation_matrix(ops)
    dense = oracle_commutation_matrix(ops)
    print(f"  {len(ops)} ops on {n} registers: symplectic == dense matrices? {fast == dense}")

print("\nregister formula vs exhaustive search, all matrices up to dim 3:")
for d in range(1, 4):
    agree = 0
    total = 0
    for combo in itertools.product([0, 1], repeat=d * (d - 1) // 2):
        rows = [0] * d
        k = 0
        for i in range(d):
            for j in range(i + 1, d):
                if combo[k]:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                k += 1
        m = BitMatrix(d, d, tuple(rows))
        total += 1
        if brute_force_min_registers(m) == d - rank(m) // 2:
            agree += 1
    print(f"  dim {d}: {agree}/{total} matrices agree")

print("\nthe searched witness for the anticommuting pair:")
m = BitMatrix.from_strings(["01", "10"])
print(f"  [[0,1],[1,0]] needs {brute_force_min_registers(m)} register(s); formula gives {2 - rank(m)//2}")
