#!/usr/bin/env python3
# Walk through the phase-free Pauli algebra: string form, the symplectic
# bit encoding, composition, and the commutation pairing.

from paulicompress import (
    PauliString,
    compose,
    pauli_weight,
    symplectic_product,
    to_symplectic,
)

# An operator is a string over I, X, Y, Z; the leftmost letter acts on
# register 1.  Global phase is dropped throughout, so Y is "the letter
# that is both X and Z".
p = PauliString.from_string("XYZI")
print("operator:", p)
print("per-register (x, z) bits:", p.sites)
print("weight (non-identity registers):", pauli_weight(p))

# The symplectic image is one integer: X powers in bits 0..n-1, Z powers
# in bits n..2n-1.
v = to_symplectic(p)
print("symplectic image bits:", tuple((v >> i) & 1 for i in range(2 * p.n)), "(X block | Z block)")

# Composition is bitwise XOR of images: no phases, no matrices.
a = PauliString.from_string("XX")
b = PauliString.from_string("IZ")
print(f"\ncompose({a}, {b}) = {compose(a, b)}")
print(f"compose({a}, {a}) = {compose(a, a)}  (every operator is self-inverse)")

# The symplectic product decides commutation: 0 = commute, 1 = anticommute.
pairs = [("XX", "IZ"), ("XX", "ZZ"), ("ZI", "IZ"), ("Y", "X")]
print()
for s, t in pairs:
    u, w = PauliString.from_string(s), PauliString.from_string(t)
    verdict = "anticommute" if symplectic_product(u, w) else "commute"
    print(f"{s} and {t}: {verdict}")
