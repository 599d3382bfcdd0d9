"""Seeded input generators for the benchmark.

Everything here is pure combinatorics on packed integers and does not
import the library, so the benchmark can check the library's answers
against values known by construction:

* fermionic Hamiltonians with all one- and two-body number-conserving
  terms, mapped to Pauli operators by the Jordan-Wigner or the
  Bravyi-Kitaev (Fenwick tree) encoding (Bravyi & Kitaev 2002,
  quant-ph/0003137; Seeley, Richard & Love 2012, arXiv:1208.5986);
* planted collections: the canonical generators of a chosen
  (isolated, pairs) structure, scrambled by random symplectic
  transvections and a random invertible recombination, plus dependent
  terms.  Both steps preserve the register count ``q``, so the expected
  answer is known without running the library.

A collection is a list of ``(weight, letters)`` pairs; ``letters[t]`` is
register t+1, matching the library's term-file convention.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

_LETTERS = "IXZY"  # index = x + 2*z


def letters_of(n: int, x: int, z: int) -> str:
    return "".join(_LETTERS[((x >> t) & 1) | (((z >> t) & 1) << 1)] for t in range(n))


_X_OF = str.maketrans("IXYZ", "0110")
_Z_OF = str.maketrans("IXYZ", "0011")


def bits_of(letters: str) -> tuple[int, int]:
    """(x, z) bit masks of a letter string, register 1 in bit 0."""
    return int(letters.translate(_X_OF)[::-1], 2), int(letters.translate(_Z_OF)[::-1], 2)


def pairing(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Symplectic pairing of two (x, z) masks: 1 iff the operators anticommute."""
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1


def gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = max(rows)
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> top) & 1 else r for r in rows if r != pivot]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def structure(n: int, masks: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(phi_rank, comm_rank, q) of a collection, computed independently."""
    vecs = [x | (z << n) for x, z in masks]
    gens: list[int] = []
    gen_masks: list[tuple[int, int]] = []
    for v, mask in zip(vecs, masks):
        if gf2_rank(gens + [v]) > len(gens):
            gens.append(v)
            gen_masks.append(mask)
    gram = [
        sum(pairing(a, b) << j for j, b in enumerate(gen_masks)) for a in gen_masks
    ]
    d, comm_rank = len(gens), gf2_rank(gram)
    return d, comm_rank, d - comm_rank // 2


@dataclass(frozen=True)
class Collection:
    """One generated input with the answer it must compress to."""

    name: str
    n: int
    terms: list[tuple[float, str]]
    phi_rank: int
    comm_rank: int
    q: int
    fmt: str  # "plain" or "json"

    def write(self, directory: Path) -> Path:
        suffix = ".json" if self.fmt == "json" else ".pauli"
        path = directory / f"{self.name}{suffix}"
        if self.fmt == "json":
            doc = {"terms": [{"pauli": p, "weight": [w, 0.0]} for w, p in self.terms]}
            text = json.dumps(doc) + "\n"
        else:
            text = "".join(f"{w!r} {p}\n" for w, p in self.terms)
        path.write_text(text, encoding="utf-8")
        return path


# ---------------------------------------------------------------- fermions

# A phased Pauli operator i^k X^x Z^z is the triple (k, x, z).
def _mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    # Z^z1 X^x2 = (-1)^{|z1 & x2|} X^x2 Z^z1
    return ((a[0] + b[0] + 2 * (a[2] & b[1]).bit_count()) & 3, a[1] ^ b[1], a[2] ^ b[2])


def _gf2_inverse(cols: list[int], n: int) -> list[int]:
    """Rows of A^-1 for the n x n matrix A whose column j is ``cols[j]``."""
    rows = [sum(((cols[j] >> i) & 1) << j for j in range(n)) for i in range(n)]
    aug = [(rows[i], 1 << i) for i in range(n)]
    for c in range(n):
        p = next(i for i in range(c, n) if (aug[i][0] >> c) & 1)
        aug[c], aug[p] = aug[p], aug[c]
        for i in range(n):
            if i != c and (aug[i][0] >> c) & 1:
                aug[i] = (aug[i][0] ^ aug[c][0], aug[i][1] ^ aug[c][1])
    return [inv for _, inv in aug]


def majorana_images(n_modes: int, encoding: str) -> list[tuple[int, int, int]]:
    """Phased Pauli images of the 2N Majorana operators of a linear encoding.

    Qubit state b = A f for occupation vector f.  With U(j) the support of
    column j of A, F(j) that of row j of A^-1 and P(j) that of the parity
    of the modes below j in qubit terms:
    gamma_2j = X_U Z_P and gamma_2j+1 = i X_U Z_(P xor F).
    """
    if encoding == "jw":
        cols = [1 << j for j in range(n_modes)]
    elif encoding == "bk":
        # Fenwick tree: qubit i stores the parity of modes i+1-lowbit(i+1) .. i
        cols = [
            sum(1 << i for i in range(n_modes) if i + 1 - ((i + 1) & -(i + 1)) <= j <= i)
            for j in range(n_modes)
        ]
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    inv = _gf2_inverse(cols, n_modes)
    images = []
    parity = 0
    for j in range(n_modes):
        images.append((0, cols[j], parity))
        images.append((1, cols[j], parity ^ inv[j]))
        parity ^= inv[j]
    return images


def _monomial(word: list[int]) -> tuple[int, tuple[int, ...]]:
    """Reduce a Majorana word to (sign, sorted distinct indices)."""
    out: list[int] = []
    sign = 1
    for g in word:
        pos = len(out)
        while pos and out[pos - 1] > g:
            pos -= 1
            sign = -sign
        if pos and out[pos - 1] == g:
            del out[pos - 1]  # gamma^2 = 1
        else:
            out.insert(pos, g)
    return sign, tuple(out)


def _ladder(p: int, dagger: bool) -> list[tuple[complex, int]]:
    # 2 a_p = g_2p + i g_2p+1,  2 a_p^dag = g_2p - i g_2p+1
    return [(1, 2 * p), (-1j if dagger else 1j, 2 * p + 1)]


def _expand(ops: list[tuple[int, bool]], coeff: complex, acc: dict) -> None:
    """Add coeff * 2^len(ops) * (product of ladder ops) to acc, by monomial."""
    words: list[tuple[complex, list[int]]] = [(coeff, [])]
    for p, dagger in ops:
        words = [(c * lc, w + [g]) for c, w in words for lc, g in _ladder(p, dagger)]
    for c, w in words:
        sign, mono = _monomial(w)
        acc[mono] = acc.get(mono, 0) + sign * c


def fermionic_hamiltonian(n_modes: int, rng: random.Random) -> dict:
    """Majorana expansion of a real number-conserving Hamiltonian.

    Every one-body term h (a+_p a_q + h.c.) and two-body term
    g (a+_p a+_q a_r a_s + h.c.) gets a nonzero integer coefficient.
    Returns {monomial: 16 * coefficient}; the values are exact integers
    held in complex floats.
    """
    acc: dict = {}

    def coef() -> int:
        return rng.choice([-1, 1]) * rng.randint(1, 9)

    for p in range(n_modes):
        for q in range(p, n_modes):
            h = coef() * 4  # 16 / 2^2 ladder operators
            _expand([(p, True), (q, False)], h, acc)
            if q != p:
                _expand([(q, True), (p, False)], h, acc)
    pairs = [(p, q) for p in range(n_modes) for q in range(p + 1, n_modes)]
    for a, (p, q) in enumerate(pairs):
        for r, s in pairs[a:]:
            g = coef()
            _expand([(p, True), (q, True), (r, False), (s, False)], g, acc)
            if (p, q) != (r, s):
                _expand([(s, True), (r, True), (q, False), (p, False)], g, acc)
    return {mono: c for mono, c in acc.items() if c != 0}


def fermion_to_qubit(
    hamiltonian: dict, n_modes: int, encoding: str
) -> list[tuple[float, str]]:
    """Weighted Pauli terms of a Majorana-expanded Hamiltonian.

    The identity term is dropped; all remaining weights must come out real.
    """
    images = majorana_images(n_modes, encoding)
    terms = []
    for mono, c in sorted(hamiltonian.items()):
        if not mono:
            continue
        op = (0, 0, 0)
        for g in mono:
            op = _mul(op, images[g])
        k, x, z = op
        # X^x Z^z = (-i)^{|x & z|} times the letter string (Y = i X Z)
        phase = (1, 1j, -1, -1j)[(k - (x & z).bit_count()) & 3]
        w = c * phase / 16
        if w.imag != 0:
            raise ArithmeticError(f"non-real coefficient {w} for monomial {mono}")
        terms.append((w.real, letters_of(n_modes, x, z)))
    return terms


def molecular(name: str, n_modes: int, encoding: str, seed: int, fmt: str = "plain") -> Collection:
    rng = random.Random(f"{name}:{seed}")
    terms = fermion_to_qubit(fermionic_hamiltonian(n_modes, rng), n_modes, encoding)
    rng.shuffle(terms)
    # even-Majorana algebra: span 2N-1, radical the parity operator
    return Collection(name, n_modes, terms, 2 * n_modes - 1, 2 * n_modes - 2, n_modes, fmt)


# ----------------------------------------------------------------- planted

def _transvect(vecs: list[int], h: int, n: int) -> list[int]:
    # T_h(v) = v + <v, h> h preserves the symplectic form
    hmask = (h & ((1 << n) - 1), h >> n)
    return [v ^ h if pairing((v & ((1 << n) - 1), v >> n), hmask) else v for v in vecs]


def planted(
    name: str,
    n: int,
    iso: int,
    pairs: int,
    extra: int,
    rng: random.Random,
    *,
    fmt: str = "plain",
    duplicates: bool = False,
    identities: int = 0,
) -> Collection:
    """Collection with d = iso + 2 pairs generators and q = iso + pairs registers.

    The canonical generators (Z_i on isolated registers, X_j and Z_j on
    paired ones) are pushed through random transvections, recombined by a
    random unit-triangular pair L U, and joined by ``extra`` dependent
    terms (random combinations, or exact copies when ``duplicates``) and
    ``identities`` identity terms, then shuffled.
    """
    q = iso + pairs
    if q > n or q == 0:
        raise ValueError(f"cannot plant q={q} registers in n={n}")
    vecs = [1 << (n + i) for i in range(iso)]
    for k in range(iso, q):
        vecs += [1 << k, 1 << (n + k)]
    for _ in range(24):
        vecs = _transvect(vecs, rng.getrandbits(2 * n) or 1, n)
    d = len(vecs)
    for i in range(1, d):  # unit lower triangular
        for j in range(i):
            if rng.getrandbits(1):
                vecs[i] ^= vecs[j]
    for i in range(d - 2, -1, -1):  # unit upper triangular
        for j in range(i + 1, d):
            if rng.getrandbits(1):
                vecs[i] ^= vecs[j]
    terms = list(vecs)
    for _ in range(extra):
        if duplicates:
            terms.append(rng.choice(vecs))
        else:
            combo = rng.getrandbits(d) or 1
            terms.append(_combine(vecs, combo))
    terms += [0] * identities
    rng.shuffle(terms)
    low = (1 << n) - 1
    weighted = [
        (round(rng.uniform(-2.0, 2.0), 6) or 1.0, letters_of(n, v & low, v >> n)) for v in terms
    ]
    return Collection(name, n, weighted, d, 2 * pairs, q, fmt)


def _combine(vecs: list[int], combo: int) -> int:
    out = 0
    for j, v in enumerate(vecs):
        if (combo >> j) & 1:
            out ^= v
    return out


# --------------------------------------------------------------- workloads

# Sized so that one CLI run takes under a tenth of a second: a run's
# timing is its fastest sample, and only short samples reliably catch
# moments when a shared host leaves the process alone.
def wide_planted(seed: int) -> list[Collection]:
    rng = random.Random(f"wide_planted:{seed}")
    return [planted("wide_planted", 96, 24, 60, 48, rng, fmt="json")]


def jw_tall(seed: int) -> list[Collection]:
    return [molecular("jw_tall", 6, "jw", seed)]


def many_small(seed: int, count: int = 100) -> list[Collection]:
    """Small collections within the oracle's caps (n <= 8, d <= 4).

    A hundred, so that a run times each of them some twenty times: a
    collection's timing is its fastest sample, which needs many.

    The sizes and shapes follow one fixed schedule, so every seed costs
    the oracle about the same; the seed draws the operators and weights.
    """
    sizes = random.Random("many_small:sizes")
    rng = random.Random(f"many_small:{seed}")
    out = []
    for k in range(count):
        shape = ("commuting", "pair", "duplicates", "identities")[k % 4]
        n = sizes.randint(2, 8)
        if shape == "commuting":
            iso, pairs = sizes.randint(1, min(3, n)), 0
        elif shape == "pair":
            iso, pairs = sizes.randint(0, min(2, n - 1)), 1
        else:
            # d = 3 or 4, as large as the search cap allows: a d=4
            # all-commuting set is left out, its search alone takes seconds
            pairs = sizes.randint(0, 1)
            iso = min(3 - pairs, n - pairs)
        d = iso + 2 * pairs
        m = sizes.randint(max(2, d), 30)
        idents = sizes.randint(1, max(1, (m - d) // 3)) if shape == "identities" and m > d else 0
        out.append(planted(
            f"small{k:03d}", n, iso, pairs, m - d - idents, rng,
            fmt=("plain", "json")[k % 2],
            duplicates=shape == "duplicates",
            identities=idents,
        ))
    return out


WORKLOADS = {
    "wide_planted": wide_planted,
    "jw_tall": jw_tall,
    "many_small": many_small,
}
