"""Unit tests for the packed GF(2) linear algebra."""

import ast
import functools
import itertools
import operator
import random
import re
import tracemalloc
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulicompress
from paulicompress.compress import min_registers
from paulicompress import gf2
from paulicompress.gf2 import (
    BitMatrix,
    CanonicalForm,
    _mul,
    _pack_rows,
    _unpack_rows,
    congruence_reduce,
    is_invertible,
    mat_mul,
    rank,
)

import reference_example as ref


def _span_size_rank(m: BitMatrix) -> int:
    """Independent rank oracle: |span| = 2^rank, by enumerating row subsets."""
    assert m.rows <= 8, "enumeration oracle limited to few rows"
    span = set()
    for picks in itertools.product([0, 1], repeat=m.rows):
        acc = 0
        for take, row in zip(picks, m.data):
            if take:
                acc ^= row
        span.add(acc)
    return len(span).bit_length() - 1


def gauss_jordan_rank(m: BitMatrix) -> int:
    """Reference rank: Gauss-Jordan elimination, columns scanned left to right."""
    work = [r for r in m.data if r]
    rk = 0
    for col in range(m.cols):
        bit = 1 << col
        pivot = next((i for i in range(rk, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        for i in range(len(work)):
            if i != rk and work[i] & bit:
                work[i] ^= work[rk]
        rk += 1
        if rk == len(work):
            break
    return rk


def loop_transpose(m: BitMatrix) -> BitMatrix:
    """Reference transpose: OR 1 << i into column j for every set bit (i, j)."""
    out = [0] * m.cols
    for i, r in enumerate(m.data):
        while r:
            j = (r & -r).bit_length() - 1
            out[j] |= 1 << i
            r &= r - 1
    return BitMatrix(m.cols, m.rows, tuple(out))


def loop_mul(left: list[int], right: list[int], cols: int) -> list[int]:
    """Reference product: bit j of row i is the parity of the sum over t of
    bit t of left[i] times bit j of right[t], one entry at a time."""
    out = []
    for row in left:
        acc = 0
        for j in range(cols):
            bit = 0
            for t, r in enumerate(right):
                bit ^= (row >> t) & (r >> j) & 1
            acc |= bit << j
        out.append(acc)
    return out


def loop_to_strings(m: BitMatrix) -> list[str]:
    """Reference row text: one character per entry."""
    return ["".join(str((r >> j) & 1) for j in range(m.cols)) for r in m.data]


def loop_congruence_reduce(m: BitMatrix) -> CanonicalForm:
    """Reference reduction: the same pivot rule, visiting every row of the
    matrix for each swap and each pair, with the mirroring column phase."""
    d = m.rows
    a = list(m.data)
    lt = [1 << i for i in range(d)]

    def swap_sym(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        flip = (1 << i) | (1 << j)
        for r in range(d):
            if ((a[r] >> i) & 1) != ((a[r] >> j) & 1):
                a[r] ^= flip
        lt[i], lt[j] = lt[j], lt[i]

    def xor_rows(rows, mask):
        return functools.reduce(operator.xor, (rows[j] for j in range(d) if (mask >> j) & 1), 0)

    pair_count = 0
    while True:
        active = 2 * pair_count
        tail = ((1 << d) - 1) & ~((1 << active) - 1)
        live = next((r for r in range(active, d) if a[r] & tail), None)
        if live is None:
            break
        hit = a[live] & tail
        partner = (hit & -hit).bit_length() - 1
        swap_sym(live, active)
        swap_sym(partner, active + 1)
        u, v = active, active + 1
        su, sv = a[u], a[v]
        hit_u = su & ~(1 << v) & ~(1 << u)
        hit_v = sv & ~(1 << u) & ~(1 << v)
        for r in range(d):
            if r == u or r == v:
                continue
            w = a[r]
            if (hit_u >> r) & 1:
                w ^= sv
            if (hit_v >> r) & 1:
                w ^= su
            if (w >> v) & 1:
                w ^= hit_u
            if (w >> u) & 1:
                w ^= hit_v
            a[r] = w
        a[u] = 1 << v
        a[v] = 1 << u
        lt[v] ^= xor_rows(lt, hit_u)
        lt[u] ^= xor_rows(lt, hit_v)
        pair_count += 1

    iso_count = d - 2 * pair_count
    perm = list(range(2 * pair_count, d)) + list(range(2 * pair_count))
    transform = loop_transpose(BitMatrix(d, d, tuple(lt[p] for p in perm)))
    return CanonicalForm(d, iso_count, pair_count, transform)


@st.composite
def bit_matrices(draw, max_rows=70, max_cols=70):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(data))


@st.composite
def row_lists(draw, widths=st.integers(1, 260), sizes=st.integers(0, 40)):
    """(width, rows): random packed rows mixed with zero rows, duplicates
    and XORs of earlier rows.  Widths past 64 make rows span several
    machine words."""
    width = draw(widths)
    rows: list[int] = []
    for _ in range(draw(sizes)):
        kind = draw(st.sampled_from(["fresh", "zero", "duplicate", "xor"]))
        if kind == "zero":
            rows.append(0)
        elif kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "xor" and len(rows) >= 2:
            rows.append(draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.integers(0, (1 << width) - 1)))
    return width, rows


def _random_sym_hollow(rng: random.Random, d: int, density=0.5) -> BitMatrix:
    rows = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return BitMatrix(d, d, tuple(rows))


def every_alternating(max_dim: int) -> Iterator[BitMatrix]:
    """Every alternating matrix up to ``max_dim``: every pivot pattern."""
    for d in range(max_dim + 1):
        pairs = list(itertools.combinations(range(d), 2))
        for upper in range(1 << len(pairs)):
            rows = [0] * d
            for k, (i, j) in enumerate(pairs):
                if upper >> k & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            yield BitMatrix(d, d, rows)


def _scattered(inner: BitMatrix, where: list[int], d: int) -> BitMatrix:
    """``inner`` placed on indices ``where`` of a d x d zero matrix: entry
    (a, b) of ``inner`` becomes entry (where[a], where[b])."""
    rows = [0] * d
    for a, row in enumerate(inner.data):
        for b in range(inner.cols):
            if (row >> b) & 1:
                rows[where[a]] |= 1 << where[b]
    return BitMatrix(d, d, tuple(rows))


def _pairs_matrix(count: int) -> BitMatrix:
    """The block diagonal of ``count`` antidiagonal 2x2 blocks."""
    return BitMatrix(2 * count, 2 * count, (1 << (i ^ 1) for i in range(2 * count)))


@st.composite
def drifting_alternating(draw, max_dim=96):
    """Alternating matrices up to ``max_dim`` whose nonzero part sits on
    scattered indices, so the reduction's position order drifts away from
    the input order: zero rows and columns interleave (the live row lies
    past the first active position) and rows hit far-off columns first
    (the partner lies past the next position).  The nonzero part is dense,
    sparse, or permuted antidiagonal pairs with a few extra entries."""
    d = draw(st.integers(1, max_dim))
    where = draw(st.permutations(range(d)))
    rng = random.Random(draw(st.integers(0, 10**9)))
    k = draw(st.integers(0, d))
    if draw(st.booleans()):
        inner = _random_sym_hollow(rng, k, draw(st.sampled_from([0.02, 0.1, 0.5, 0.95])))
    else:
        rows = list(_pairs_matrix(k // 2).data) + [0] * (k % 2)
        for _ in range(draw(st.integers(0, 3))):
            i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
            if i != j:
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
        inner = BitMatrix(k, k, tuple(rows))
    return _scattered(inner, where, d)


def _random_invertible(rng: random.Random, d: int) -> BitMatrix:
    # random row additions and swaps starting from the identity
    rows = [1 << i for i in range(d)]
    for _ in range(4 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        if rng.random() < 0.5:
            rows[j] ^= rows[i]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return BitMatrix(d, d, tuple(rows))


class TestBitMatrix:
    def test_constructors_agree(self):
        m = BitMatrix.from_rows([[0, 1], [1, 0]])
        assert m == BitMatrix.from_strings(["01", "10"])
        assert m.to_rows() == [[0, 1], [1, 0]]
        assert m.to_strings() == ["01", "10"]

    def test_get_and_bounds(self):
        m = BitMatrix.from_strings(["011"])
        assert [m.get(0, j) for j in range(3)] == [0, 1, 1]
        with pytest.raises(IndexError):
            m.get(0, 3)
        with pytest.raises(IndexError):
            m.get(1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BitMatrix(2, 2, (0,))
        with pytest.raises(ValueError):
            BitMatrix(1, 1, (2,))
        with pytest.raises(ValueError):
            BitMatrix.from_rows([[1, 0], [1]])

    @pytest.mark.parametrize("ch", list("23456789") + [" ", "\t", "a", "x", "I", "-", "é"])
    def test_from_strings_rejects_a_non_bit_character_where_it_sits(self, ch):
        with pytest.raises(ValueError, match=rf"^entry \(1, 2\) is {re.escape(repr(ch))}, expected 0 or 1$"):
            BitMatrix.from_strings(["010", "01" + ch, "0" + ch + "1"])

    def test_from_strings_names_the_first_bad_entry(self):
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is '2'"):
            BitMatrix.from_strings(["02", "30"])
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is ' '"):
            BitMatrix.from_strings(["0 1"])

    @pytest.mark.parametrize("bit", [2, 3, 9, -1, 0.5, "0", "1", None, [1]])
    def test_from_rows_rejects_a_non_bit_entry_where_it_sits(self, bit):
        with pytest.raises(ValueError, match=rf"^entry \(1, 0\) is {re.escape(repr(bit))}, expected 0 or 1$"):
            BitMatrix.from_rows([[0, 1], [bit, 0]])

    def test_from_rows_names_the_first_bad_entry(self):
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is 3"):
            BitMatrix.from_rows([[0, 3], [2, 0]])

    def test_from_rows_accepts_bools_as_bits(self):
        # False and True equal 0 and 1, so a boolean mask is a bit row
        m = BitMatrix.from_rows([[False, True], [True, False]])
        assert m == BitMatrix.from_strings(["01", "10"])

    def test_transpose(self):
        m = BitMatrix.from_strings(["110", "001"])
        assert m.transpose().to_strings() == ["10", "10", "01"]
        assert m.transpose().transpose() == m

    # the bit codec has no zero-width shape: empty shapes must not reach it
    @pytest.mark.parametrize(
        "rows,cols",
        [(0, 0), (0, 1), (0, 5), (1, 0), (5, 0), (1, 1), (3, 7), (3, 8), (3, 9), (4, 65)],
    )
    def test_transpose_shapes(self, rows, cols):
        rng = random.Random(rows * 100 + cols)
        m = BitMatrix(rows, cols, tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)))
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t == loop_transpose(m)
        assert t.transpose() == m
        assert m.is_symmetric() == (rows == cols and t == m)
        assert m.to_strings() == loop_to_strings(m)
        full = BitMatrix(rows, cols, ((1 << cols) - 1,) * rows)
        assert full.transpose() == loop_transpose(full)

    @settings(max_examples=200, deadline=None)
    @given(bit_matrices())
    def test_transpose_matches_loop(self, m):
        assert m.transpose() == loop_transpose(m)
        assert m.is_symmetric() == (m.rows == m.cols and m == loop_transpose(m))

    @settings(max_examples=100, deadline=None)
    @given(bit_matrices())
    def test_to_strings_matches_loop(self, m):
        assert m.to_strings() == loop_to_strings(m)
        if m.rows:
            assert BitMatrix.from_strings(m.to_strings()) == m

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.floats(0.0, 1.0), st.integers(0, 10**9))
    def test_is_symmetric_sees_one_flipped_entry(self, d, density, seed):
        rng = random.Random(seed)
        m = _random_sym_hollow(rng, d, density)
        rows = list(m.data)
        assert m.is_symmetric()
        i, j = rng.randrange(d), rng.randrange(d)
        rows[i] ^= 1 << j
        assert BitMatrix(d, d, rows).is_symmetric() == (i == j)

    def test_symmetry_and_diagonal_helpers(self):
        assert BitMatrix.from_strings(["01", "10"]).is_symmetric()
        assert not BitMatrix.from_strings(["01", "00"]).is_symmetric()
        assert BitMatrix.from_strings(["01", "10"]).has_zero_diagonal()
        assert not BitMatrix.from_strings(["11", "10"]).has_zero_diagonal()

    @pytest.mark.parametrize("wrap", [list, lambda rows: (r for r in rows)], ids=["list", "generator"])
    def test_rows_given_as_any_iterable_are_kept_as_a_tuple(self, wrap):
        m, want = BitMatrix(2, 2, wrap((2, 1))), BitMatrix(2, 2, (2, 1))
        assert m.data == (2, 1) and m.is_symmetric()
        assert m == want and hash(m) == hash(want)
        assert congruence_reduce(m) == congruence_reduce(want)
        assert min_registers(m) == min_registers(want) == 1


class TestBitCodec:
    """The one packed-int <-> numpy 0/1 layout, and that nothing else writes it."""

    @settings(max_examples=200, deadline=None)
    @given(row_lists(widths=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 200])))
    def test_round_trip(self, case):
        cols, rows = case
        bits = _unpack_rows(rows, cols)
        assert bits.shape == (len(rows), cols)
        assert bits.tolist() == [[(r >> j) & 1 for j in range(cols)] for r in rows]
        assert _pack_rows(bits) == rows

    # the word path takes rows of up to 64 bits, the byte path wider ones
    BOUNDARY = [56, 57, 63, 64, 65]

    @staticmethod
    def byte_reference(rows, cols):
        """The layout spelled out: each row's little-endian bytes, unpacked
        low bit first and cut to ``cols`` bits."""
        width = (cols + 7) // 8
        out = np.zeros((len(rows), cols), np.uint8)
        for i, r in enumerate(rows):
            byte_row = np.frombuffer(r.to_bytes(width, "little"), np.uint8)
            out[i] = np.unpackbits(byte_row, count=cols, bitorder="little")
        return out

    @pytest.mark.parametrize("cols", BOUNDARY)
    @pytest.mark.parametrize("m", [1, 2, 2048])
    def test_word_boundary_against_the_byte_layout(self, m, cols):
        rng = random.Random(m * 100 + cols)
        rows = [rng.getrandbits(cols) for _ in range(m)]
        # the top bit of the row and bit 63, the top bit of a <u8 word
        rows[0] |= 1 << (cols - 1)
        if cols > 63:
            rows[-1] |= 1 << 63
        bits = _unpack_rows(rows, cols)
        want = self.byte_reference(rows, cols)
        assert bits.dtype == np.uint8 and bits.shape == (m, cols) and bits.flags.c_contiguous
        assert np.array_equal(bits, want)
        assert _pack_rows(want) == rows
        assert _pack_rows(bits) == rows

    @pytest.mark.parametrize("cols", BOUNDARY)
    def test_word_boundary_extremes(self, cols):
        rows = [0, (1 << cols) - 1, 1, 1 << (cols - 1)]
        assert np.array_equal(_unpack_rows(rows, cols), self.byte_reference(rows, cols))
        assert _pack_rows(_unpack_rows(rows, cols)) == rows
        assert _unpack_rows([], cols).shape == (0, cols)
        assert _pack_rows(np.zeros((0, cols), np.uint8)) == []

    @pytest.mark.parametrize("cols", [64, 65])
    def test_strings_and_symmetry_at_the_boundary(self, cols):
        rng = random.Random(cols)
        m = BitMatrix(cols, cols, [rng.getrandbits(cols) | 1 << 63 for _ in range(cols)])
        assert m.to_strings() == loop_to_strings(m)
        assert not m.is_symmetric() and m != loop_transpose(m)
        # a random upper triangle plus its transpose, with entries (0, 63) and (63, 0)
        upper = [rng.getrandbits(cols) >> (i + 1) << (i + 1) for i in range(cols)]
        upper[0] |= 1 << 63
        lower = loop_transpose(BitMatrix(cols, cols, upper)).data
        sym = BitMatrix(cols, cols, [u ^ t for u, t in zip(upper, lower)])
        assert sym.is_symmetric() and sym.to_strings() == loop_to_strings(sym)
        flipped = BitMatrix(cols, cols, sym.data[:-1] + (sym.data[-1] ^ 1 << (cols - 2),))
        assert not flipped.is_symmetric()

    # a transposed view packs to a non-contiguous array, which numpy will not
    # view as one void item per row; bools are bits too
    @pytest.mark.parametrize("cols", [1, 3, 8, 9, 16, 56, *range(57, 66)])
    @pytest.mark.parametrize("rows", [0, 1, 5])
    @pytest.mark.parametrize("layout", ["C", "transposed", "bool"])
    def test_pack_rows_reads_any_layout(self, rows, cols, layout):
        rng = random.Random(rows * 1000 + cols)
        want = [rng.getrandbits(cols) for _ in range(rows)]
        bits = np.array([[(r >> j) & 1 for j in range(cols)] for r in want], np.uint8).reshape(rows, cols)
        if layout == "transposed":
            bits = np.ascontiguousarray(bits.T).T
            assert not bits.flags.c_contiguous or min(rows, cols) <= 1
        elif layout == "bool":
            bits = bits.astype(bool)
        assert _pack_rows(bits) == want

    # the names that spell out a byte or bit layout
    LAYOUT = {"packbits", "unpackbits", "to_bytes", "from_bytes"}

    @pytest.mark.parametrize(
        "path",
        sorted(Path(paulicompress.__file__).parent.glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_only_gf2_names_the_bit_layout(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
                names.add(node.asname)
        if path.name == "gf2.py":
            assert self.LAYOUT <= names
        else:
            assert not names & self.LAYOUT

    @pytest.mark.parametrize(
        "path",
        sorted(Path(paulicompress.__file__).parent.glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_no_binary_text_bit_layout(self, path):
        """Bits never go through '0'/'1' text: no ``int(.., 2)``, no builtin
        ``format`` and no ``b`` format spec, in any module."""
        found = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "format":
                found.append(f"line {node.lineno}: builtin format")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int":
                base = node.args[1:] + [k.value for k in node.keywords if k.arg == "base"]
                if any(isinstance(b, ast.Constant) and b.value == 2 for b in base):
                    found.append(f"line {node.lineno}: int(.., 2)")
            elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
                spec = "".join(
                    v.value for v in node.format_spec.values if isinstance(v, ast.Constant)
                )
                if spec.endswith("b"):
                    found.append(f"line {node.lineno}: format spec {spec!r}")
        assert not found


def _names(path):
    """Every name, attribute and imported name in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


class TestModuleRoles:
    """gf2 owns the one numpy product; compress reaches numpy only through it;
    pauli owns the operator-to-image conversion."""

    MODULES = sorted(Path(paulicompress.__file__).parent.glob("*.py"))

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_only_gf2_names_matmul(self, path):
        assert ("matmul" in _names(path)) == (path.name == "gf2.py")

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_only_pauli_names_to_symplectic(self, path):
        # the package re-exports it; every other module takes images from pauli._images
        assert ("to_symplectic" in _names(path)) == (path.name in ("pauli.py", "__init__.py"))

    def test_compress_does_not_import_numpy(self):
        path = Path(paulicompress.__file__).parent / "compress.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
        assert "numpy" not in imported


def _dense_calls(monkeypatch, which):
    """Force every _mul call down one path ("rule" keeps the size rule) and
    return the list that gets one entry per dense product."""
    if which == "int":
        monkeypatch.setattr(gf2, "_SMALL_MUL_BITS", float("inf"))
    elif which == "dense":
        monkeypatch.setattr(gf2, "_SMALL_MUL_BITS", 0)
        monkeypatch.setattr(gf2, "_WIDE_MUL_RATIO", float("inf"))
    calls = []
    real = gf2._dense_mul
    monkeypatch.setattr(gf2, "_dense_mul", lambda *args: calls.append(1) or real(*args))
    return calls


def _operands(rng, rows, k, cols):
    return [rng.getrandbits(k) for _ in range(rows)], [rng.getrandbits(cols) for _ in range(k)]


class TestMul:
    """The one GF(2) product, on both paths, against the entry-by-entry loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 70), st.integers(0, 70), st.integers(0, 12),
        st.sampled_from(["rule", "int", "dense"]), st.randoms(use_true_random=False),
    )
    def test_matches_loop(self, k, cols, rows, which, rng):
        left, right = _operands(rng, rows, k, cols)
        with pytest.MonkeyPatch.context() as mp:
            _dense_calls(mp, which)
            assert list(_mul(left, right, cols)) == loop_mul(left, right, cols)

    # (k, cols, path taken): the right operand's k * cols bits on both sides
    # of 256, its cols / k on both sides of 50, and empty operands
    EDGES = [
        (16, 16, "int"), (257, 1, "dense"), (8, 32, "int"), (9, 29, "dense"),
        (6, 300, "dense"), (6, 301, "int"), (1, 256, "int"), (1, 257, "int"),
        (0, 300, "int"), (300, 0, "int"), (0, 0, "int"),
    ]

    @pytest.mark.parametrize("k,cols,path", EDGES)
    def test_rule_edges(self, monkeypatch, k, cols, path):
        calls = _dense_calls(monkeypatch, "rule")
        left, right = _operands(random.Random(k * 1000 + cols), 5, k, cols)
        assert list(_mul(left, right, cols)) == loop_mul(left, right, cols)
        assert ("dense" if calls else "int") == path

    @pytest.mark.parametrize("which", ["int", "dense"])
    def test_empty_left(self, monkeypatch, which):
        _dense_calls(monkeypatch, which)
        assert list(_mul([], _operands(random.Random(3), 0, 20, 30)[1], 30)) == []

    def test_empty_left_unpacks_nothing_even_when_dense_is_forced(self, monkeypatch):
        calls = _dense_calls(monkeypatch, "dense")
        monkeypatch.setattr(gf2, "_unpack_rows", lambda *args: pytest.fail("unpacked"))
        assert list(_mul([], _operands(random.Random(3), 0, 20, 30)[1], 30)) == []
        assert not calls

    @pytest.mark.parametrize("k,cols", [(0, 9), (9, 0), (0, 0)])
    def test_empty_operand_takes_the_int_path_even_when_dense_is_forced(self, monkeypatch, k, cols):
        calls = _dense_calls(monkeypatch, "dense")
        left, right = _operands(random.Random(4), 3, k, cols)
        assert list(_mul(left, right, cols)) == [0, 0, 0]
        assert not calls

    def test_several_row_blocks(self, monkeypatch):
        # 17 x 4 + 20 x 5 = 168 bytes a row: blocks of 3 rows, the last one short
        monkeypatch.setattr(gf2, "_BLOCK_BYTES", 3 * 168)
        calls = _dense_calls(monkeypatch, "dense")
        left, right = _operands(random.Random(5), 10, 17, 20)
        assert list(_mul(left, right, 20)) == loop_mul(left, right, 20)
        assert calls

    def test_tall_product_stays_within_the_block_budget(self, monkeypatch):
        # the rebuild's shape, many left rows over a square right operand; the
        # budget counts the float32 left block, the float32 counts and the parity
        k = cols = 100
        per_row = 4 * k + 5 * cols
        rows = gf2._BLOCK_BYTES // per_row * 7 // 4  # one full block and a short one
        left, right = _operands(random.Random(8), rows, k, cols)
        blocks = []
        real = gf2._pack_rows
        monkeypatch.setattr(gf2, "_pack_rows", lambda bits: blocks.append(len(bits)) or real(bits))
        calls = _dense_calls(monkeypatch, "rule")
        tracemalloc.start()
        try:
            dense = list(_mul(left, right, cols))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls and len(blocks) == 2 and sum(blocks) == rows
        assert max(blocks) * per_row <= gf2._BLOCK_BYTES
        # numpy reports its buffers to tracemalloc; the rest is the unpacked
        # uint8 left block, the packed rows and the result
        assert peak < 1.5 * gf2._BLOCK_BYTES
        assert dense == [gf2._xor_rows(right, row) for row in left]

    def test_mat_mul_is_the_product(self, monkeypatch):
        calls = _dense_calls(monkeypatch, "rule")
        rng = random.Random(6)
        a = BitMatrix(7, 30, [rng.getrandbits(30) for _ in range(7)])
        b = BitMatrix(30, 25, [rng.getrandbits(25) for _ in range(30)])
        assert mat_mul(a, b).data == tuple(loop_mul(list(a.data), list(b.data), 25))
        assert calls  # 30 x 25 bits: the dense path

    def test_inexact_size_is_rejected_before_anything_is_unpacked(self, monkeypatch):
        monkeypatch.setattr(gf2, "_unpack_rows", lambda *args: pytest.fail("unpacked"))
        with pytest.raises(ValueError, match="exact below"):
            _mul([1], [0] * (1 << 23), 1)


def greedy_rows(rows, cols):
    """``_independent_rows`` with the row loop forced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_TALL_ROWS", float("inf"))
        return gf2._independent_rows(rows, cols)


def column_rows(rows, cols):
    """``_independent_rows`` with the column path forced (even for m = 0)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_TALL_ROWS", -1)
        return gf2._independent_rows(rows, cols)


@st.composite
def declared_row_lists(draw):
    """(declared width, rows): :func:`row_lists`, narrow and up to 4x taller
    than wide as often as not, declared up to 20 bits wider than drawn."""
    width, rows = draw(
        st.one_of(
            row_lists(widths=st.integers(1, 70), sizes=st.integers(0, 40)),
            row_lists(widths=st.integers(1, 12), sizes=st.integers(0, 48)),
        )
    )
    return width + draw(st.integers(0, 20)), rows


class TestIndependentRows:
    """The one elimination: the column path against the row loop, and both
    against the definition of the greedy basis."""

    @staticmethod
    def check_greedy(rows, joined, combos):
        """Each combo rebuilds its row from joined rows at or before it, a
        joined row's combo is its own bit, and the joined rows are independent."""
        assert len(combos) == len(rows)
        for i, (row, combo) in enumerate(zip(rows, combos)):
            assert combo >> len(joined) == 0
            used = [joined[k] for k in range(len(joined)) if combo >> k & 1]
            assert all(j <= i for j in used)
            assert functools.reduce(operator.xor, (rows[j] for j in used), 0) == row
        for k, j in enumerate(joined):
            assert combos[j] == 1 << k
        width = max(rows, default=0).bit_length()
        assert gauss_jordan_rank(BitMatrix(len(joined), width, [rows[j] for j in joined])) == len(joined)

    @settings(max_examples=300, deadline=None)
    @given(declared_row_lists())
    def test_column_path_matches_the_row_loop(self, case):
        cols, rows = case
        joined, combos = column_rows(rows, cols)
        assert (joined, combos) == greedy_rows(rows, cols)
        self.check_greedy(rows, joined, combos)

    @pytest.mark.parametrize(
        "rows,cols",
        [
            ([], 0), ([], 1), ([], 9), ([0], 0), ([0, 0, 0], 0), ([0, 0], 1), ([1], 1),
            ([1, 1, 0, 1], 1), ([0, 3, 3, 0, 1, 2], 2), ([5, 0, 5], 40), ([1 << 70, 3, (1 << 70) ^ 3], 71),
        ],
    )
    def test_small_cases_on_both_paths(self, rows, cols):
        for path in (greedy_rows, column_rows):
            joined, combos = path(rows, cols)
            self.check_greedy(rows, joined, combos)
        assert column_rows(rows, cols) == greedy_rows(rows, cols)

    # (m, cols, rank): wide_planted's term shape, and a combo width of
    # min(m, cols) bits filled by the rank from either side
    PLANTED = [(192, 192, 144), (150, 40, 40), (40, 150, 40), (300, 12, 7)]

    @pytest.mark.parametrize("m,cols,r", PLANTED)
    def test_row_loop_on_planted_shapes(self, m, cols, r):
        rng = random.Random(m * 1000 + cols)
        base = [rng.getrandbits(cols) for _ in range(r)]
        assert gauss_jordan_rank(BitMatrix(r, cols, base)) == r
        rows = base + [functools.reduce(operator.xor, (b for b in base if rng.random() < 0.5), 0)
                       for _ in range(m - r)]
        rng.shuffle(rows)
        joined, combos = greedy_rows(rows, cols)
        assert len(joined) == r
        assert (joined, combos) == column_rows(rows, cols)
        self.check_greedy(rows, joined, combos)

    def test_low_rank_tall_input(self):
        # 600 rows in the span of 5 vectors of 30 bits: all but a few are dependent
        rng = random.Random(8)
        base = [rng.getrandbits(30) for _ in range(5)]
        rows = [functools.reduce(operator.xor, (b for b in base if rng.random() < 0.5), 0) for _ in range(600)]
        joined, combos = gf2._independent_rows(rows, 30)
        assert (joined, combos) == greedy_rows(rows, 30)
        self.check_greedy(rows, joined, combos)

    # (m, cols, path taken): m on both sides of _TALL_ROWS * cols, empty
    # shapes, and the benchmark's shapes (jw_tall's terms, a five-mode
    # Jordan-Wigner Hamiltonian, wide_planted's terms)
    EDGES = [
        (192, 12, "rows"), (193, 12, "columns"), (16, 1, "rows"), (17, 1, "columns"),
        (0, 0, "rows"), (0, 7, "rows"), (1, 0, "columns"), (3, 0, "columns"),
        (285, 12, "columns"), (131, 10, "rows"), (192, 192, "rows"),
    ]

    @pytest.mark.parametrize("m,cols,path", EDGES)
    def test_rule_edges(self, monkeypatch, m, cols, path):
        assert gf2._TALL_ROWS == 16
        calls = spy(monkeypatch, gf2, "_column_basis")
        rng = random.Random(m * 1000 + cols)
        rows = [rng.getrandbits(cols) if cols else 0 for _ in range(m)]
        assert gf2._independent_rows(rows, cols) == greedy_rows(rows, cols)
        assert ("columns" if calls else "rows") == path

    def test_a_tall_rank_takes_the_columns(self, monkeypatch):
        # the rank-only column path: forward elimination, no combos
        calls = spy(monkeypatch, gf2, "_column_pivots")
        m = BitMatrix(40, 2, (1, 2, 3, 0) * 10)
        assert rank(m) == 2 and calls


def spy(monkeypatch, module, name):
    """Wrap ``module.name``; the returned list gets one entry per call."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or real(*args))
    return calls


def column_joined(rows, cols):
    """``_joined_rows`` with the column path forced (even for m = 0)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_TALL_ROWS", -1)
        return gf2._joined_rows(rows, cols)


class TestJoinedRows:
    """The joined rows alone: the forward column elimination on tall lists,
    the row loop below, each against both paths of ``_independent_rows``."""

    @staticmethod
    def check(rows, cols):
        want = greedy_rows(rows, cols)[0]
        assert gf2._joined_rows(rows, cols) == gf2._independent_rows(rows, cols)[0] == want
        assert column_joined(rows, cols) == column_rows(rows, cols)[0] == want
        assert rank(BitMatrix(len(rows), cols, rows)) == len(want)

    @settings(max_examples=300, deadline=None)
    @given(declared_row_lists())
    def test_matches_the_greedy_basis(self, case):
        cols, rows = case
        self.check(rows, cols)

    @pytest.mark.parametrize("m,cols,path", TestIndependentRows.EDGES)
    def test_rule_edges(self, monkeypatch, m, cols, path):
        rng = random.Random(m * 1000 + cols)
        rows = [rng.getrandbits(cols) if cols else 0 for _ in range(m)]
        pivots = spy(monkeypatch, gf2, "_column_pivots")
        basis = spy(monkeypatch, gf2, "_column_basis")
        assert gf2._joined_rows(rows, cols) == greedy_rows(rows, cols)[0]
        # the tall side eliminates forward only, never back-substitutes
        assert (len(pivots), len(basis)) == ((1, 0) if path == "columns" else (0, 0))
        self.check(rows, cols)

    @pytest.mark.parametrize("rows,cols", [([], 0), ([], 5), ([0], 0), ([0] * 40, 0), ([0] * 40, 2), ([3] * 40, 2)])
    def test_empty_and_zero_width(self, rows, cols):
        self.check(rows, cols)

    @settings(max_examples=200, deadline=None)
    @given(declared_row_lists())
    def test_rank_and_invertibility_unchanged(self, case):
        cols, rows = case
        m = BitMatrix(len(rows), cols, rows)
        assert rank(m) == gauss_jordan_rank(m) == len(greedy_rows(rows, cols)[0])
        square = BitMatrix(cols, cols, (rows + [0] * cols)[:cols])
        assert is_invertible(square) == (gauss_jordan_rank(square) == cols)

    @settings(max_examples=100, deadline=None)
    @given(declared_row_lists())
    def test_symplectic_rank_unchanged(self, case):
        width, rows = case
        n = (width + 1) // 2
        ops = [paulicompress.from_symplectic(r, n) for r in rows]
        want = len(greedy_rows(rows, 2 * n)[0])
        assert paulicompress.symplectic_rank(ops) == want


class TestRank:
    def test_zero_and_identity(self):
        assert rank(BitMatrix.zeros(4, 4)) == 0
        assert rank(BitMatrix.identity(5)) == 5

    def test_reference_commutation_matrix(self):
        assert rank(BitMatrix.from_strings(ref.COMM_ROWS)) == ref.COMM_RANK

    def test_wide_and_tall(self):
        assert rank(BitMatrix.from_strings(["1010"])) == 1
        assert rank(BitMatrix.from_strings(["1", "1", "0"])) == 1

    def test_against_span_enumeration(self):
        rng = random.Random(11)
        for _ in range(60):
            r, c = rng.randint(0, 6), rng.randint(1, 7)
            m = BitMatrix(r, c, tuple(rng.randrange(1 << c) for _ in range(r)))
            assert rank(m) == _span_size_rank(m)

    @settings(max_examples=200, deadline=None)
    @given(row_lists())
    def test_against_gauss_jordan(self, case):
        width, rows = case
        m = BitMatrix(len(rows), width, tuple(rows))
        assert rank(m) == gauss_jordan_rank(m)


class TestMatMul:
    def test_identity_and_zero(self):
        m = BitMatrix.from_strings(["101", "010"])
        assert mat_mul(BitMatrix.identity(2), m) == m
        assert mat_mul(m, BitMatrix.zeros(3, 2)) == BitMatrix.zeros(2, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mat_mul(BitMatrix.identity(2), BitMatrix.identity(3))

    def test_reference_factorization(self):
        # the corrected transform reconstructs the commutation matrix ...
        m = BitMatrix.from_strings(ref.COMM_ROWS)
        t = BitMatrix.from_strings(ref.TRANSFORM_ROWS)
        form = CanonicalForm(8, ref.ISO_COUNT, ref.PAIR_COUNT, t)
        assert mat_mul(mat_mul(t, form.canonical_matrix()), t.transpose()) == m
        # ... and the quoted one provably cannot (see reference_example)
        tq = BitMatrix.from_strings(ref.TRANSFORM_QUOTED_ROWS)
        formq = CanonicalForm(8, ref.ISO_COUNT, ref.PAIR_COUNT, tq)
        assert mat_mul(mat_mul(tq, formq.canonical_matrix()), tq.transpose()) != m

    def test_reference_reduction_sequence_replay(self):
        # applying the recorded simultaneous row+column additions to the
        # commutation matrix lands exactly on the reduced block form
        a = list(BitMatrix.from_strings(ref.COMM_ROWS).data)
        d = len(a)
        for src, dst in ref.REDUCTION_SEQUENCE:
            a[dst] ^= a[src]
            for r in range(d):
                a[r] ^= ((a[r] >> src) & 1) << dst
        assert BitMatrix(d, d, tuple(a)) == BitMatrix.from_strings(ref.REDUCED_ROWS)


class TestIsInvertible:
    def test_examples(self):
        assert is_invertible(BitMatrix.identity(3))
        assert not is_invertible(BitMatrix.zeros(2, 2))
        # both reference transforms are invertible (products of elementary ops)
        assert is_invertible(BitMatrix.from_strings(ref.TRANSFORM_ROWS))
        assert is_invertible(BitMatrix.from_strings(ref.TRANSFORM_QUOTED_ROWS))

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            is_invertible(BitMatrix.zeros(2, 3))


class TestCanonicalForm:
    def test_block_matrix_layout(self):
        form = CanonicalForm(4, 2, 1, BitMatrix.identity(4))
        assert form.canonical_matrix().to_strings() == ["0000", "0000", "0001", "0010"]

    def test_count_validation(self):
        with pytest.raises(ValueError, match="add up"):
            CanonicalForm(4, 1, 1, BitMatrix.identity(4))
        with pytest.raises(ValueError, match="square"):
            CanonicalForm(4, 2, 1, BitMatrix.identity(3))


class TestCongruenceReduce:
    def test_zero_matrix(self):
        form = congruence_reduce(BitMatrix.zeros(3, 3))
        assert (form.iso_count, form.pair_count) == (3, 0)
        assert form.transform == BitMatrix.identity(3)

    def test_already_canonical_pair(self):
        form = congruence_reduce(BitMatrix.from_strings(["01", "10"]))
        assert (form.iso_count, form.pair_count) == (0, 1)
        assert form.transform == BitMatrix.identity(2)

    def test_reference_commutation_matrix(self):
        m = BitMatrix.from_strings(ref.COMM_ROWS)
        form = congruence_reduce(m)
        assert (form.iso_count, form.pair_count) == (ref.ISO_COUNT, ref.PAIR_COUNT)
        rebuilt = mat_mul(
            mat_mul(form.transform, form.canonical_matrix()), form.transform.transpose()
        )
        assert rebuilt == m

    @pytest.mark.parametrize(
        "rows,msg",
        [
            (["010", "100"], "square"),
            (["01", "00"], "symmetric"),
            (["11", "10"], "zero diagonal"),
            (["10", "01"], "zero diagonal"),
        ],
    )
    def test_precondition_errors(self, rows, msg):
        with pytest.raises(ValueError, match=msg):
            congruence_reduce(BitMatrix.from_strings(rows))

    @pytest.mark.parametrize("rows", [["1"], ["00", "10"], ["100", "000", "000"]])
    def test_columns_refuse_a_live_row_without_partner(self, rows):
        # the private reduction checks nothing up front; a live row that hits
        # no later row raises RuntimeError, not StopIteration
        with pytest.raises(RuntimeError, match="not alternating"):
            gf2._congruence_columns(BitMatrix.from_strings(rows))

    def test_deterministic(self):
        rng = random.Random(2)
        m = _random_sym_hollow(rng, 20)
        assert congruence_reduce(m) == congruence_reduce(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 10**9))
    def test_factorization_random(self, d, seed):
        m = _random_sym_hollow(random.Random(seed), d)
        form = congruence_reduce(m)
        assert form.dim == d
        assert rank(m) == 2 * form.pair_count  # alternating form: rank is even
        assert form.iso_count == d - rank(m)
        rebuilt = mat_mul(
            mat_mul(form.transform, form.canonical_matrix()), form.transform.transpose()
        )
        assert rebuilt == m
        if d:
            assert is_invertible(form.transform)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 48), st.floats(0.0, 1.0), st.integers(0, 10**9))
    def test_matches_the_full_row_loop(self, d, density, seed):
        m = _random_sym_hollow(random.Random(seed), d, density)
        assert congruence_reduce(m) == loop_congruence_reduce(m)

    def test_matches_the_full_row_loop_on_every_small_matrix(self):
        # every pivot pattern: all alternating matrices with d <= 5
        count = 0
        for d in range(6):
            pairs = list(itertools.combinations(range(d), 2))
            for upper in range(1 << len(pairs)):
                rows = [0] * d
                for k, (i, j) in enumerate(pairs):
                    if (upper >> k) & 1:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                m = BitMatrix(d, d, tuple(rows))
                assert congruence_reduce(m) == loop_congruence_reduce(m)
                count += 1
        assert count == 1 + 1 + 2 + 8 + 64 + 1024

    @pytest.mark.parametrize("d,density", [(144, 0.5), (144, 0.03), (200, 0.97)])
    def test_matches_the_full_row_loop_when_wide(self, d, density):
        m = _random_sym_hollow(random.Random(d), d, density)
        assert congruence_reduce(m) == loop_congruence_reduce(m)

    def test_zero_rows_interleaved(self):
        # every even row is zero, so each pivot step finds its live row past
        # the first active position and swaps a zero row out of the way
        rng = random.Random(7)
        inner = _random_sym_hollow(rng, 12, 0.4)
        m = _scattered(inner, list(range(1, 24, 2)), 24)
        assert m.data[0] == 0 and any(m.data)
        assert congruence_reduce(m) == loop_congruence_reduce(m)

    def test_partners_far_apart(self):
        # permuted antidiagonal pairs: the first pair is (0, d - 1), so the
        # partner is found at the far end of the active block
        d = 40
        rest = random.Random(8).sample(range(1, d - 1), d - 2)
        m = _scattered(_pairs_matrix(d // 2), [0, d - 1] + rest, d)
        assert (m.data[0] & -m.data[0]).bit_length() - 1 == d - 1
        assert congruence_reduce(m) == loop_congruence_reduce(m)

    @settings(max_examples=40, deadline=None)
    @given(drifting_alternating())
    def test_matches_the_full_row_loop_when_positions_drift(self, m):
        assert congruence_reduce(m) == loop_congruence_reduce(m)

    def test_factorization_at_d_512(self):
        m = _random_sym_hollow(random.Random(512), 512, 0.5)
        form = congruence_reduce(m)
        assert 2 * form.pair_count == rank(m)
        rebuilt = mat_mul(
            mat_mul(form.transform, form.canonical_matrix()), form.transform.transpose()
        )
        assert rebuilt == m
        assert is_invertible(form.transform)

    def test_rank_invariant_under_congruence(self):
        rng = random.Random(31)
        for _ in range(40):
            d = rng.randint(1, 24)
            m = _random_sym_hollow(rng, d)
            r = _random_invertible(rng, d)
            conj = mat_mul(mat_mul(r, m), r.transpose())
            assert rank(conj) == rank(m)
