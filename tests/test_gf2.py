"""Unit tests for the packed GF(2) linear algebra."""

import functools
import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulicompress.gf2 import (
    BitMatrix,
    CanonicalForm,
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

    # format(0, "00b") is "0": empty shapes must not grow a phantom column
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

    def test_symmetry_and_diagonal_helpers(self):
        assert BitMatrix.from_strings(["01", "10"]).is_symmetric()
        assert not BitMatrix.from_strings(["01", "00"]).is_symmetric()
        assert BitMatrix.from_strings(["01", "10"]).has_zero_diagonal()
        assert not BitMatrix.from_strings(["11", "10"]).has_zero_diagonal()


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

    @pytest.mark.parametrize("d,density", [(144, 0.5), (144, 0.03), (200, 0.97)])
    def test_matches_the_full_row_loop_when_wide(self, d, density):
        m = _random_sym_hollow(random.Random(d), d, density)
        assert congruence_reduce(m) == loop_congruence_reduce(m)

    def test_rank_invariant_under_congruence(self):
        rng = random.Random(31)
        for _ in range(40):
            d = rng.randint(1, 24)
            m = _random_sym_hollow(rng, d)
            r = _random_invertible(rng, d)
            conj = mat_mul(mat_mul(r, m), r.transpose())
            assert rank(conj) == rank(m)
