"""Differential tests of the Gram routine, and the compress postcondition.

``commutation_matrix`` and ``verify_equivalence`` share one routine for
pairwise symplectic products, with a packed-int path for small or tall
inputs and an exact float32 product for the rest.  Here both paths are
compared with the plain O(m^2) loop over ``symplectic_product`` and with
the dense-matrix oracle.  Register counts reach 40, so the 2n-bit images
span more than one 64-bit word.  ``verify_equivalence`` compares only the
Gram rows of both collections' generators (the S-row lemma); its answer
is checked against the full O(m^2) comparison, ``_pairwise_match``.
"""

import importlib
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulicompress import (
    BitMatrix,
    CanonicalForm,
    PauliString,
    WeightedPauli,
    commutation_matrix,
    compose,
    compress,
    from_symplectic,
    symplectic_product,
    symplectic_rank,
    to_symplectic,
    verify_equivalence,
)
from paulicompress.oracle import DENSE_CAP, oracle_commutation_matrix

import reference_example as ref

ROOT = Path(__file__).resolve().parents[1]
# the package re-exports a function named compress, so fetch the module
compress_module = importlib.import_module("paulicompress.compress")


def _pairwise_rows(ops):
    """Reference Gram matrix: one symplectic_product call per ordered pair."""
    return tuple(sum(symplectic_product(p, q) << j for j, q in enumerate(ops)) for p in ops)


def _pairwise_match(original, candidate):
    """Reference for EquivalenceReport.pairwise_match."""
    return all(
        symplectic_product(original[i], original[j])
        == symplectic_product(candidate[i], candidate[j])
        for i in range(len(original))
        for j in range(i + 1, len(original))
    )


@st.composite
def collections(draw, max_n, sizes=st.integers(0, 12), registers=None):
    """Operators on one register count: fresh ones mixed with identities,
    duplicates and products of earlier terms (dependent terms)."""
    n = draw(st.integers(1, max_n) if registers is None else registers)
    top = (1 << n) - 1
    ops = []
    for _ in range(draw(sizes)):
        kind = draw(st.sampled_from(["fresh", "identity", "duplicate", "product"]))
        if kind == "identity":
            ops.append(PauliString.identity(n))
        elif kind == "duplicate" and ops:
            ops.append(draw(st.sampled_from(ops)))
        elif kind == "product" and len(ops) >= 2:
            ops.append(compose(draw(st.sampled_from(ops)), draw(st.sampled_from(ops))))
        else:
            ops.append(PauliString(n, draw(st.integers(0, top)), draw(st.integers(0, top))))
    return ops


def _flip_pair(ops, i, j):
    """The same operators on one extra register on which only terms i and j
    act, with X and Z, so exactly the pair (i, j) changes its relation."""
    n = ops[0].n
    out = [PauliString(n + 1, op.x_bits, op.z_bits) for op in ops]
    out[i] = PauliString(n + 1, ops[i].x_bits | (1 << n), ops[i].z_bits)
    out[j] = PauliString(n + 1, ops[j].x_bits, ops[j].z_bits | (1 << n))
    return out


def _flip_bit(ops, i, bit):
    """The operators with one bit of term i's symplectic image flipped."""
    out = list(ops)
    out[i] = from_symplectic(to_symplectic(ops[i]) ^ (1 << bit), ops[i].n)
    return out


def _clear_registers(ops, count):
    """The operators with the identity on their first ``count`` registers."""
    keep = ~((1 << count) - 1)
    return [PauliString(op.n, op.x_bits & keep, op.z_bits & keep) for op in ops]


def _z_tagged(ops, tagged):
    """The operators on one extra register, with a Z there on the terms in
    ``tagged``: no pairing changes, but the rank can grow."""
    n = ops[0].n
    return [
        PauliString(n + 1, op.x_bits, op.z_bits | ((i in tagged) << n))
        for i, op in enumerate(ops)
    ]


@contextmanager
def gram_path(which):
    """Send every _gram_rows call down one path, whatever the input size."""
    with pytest.MonkeyPatch.context() as mp:
        if which == "int":
            mp.setattr(compress_module, "_SMALL_GRAM_BITS", float("inf"))
        elif which == "dense":
            mp.setattr(compress_module, "_SMALL_GRAM_BITS", -1)
            mp.setattr(compress_module, "_TALL_GRAM_RATIO", float("inf"))
        yield


def _random_ops(m, n, seed):
    rng = random.Random(seed)
    return [PauliString(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(m)]


class TestGramPaths:
    """The packed-int and the dense float32 path give the same bits."""

    @settings(max_examples=100, deadline=None)
    @given(collections(max_n=40, sizes=st.integers(0, 40)), st.sampled_from(["int", "dense"]))
    def test_each_path_matches_pairwise_loop(self, ops, which):
        with gram_path(which):
            assert tuple(compress_module._gram_rows(ops)) == _pairwise_rows(ops)

    # (m, n, path taken) on both sides of each edge of the size rule, and n = 1
    EDGES = [
        (1, 1, "int"), (128, 1, "int"), (129, 1, "int"),
        (8, 16, "int"), (9, 16, "dense"), (42, 3, "int"), (43, 3, "dense"),
        (300, 3, "dense"), (301, 3, "int"),
    ]

    @pytest.mark.parametrize("m,n,path", EDGES)
    def test_rule_edges_match_pairwise_loop(self, monkeypatch, m, n, path):
        calls = []
        real = compress_module._xor_rows
        monkeypatch.setattr(
            compress_module, "_xor_rows", lambda rows, mask: calls.append(1) or real(rows, mask)
        )
        ops = _random_ops(m, n, seed=m * 1000 + n)
        assert commutation_matrix(ops).data == _pairwise_rows(ops)
        assert ("int" if calls else "dense") == path

    @pytest.mark.parametrize("which", ["int", "dense"])
    def test_single_register(self, which):
        ops = [PauliString.from_string(t) for t in "XZYIXXZY"]
        with gram_path(which):
            assert tuple(compress_module._gram_rows(ops)) == _pairwise_rows(ops)

    def test_several_row_blocks_match_int_path(self):
        m, n = 2100, 21
        assert compress_module._SMALL_GRAM_BITS < m * n
        assert m <= compress_module._TALL_GRAM_RATIO * n
        assert compress_module._BLOCK_ENTRIES // m < m  # more than one block, the last one short
        ops = _random_ops(m, n, seed=5)
        dense = tuple(compress_module._gram_rows(ops))
        with gram_path("int"):
            assert dense == tuple(compress_module._gram_rows(ops))

    def test_register_count_beyond_exact_float32_is_rejected(self):
        # identity operators: nothing of size n is ever unpacked
        ops = [PauliString(1 << 22, 0, 0)] * 2
        with pytest.raises(ValueError, match="exact below"):
            commutation_matrix(ops)


class TestGramDifferential:
    @settings(max_examples=150, deadline=None)
    @given(collections(max_n=40))
    def test_commutation_matrix_matches_pairwise_loop(self, ops):
        assert commutation_matrix(ops).data == _pairwise_rows(ops)

    # dense matrices have 4^n entries, so n stays well inside DENSE_CAP
    @settings(max_examples=40, deadline=None)
    @given(collections(max_n=min(DENSE_CAP, 5), sizes=st.integers(0, 8)))
    def test_commutation_matrix_matches_dense_oracle(self, ops):
        assert commutation_matrix(ops) == oracle_commutation_matrix(ops)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_verify_equivalence_matches_pairwise_loop(self, data):
        original = data.draw(collections(max_n=40))
        if data.draw(st.booleans()) and symplectic_rank(original):
            result = compress([WeightedPauli(op) for op in original])
            candidate = [t.op for t in result.images]
        else:
            candidate = data.draw(collections(max_n=40, sizes=st.just(len(original))))
        rep = verify_equivalence(original, candidate)
        assert rep.pairwise_match == _pairwise_match(original, candidate)
        assert rep.rank_original == symplectic_rank(original)
        assert rep.rank_candidate == symplectic_rank(candidate)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_flipped_pair_fails(self, data):
        ops = data.draw(collections(max_n=40, sizes=st.integers(2, 12)))
        i, j = data.draw(
            st.lists(st.integers(0, len(ops) - 1), min_size=2, max_size=2, unique=True)
        )
        candidate = _flip_pair(ops, i, j)
        assert not _pairwise_match(ops, candidate)
        rep = verify_equivalence(ops, candidate)
        assert not rep.pairwise_match
        assert not rep.passed


@st.composite
def verify_pairs(draw):
    """(original, candidate) of equal length, positives and negatives both.

    The original mixes fresh terms with identities, duplicates and
    dependent terms.  The candidate is one of: its compressed images
    (another register count), those images with one bit flipped, those
    images with the isolated registers cleared (equal pairings, lower
    rank when there are isolated registers), the original with Z tags on
    an extra register (equal pairings, rank equal or higher), or an
    unrelated collection on another register count.
    """
    original = draw(collections(max_n=12, sizes=st.integers(1, 16)))
    kind = draw(st.sampled_from(["images", "flipped", "collapsed", "tagged", "other"]))
    if kind in ("images", "flipped", "collapsed") and symplectic_rank(original):
        result = compress([WeightedPauli(op) for op in original])
        candidate = [t.op for t in result.images]
        if kind == "flipped":
            i = draw(st.integers(0, len(candidate) - 1))
            candidate = _flip_bit(candidate, i, draw(st.integers(0, 2 * result.q - 1)))
        elif kind == "collapsed":
            candidate = _clear_registers(candidate, result.canonical.iso_count)
        return original, candidate
    if kind == "tagged":
        tagged = draw(st.sets(st.integers(0, len(original) - 1)))
        return original, _z_tagged(original, tagged)
    n = original[0].n
    other = st.integers(1, 40).filter(lambda k: k != n)
    return original, draw(
        collections(max_n=40, sizes=st.just(len(original)), registers=other)
    )


class TestSRowRule:
    """Verification from the generator rows agrees with the m x m comparison."""

    @settings(max_examples=300, deadline=None)
    @given(verify_pairs(), st.sampled_from(["rule", "int", "dense"]))
    def test_matches_full_comparison(self, pair, which):
        original, candidate = pair
        with gram_path(which):
            rep = verify_equivalence(original, candidate)
        assert rep.pairwise_match == _pairwise_match(original, candidate)
        assert rep.rank_original == symplectic_rank(original)
        assert rep.rank_candidate == symplectic_rank(candidate)
        assert rep.rank_match == (rep.rank_original == rep.rank_candidate)
        assert rep.passed == (rep.pairwise_match and rep.rank_match)

    @settings(max_examples=100, deadline=None)
    @given(collections(max_n=12, sizes=st.integers(0, 16)))
    def test_equal_pairings_with_a_collapsed_rank_fail(self, ops):
        # one more term, a Z on a fresh register: it commutes with every
        # term and is independent of them all; the candidate has the
        # identity in its place
        candidate = ops + [PauliString.identity(ops[0].n if ops else 1)]
        original = _z_tagged(candidate, {len(ops)})
        assert _pairwise_match(original, candidate)
        rep = verify_equivalence(original, candidate)
        assert rep.pairwise_match
        assert rep.rank_original == rep.rank_candidate + 1
        assert not rep.rank_match
        assert not rep.passed

    @settings(max_examples=100, deadline=None)
    @given(verify_pairs())
    def test_computes_at_most_rank_sum_rows_per_side(self, pair):
        original, candidate = pair
        produced = []
        real = compress_module._gram_rows

        def counted(ops, rows=None):
            produced.append(0)
            k = len(produced) - 1

            def each():
                for row in real(ops, rows):
                    produced[k] += 1
                    yield row

            return each()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compress_module, "_gram_rows", counted)
            rep = verify_equivalence(original, candidate)
        assert len(produced) == 2
        assert max(produced) <= rep.rank_original + rep.rank_candidate

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["int", "dense"]))
    def test_selected_rows_are_rows_of_the_full_matrix(self, data, which):
        ops = data.draw(collections(max_n=40, sizes=st.integers(1, 40)))
        rows = data.draw(st.lists(st.integers(0, len(ops) - 1), max_size=2 * len(ops)))
        full = _pairwise_rows(ops)
        with gram_path(which):
            assert list(compress_module._gram_rows(ops, rows)) == [full[i] for i in rows]


# (input operators, iso_count, pair_count, transform rows) that congruence_reduce
# is made to return.  The quoted reference transform provably does not
# reproduce the commutation matrix (see reference_example); the zero
# transform on an all-commuting input does, but it is singular.
CORRUPTIONS = [
    (ref.OPS, ref.ISO_COUNT, ref.PAIR_COUNT, ref.TRANSFORM_QUOTED_ROWS, "commutation matrix"),
    (["ZI", "IZ"], 2, 0, ["00", "00"], "not independent"),
]
CORRUPTION_IDS = ["quoted-transform", "singular-transform"]

_UNDER_O = """
import importlib
import sys
from paulicompress import BitMatrix, CanonicalForm, PauliString, WeightedPauli

texts, iso, pairs, rows = {case!r}
form = CanonicalForm(len(rows), iso, pairs, BitMatrix.from_strings(rows))
c = importlib.import_module("paulicompress.compress")
c.congruence_reduce = lambda m: form
try:
    c.compress([WeightedPauli(PauliString.from_string(t)) for t in texts])
except RuntimeError as exc:
    print(sys.flags.optimize, exc)
"""


class TestPostcondition:
    @pytest.mark.parametrize("texts,iso,pairs,rows,msg", CORRUPTIONS, ids=CORRUPTION_IDS)
    def test_corrupted_reduction_raises(self, monkeypatch, texts, iso, pairs, rows, msg):
        form = CanonicalForm(len(rows), iso, pairs, BitMatrix.from_strings(rows))
        monkeypatch.setattr(compress_module, "congruence_reduce", lambda m: form)
        with pytest.raises(RuntimeError, match=msg):
            compress([WeightedPauli(PauliString.from_string(t)) for t in texts])

    @pytest.mark.parametrize("texts,iso,pairs,rows,msg", CORRUPTIONS, ids=CORRUPTION_IDS)
    def test_corrupted_reduction_raises_under_optimize(self, texts, iso, pairs, rows, msg):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", _UNDER_O.format(case=(texts, iso, pairs, rows))],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        optimize, _, message = done.stdout.strip().partition(" ")
        assert optimize == "1"
        assert msg in message
