"""Differential tests of the Gram routine, and the compress postcondition.

``commutation_matrix`` and ``verify_equivalence`` share one routine for
pairwise symplectic products, whose product ``gf2._mul`` takes a packed-int
path for small or tall inputs and an exact float32 product for the rest.
Here both paths are compared with the plain O(m^2) loop over
``symplectic_product`` and with the dense-matrix oracle.  Register counts
reach 40, so the 2n-bit images span more than one 64-bit word.
``verify_equivalence`` compares only the Gram rows of both collections'
generators (the S-row lemma); its answer is checked against the full
O(m^2) comparison, ``_pairwise_match``.
"""

import ast
import importlib
import inspect
import itertools
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
from paulicompress import gf2
from paulicompress.cli import cli_main
from paulicompress.oracle import DENSE_CAP, oracle_commutation_matrix
from paulicompress.pauli import _images

import reference_example as ref
from test_gf2 import gauss_jordan_rank

ROOT = Path(__file__).resolve().parents[1]
# the package re-exports a function named compress, so fetch the module
compress_module = importlib.import_module("paulicompress.compress")


def _pairwise_rows(ops):
    """Reference Gram matrix: one symplectic_product call per ordered pair."""
    return tuple(sum(symplectic_product(p, q) << j for j, q in enumerate(ops)) for p in ops)


def _gram_rows(ops, rows=None):
    """compress._gram_rows on the operators' images."""
    n, images = _images(ops, "collection")
    return compress_module._gram_rows(images, n, rows)


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
    """Send every gf2._mul call down one path, whatever the input size
    (an empty product, with no rows or no columns, always XORs)."""
    with pytest.MonkeyPatch.context() as mp:
        if which == "int":
            mp.setattr(gf2, "_SMALL_MUL_BITS", float("inf"))
        elif which == "dense":
            mp.setattr(gf2, "_SMALL_MUL_BITS", 0)
            mp.setattr(gf2, "_WIDE_MUL_RATIO", float("inf"))
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
            assert tuple(_gram_rows(ops)) == _pairwise_rows(ops)

    # (m, n, path taken) on both sides of each edge of the size rule, and n = 1
    EDGES = [
        (1, 1, "int"), (128, 1, "int"), (129, 1, "int"),
        (8, 16, "int"), (9, 16, "dense"), (42, 3, "int"), (43, 3, "dense"),
        (300, 3, "dense"), (301, 3, "int"),
    ]

    @pytest.mark.parametrize("m,n,path", EDGES)
    def test_rule_edges_match_pairwise_loop(self, monkeypatch, m, n, path):
        calls = []
        real = gf2._xor_rows
        monkeypatch.setattr(
            gf2, "_xor_rows", lambda rows, mask: calls.append(1) or real(rows, mask)
        )
        ops = _random_ops(m, n, seed=m * 1000 + n)
        assert commutation_matrix(ops).data == _pairwise_rows(ops)
        assert ("int" if calls else "dense") == path

    @pytest.mark.parametrize("which", ["int", "dense"])
    def test_single_register(self, which):
        ops = [PauliString.from_string(t) for t in "XZYIXXZY"]
        with gram_path(which):
            assert tuple(_gram_rows(ops)) == _pairwise_rows(ops)

    def test_several_row_blocks_match_int_path(self):
        m, n = 2100, 21
        # the Gram's right operand: 2n rows of m bits
        assert gf2._SMALL_MUL_BITS < 2 * n * m
        assert m <= gf2._WIDE_MUL_RATIO * 2 * n
        # more than one block, the last one short
        assert gf2._BLOCK_BYTES // (4 * 2 * n + 5 * m) < m
        ops = _random_ops(m, n, seed=5)
        dense = tuple(_gram_rows(ops))
        with gram_path("int"):
            assert dense == tuple(_gram_rows(ops))

    def test_register_count_beyond_exact_float32_is_rejected(self):
        # identity operators: nothing of size n is ever unpacked
        ops = [PauliString(1 << 22, 0, 0)] * 2
        with pytest.raises(ValueError, match="exact below"):
            commutation_matrix(ops)

    def test_register_count_is_checked_before_the_transpose(self, monkeypatch):
        # every transpose and every dense product unpacks through gf2's codec
        monkeypatch.setattr(gf2, "_transpose", lambda *args: pytest.fail("transposed"))
        monkeypatch.setattr(gf2, "_unpack_rows", lambda *args: pytest.fail("unpacked"))
        with pytest.raises(ValueError, match="exact below"):
            compress_module._gram_rows([0, 0], 1 << 22)


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

        def counted(images, n, rows=None):
            produced.append(0)
            k = len(produced) - 1

            def each():
                for row in real(images, n, rows):
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
            assert list(_gram_rows(ops, rows)) == [full[i] for i in rows]


# (input operators, iso_count, pair_count, transform rows) whose columns the
# reduction is made to return, so the realize step gathers the new
# generators from them.  The quoted reference transform provably does not
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
from paulicompress import BitMatrix, PauliString, WeightedPauli, gf2

texts, iso, pairs, rows = {case!r}
columns = list(gf2._transpose(BitMatrix.from_strings(rows).data, len(rows)))
c = importlib.import_module("paulicompress.compress")
c._congruence_columns = lambda m: (iso, columns)
try:
    c.compress([WeightedPauli(PauliString.from_string(t)) for t in texts])
except RuntimeError as exc:
    print(sys.flags.optimize, exc)
"""


def _tall_ops(n, seed):
    """Over 16 terms per image column (m > 32 n): n + 1 random operators,
    products of random pairs of them, and an identity."""
    rng = random.Random(seed)
    base = _random_ops(n + 1, n, seed)
    ops = base + [compose(rng.choice(base), rng.choice(base)) for _ in range(32 * n)]
    ops.append(PauliString.identity(n))
    rng.shuffle(ops)
    return ops


def _broken(original, result, how):
    """A compression's output with one fault: ``letter`` flips the X bit of
    register 1 in its first dependent term; ``product`` puts the product of
    two generator rows in place of a third, the first such choice (in
    generator order) that the full comparison rejects, since some leave
    the output equivalent."""
    out = [t.op for t in result.images]
    joined = result.basis.generator_indices
    if how == "letter":
        return _flip_bit(out, next(i for i in range(len(out)) if i not in joined), 0)
    for first, a, b in itertools.permutations(joined, 3):
        broken = out[:first] + [compose(out[a], out[b])] + out[first + 1 :]
        pairwise, rank_a, rank_b = _reference_fields(original, broken)
        if not (pairwise and rank_a == rank_b):
            return broken
    raise AssertionError("every product of two generator rows leaves the output equivalent")


def _reference_fields(original, candidate):
    """The report fields from the full m x m comparison and Gauss-Jordan ranks."""
    ranks = []
    for ops in (original, candidate):
        n, images = _images(ops, "collection")
        ranks.append(gauss_jordan_rank(BitMatrix(len(images), 2 * n, images)))
    return _pairwise_match(original, candidate), *ranks


class TestTallVerifyRejects:
    """A broken tall compression, whose verify takes the column path on both
    sides, fails as the full comparison says, in the library and the CLI."""

    @pytest.mark.parametrize("how", [None, "letter", "product"])
    @pytest.mark.parametrize("n,seed", [(3, 1), (4, 3), (5, 2)])
    def test_library_and_cli(self, tmp_path, capsys, n, seed, how):
        ops = _tall_ops(n, seed)
        result = compress([WeightedPauli(op, 1.0) for op in ops])
        assert len(ops) > gf2._TALL_ROWS * 2 * n >= gf2._TALL_ROWS * 2 * result.q
        assert result.q < n
        candidate = [t.op for t in result.images] if how is None else _broken(ops, result, how)
        pairwise, rank_a, rank_b = _reference_fields(ops, candidate)
        rep = verify_equivalence(ops, candidate)
        assert (rep.pairwise_match, rep.rank_original, rep.rank_candidate) == (pairwise, rank_a, rank_b)
        assert rep.rank_match == (rank_a == rank_b)
        assert rep.passed == (how is None) == (pairwise and rank_a == rank_b)

        paths = []
        for name, side in (("original", ops), ("candidate", candidate)):
            paths.append(tmp_path / f"{name}.pauli")
            paths[-1].write_text("".join(f"1 {op}\n" for op in side), encoding="utf-8")
        assert cli_main(["verify", *map(str, paths)]) == (0 if rep.passed else 1)
        out, err = capsys.readouterr()
        assert out == (
            f"pairwise_match={str(pairwise).lower()} rank_original={rank_a} "
            f"rank_candidate={rank_b} rank_match={str(rank_a == rank_b).lower()}\n"
            + ("PASS" if rep.passed else "FAIL") + "\n"
        )
        assert err == ""


class TestPostcondition:
    @pytest.mark.parametrize("texts,iso,pairs,rows,msg", CORRUPTIONS, ids=CORRUPTION_IDS)
    def test_corrupted_reduction_raises(self, monkeypatch, texts, iso, pairs, rows, msg):
        columns = list(gf2._transpose(BitMatrix.from_strings(rows).data, len(rows)))
        monkeypatch.setattr(compress_module, "_congruence_columns", lambda m: (iso, columns))
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


def _diagonal_bit(rows):
    rows[0] ^= 1


def _asymmetric_entry(rows):
    rows[-1] ^= 1  # entry (d - 1, 0), not its mirror


# the reference Gram fails inside the reduction, whose live row then has no
# partner; the motivating pair's reduces and fails the postcondition
NON_ALTERNATING_INPUTS = [ref.OPS, ["XX", "IZ"]]

_NON_ALTERNATING_UNDER_O = """
import contextlib, importlib, io, sys
from paulicompress import BitMatrix, pauli
from paulicompress.cli import cli_main
c = importlib.import_module("paulicompress.compress")
real = c._commutation_matrix
{mutate}
def mutated(n, images):
    m = real(n, images)
    rows = list(m.data)
    {name}(rows)
    return BitMatrix(m.rows, m.cols, rows)
c._commutation_matrix = mutated
texts, path = {case!r}
n, images = pauli._images([pauli.PauliString.from_string(t) for t in texts], "collection")
try:
    c._compress(n, images)
except RuntimeError:
    print("raised")
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli_main(["compress", path, "--verify"])
print(sys.flags.optimize, code, repr(err.getvalue()))
"""


class TestNonAlternatingGram:
    """``_compress`` does not check the Gram it builds before reducing it; a
    Gram that is not alternating must still fail as an internal fault."""

    @pytest.fixture
    def mutated_gram(self, monkeypatch):
        def use(mutate):
            real = compress_module._commutation_matrix

            def mutated(n, images):
                m = real(n, images)
                rows = list(m.data)
                mutate(rows)
                return BitMatrix(m.rows, m.cols, rows)

            monkeypatch.setattr(compress_module, "_commutation_matrix", mutated)
        return use

    @pytest.mark.parametrize("texts", NON_ALTERNATING_INPUTS, ids=["reference", "pair"])
    @pytest.mark.parametrize("mutate", [_diagonal_bit, _asymmetric_entry])
    def test_raises_and_exits_1_in_process(self, tmp_path, capsys, mutated_gram, texts, mutate):
        path = tmp_path / "ops.pauli"
        path.write_text("".join(f"{t}\n" for t in texts), encoding="utf-8")
        mutated_gram(mutate)
        n, images = _images([PauliString.from_string(t) for t in texts], "collection")
        with pytest.raises(RuntimeError):
            compress_module._compress(n, images)
        assert cli_main(["compress", str(path), "--verify"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("texts", NON_ALTERNATING_INPUTS, ids=["reference", "pair"])
    @pytest.mark.parametrize("mutate", [_diagonal_bit, _asymmetric_entry])
    def test_raises_and_exits_1_under_optimize(self, tmp_path, texts, mutate):
        path = tmp_path / "ops.pauli"
        path.write_text("".join(f"{t}\n" for t in texts), encoding="utf-8")
        script = _NON_ALTERNATING_UNDER_O.format(
            mutate=inspect.getsource(mutate), name=mutate.__name__, case=(texts, str(path)))
        env_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=env_path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        raised, result = done.stdout.splitlines()
        optimize, code, err = result.split(" ", 2)
        assert (raised, optimize, code) == ("raised", "1", "1")
        err = ast.literal_eval(err)
        assert err.startswith("error: ") and err.count("\n") == 1
