"""Unit tests for the register-minimization pipeline."""

import functools
import itertools
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulicompress import (
    BitMatrix,
    CanonicalForm,
    PauliString,
    WeightedPauli,
    commutation_matrix,
    compress,
    from_symplectic,
    min_registers,
    symplectic_product,
    symplectic_rank,
    to_symplectic,
    verify_equivalence,
)
from paulicompress import gf2, pauli
from paulicompress.compress import (
    GeneratorBasis,
    _compress,
    _realize,
    _realize_columns,
    _rebuild,
)
from paulicompress.gf2 import congruence_reduce, rank

import reference_example as ref
from test_gf2 import _random_sym_hollow, every_alternating, gauss_jordan_rank, row_lists, spy
from test_gram import _tall_ops

COMPRESS = sys.modules["paulicompress.compress"]

# symplectic images of 1..130 registers: up to 260 bits, several machine words
_IMAGE_WIDTHS = st.integers(1, 130).map(lambda n: 2 * n)


def _as_ops(width, rows):
    return [from_symplectic(r, width // 2) for r in rows]


def _ops(*texts):
    return [PauliString.from_string(t) for t in texts]


def _basis(ops):
    n, images = pauli._images(ops, "collection")
    return GeneratorBasis(*gf2._independent_rows(images, 2 * n))


def canonical_generators(iso_count, pair_count):
    """The reference realize: the canonical generators' images, one Z per
    zero block then an X, Z pair per antidiagonal block (X on register t+1
    is bit t, Z is bit q + t)."""
    q = iso_count + pair_count
    pairs = [1 << (t + q * z) for t in range(iso_count, q) for z in (0, 1)]
    return [1 << (q + t) for t in range(iso_count)] + pairs


def _canonical_ops(iso_count, pair_count):
    """The canonical generators as the realize step gathers them: from the
    columns of the identity transform."""
    d, q = iso_count + 2 * pair_count, iso_count + pair_count
    gathered = gf2._transpose(_realize_columns(iso_count, [1 << i for i in range(d)]), d)
    return [from_symplectic(image, q) for image in gathered]


def _compose_rows(ops, transform):
    """Output i composes the operators that row i of ``transform`` selects."""
    q, images = pauli._images(ops, "collection")
    return [from_symplectic(image, q) for image in gf2._mul(transform.data, images, 2 * q)]


def _terms(*texts, weights=None):
    ops = _ops(*texts)
    weights = weights or [1.0] * len(ops)
    return [WeightedPauli(op, w) for op, w in zip(ops, weights)]


def _random_invertible(rng, d):
    rows = [1 << i for i in range(d)]
    for _ in range(4 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            rows[j] ^= rows[i]
    return BitMatrix(d, d, tuple(rows))


def _random_collection(rng, max_n=10, max_terms=24):
    n = rng.randint(1, max_n)
    count = rng.randint(1, max_terms)
    terms = [
        WeightedPauli(
            PauliString.from_string("".join(rng.choice("IXYZ") for _ in range(n))),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        for _ in range(count)
    ]
    if symplectic_rank([t.op for t in terms]) == 0:
        terms[0] = WeightedPauli(PauliString(n, 1, 0), terms[0].weight)
    return terms


class TestSymplecticRank:
    def test_examples(self):
        assert symplectic_rank(_ops("X", "X")) == 1
        assert symplectic_rank(_ops("X", "Z", "Y")) == 2
        assert symplectic_rank(_ops(*ref.OPS)) == ref.PHI_RANK
        assert symplectic_rank([]) == 0
        assert symplectic_rank(_ops("II")) == 0

    @settings(max_examples=150, deadline=None)
    @given(row_lists(widths=_IMAGE_WIDTHS))
    def test_against_gauss_jordan(self, case):
        width, rows = case
        expected = gauss_jordan_rank(BitMatrix(len(rows), width, tuple(rows)))
        assert symplectic_rank(_as_ops(width, rows)) == expected


class TestExtractGenerators:
    def test_duplicate(self):
        basis = _basis(_ops("X", "X"))
        assert basis.generator_indices == (0,)
        assert basis.coeffs == (0b1, 0b1)

    def test_composite_element(self):
        basis = _basis(_ops("X", "Z", "Y"))
        assert basis.generator_indices == (0, 1)
        assert basis.coeffs[2] == 0b11

    def test_identity_gets_zero_vector(self):
        basis = _basis(_ops("II", "XX"))
        assert basis.generator_indices == (1,)
        assert basis.coeffs == (0b0, 0b1)

    def test_reference_all_independent(self):
        basis = _basis(_ops(*ref.OPS))
        assert basis.generator_indices == tuple(range(8))

    def test_coefficients_reconstruct_images(self):
        rng = random.Random(17)
        for _ in range(50):
            ops = [t.op for t in _random_collection(rng, max_n=6, max_terms=12)]
            basis = _basis(ops)
            gens = [to_symplectic(ops[i]) for i in basis.generator_indices]
            for e, op in enumerate(ops):
                acc = 0
                for j, gen in enumerate(gens):
                    if (basis.coeffs[e] >> j) & 1:
                        acc ^= gen
                assert acc == to_symplectic(op)
            # generators are independent by construction
            assert symplectic_rank([ops[i] for i in basis.generator_indices]) == basis.num_generators

    @settings(max_examples=150, deadline=None)
    @given(row_lists(widths=_IMAGE_WIDTHS, sizes=st.integers(1, 40)))
    def test_against_gauss_jordan(self, case):
        width, rows = case
        ops = _as_ops(width, rows)
        basis = _basis(ops)
        prefix = [
            gauss_jordan_rank(BitMatrix(k, width, tuple(rows[:k]))) for k in range(len(rows) + 1)
        ]
        # a row is a generator exactly when it raises the rank of the rows up to it
        grows = tuple(i for i in range(len(rows)) if prefix[i + 1] > prefix[i])
        assert basis.generator_indices == grows
        for k, i in enumerate(basis.generator_indices):
            assert basis.coeffs[i] == 1 << k
        gens = [rows[i] for i in basis.generator_indices]
        for row, combo in zip(rows, basis.coeffs):
            assert combo >> len(gens) == 0
            acc = 0
            for k, gen in enumerate(gens):
                if (combo >> k) & 1:
                    acc ^= gen
            assert acc == row
        assert symplectic_rank(ops) == basis.num_generators

    def test_mixed_register_counts(self):
        with pytest.raises(ValueError, match="mixes"):
            _basis(_ops("X", "XX"))


class TestCommutationMatrix:
    def test_anticommuting_pair(self):
        assert commutation_matrix(_ops("XX", "IZ")) == BitMatrix.from_strings(["01", "10"])

    def test_commuting_pair(self):
        assert commutation_matrix(_ops("ZI", "IZ")) == BitMatrix(2, 2, [0] * 2)

    def test_reference_bit_exact(self):
        assert commutation_matrix(_ops(*ref.OPS)) == BitMatrix.from_strings(ref.COMM_ROWS)

    def test_empty_list_is_zero_by_zero(self):
        assert commutation_matrix([]) == BitMatrix(0, 0, [0] * 0)

    def test_mixed_register_counts(self):
        with pytest.raises(ValueError, match="generator list mixes operators on 1 and 2"):
            commutation_matrix(_ops("X", "XX"))

    def test_rejects_asymmetric_wrapper(self):
        # a commutation matrix handed to min_registers must be symmetric and hollow
        with pytest.raises(ValueError, match="symmetric"):
            min_registers(BitMatrix.from_strings(["01", "00"]))
        with pytest.raises(ValueError, match="zero diagonal"):
            min_registers(BitMatrix.from_strings(["11", "10"]))


class TestMinRegisters:
    @pytest.mark.parametrize(
        "texts,expect",
        [
            (ref.OPS, ref.MIN_REGISTERS),  # dim 8, rank 6
            (["XX", "IZ"], 1),  # dim 2, rank 2
            (["XI", "IX", "ZZ"], 2),  # dim 3, rank 2
        ],
    )
    def test_examples(self, texts, expect):
        assert min_registers(commutation_matrix(_ops(*texts))) == expect

    def test_bounds(self):
        rng = random.Random(3)
        for _ in range(60):
            ops = [t.op for t in _random_collection(rng, max_n=6, max_terms=10)]
            basis = _basis(ops)
            gens = [ops[i] for i in basis.generator_indices]
            if not gens:
                continue
            q = min_registers(commutation_matrix(gens))
            d = len(gens)
            assert math.ceil(d / 2) <= q <= d


class TestCanonicalGenerators:
    def test_two_iso_three_pairs(self):
        got = [str(g) for g in _canonical_ops(2, 3)]
        assert got == ["ZIIII", "IZIII", "IIXII", "IIZII", "IIIXI", "IIIZI", "IIIIX", "IIIIZ"]

    def test_all_isotropic(self):
        got = [str(g) for g in _canonical_ops(3, 0)]
        assert got == ["ZII", "IZI", "IIZ"]

    def test_single_pair(self):
        got = [str(g) for g in _canonical_ops(0, 1)]
        assert got == ["X", "Z"]

    def test_realizes_block_diagonal(self):
        for iso, pairs in [(0, 1), (2, 3), (4, 0), (1, 2)]:
            ops = _canonical_ops(iso, pairs)
            d = iso + 2 * pairs
            expect = CanonicalForm(d, iso, pairs, BitMatrix(d, d, [1 << i for i in range(d)])).canonical_matrix()
            assert commutation_matrix(ops) == expect


class TestRealize:
    """The gather against the product of the transform with the reference
    canonical generators."""

    @staticmethod
    def check(m):
        form, q, new = _realize(m)
        assert form == congruence_reduce(m)
        assert q == form.iso_count + form.pair_count
        canonical = canonical_generators(form.iso_count, form.pair_count)
        assert new == list(gf2._mul(form.transform.data, canonical, 2 * q))

    def test_every_small_matrix(self):
        count = 0
        for m in every_alternating(5):
            self.check(m)
            count += 1
        assert count == 1 + 1 + 2 + 8 + 64 + 1024

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 48), st.floats(0.0, 1.0), st.integers(0, 10**9))
    def test_random_matrices(self, d, density, seed):
        self.check(_random_sym_hollow(random.Random(seed), d, density))

    @pytest.mark.parametrize("d,density", [(144, 0.5), (200, 0.97)])
    def test_wide(self, d, density):
        self.check(_random_sym_hollow(random.Random(d), d, density))


class TestRebuild:
    """The dependent-only rebuild against the product over every row."""

    @settings(max_examples=200, deadline=None)
    @given(row_lists(widths=st.integers(1, 40), sizes=st.integers(0, 60)),
           st.randoms(use_true_random=False))
    def test_matches_the_all_rows_product(self, case, rng):
        width, rows = case
        basis = GeneratorBasis(*gf2._independent_rows(rows, width))
        cols = rng.randint(0, 70)
        new = [rng.getrandbits(cols) for _ in basis.generator_indices]
        assert _rebuild(basis, new, cols) == list(gf2._mul(basis.coeffs, new, cols))

    @pytest.mark.parametrize("m,n", [(160, 64), (128, 64), (2000, 6)])
    def test_matches_the_all_rows_product_on_both_paths(self, m, n):
        # wide with dependents, wide without, and tall (the column path)
        rng = random.Random(m + n)
        images = [rng.getrandbits(2 * n) for _ in range(m)]
        basis, _, q, new, out, _ = _compress(n, images)
        assert out == list(gf2._mul(basis.coeffs, new, 2 * q))


class TestProductCalls:
    """The realize step makes no product, and the rebuild multiplies the
    dependent rows only."""

    @staticmethod
    def spied(monkeypatch, n, images):
        lefts, unpacked = [], []
        real_mul, real_unpack = gf2._mul, gf2._unpack_rows
        monkeypatch.setattr(COMPRESS, "_mul",
                            lambda left, *rest: lefts.append(list(left)) or real_mul(left, *rest))
        monkeypatch.setattr(gf2, "_unpack_rows",
                            lambda *args: unpacked.append(1) or real_unpack(*args))
        return _compress(n, images), lefts, unpacked

    @pytest.mark.parametrize("m,n", [(160, 64), (128, 64)])
    def test_wide(self, monkeypatch, m, n):
        rng = random.Random(m)
        images = [rng.getrandbits(2 * n) for _ in range(m)]
        (basis, *_), lefts, _ = self.spied(monkeypatch, n, images)
        joined = set(basis.generator_indices)
        assert len(joined) == min(m, 2 * n)
        assert lefts == [[c for i, c in enumerate(basis.coeffs) if i not in joined]]

    def test_small_input_unpacks_no_more_than_before(self, monkeypatch):
        # no unpacks: the generators' Gram (8 x 20 bits), the realize gather
        # (18 x 8) and the postcondition's Gram (8 x 10) transpose on the
        # bit walk; the reduction does not re-check the Gram, and the
        # rebuild has no dependent rows
        n, images = pauli._images(_ops(*ref.OPS), "collection")
        (basis, *_), lefts, unpacked = self.spied(monkeypatch, n, images)
        assert len(unpacked) == 0
        assert len(lefts) == 1 and len(lefts[0]) == len(images) - basis.num_generators


def _jw_images(modes, m, seed):
    """(n, images) of m Jordan-Wigner terms on ``modes`` registers: every
    product of two of the 2 * modes Majorana operators, then distinct random
    products of four.  Majorana 2j is Z on registers 1..j and X on register
    j + 1, Majorana 2j + 1 the same with Y; even products span 2 * modes - 1
    dimensions and the total parity commutes with all of them."""
    majoranas = []
    for j in range(modes):
        zs = ((1 << j) - 1) << modes
        majoranas += [zs | 1 << j, zs | 1 << j | 1 << (modes + j)]
    images = [a ^ b for a, b in itertools.combinations(majoranas, 2)]
    quartic = [a ^ b ^ c ^ d for a, b, c, d in itertools.combinations(majoranas, 4)]
    return modes, images + random.Random(seed).sample(quartic, m - len(images))


def _spanned_images(n, d, m, seed):
    """(n, images) of d random images on n registers, then m - d XORs of
    random subsets of them."""
    rng = random.Random(seed)
    base = [rng.getrandbits(2 * n) for _ in range(d)]
    extra = [functools.reduce(operator.xor, rng.sample(base, rng.randint(2, d)))
             for _ in range(m - d)]
    return n, base + extra


class TestPathTable:
    """The path, XORs or float32, that each product of a pipeline run takes
    by the size rule, on the shapes of the benchmark's workloads."""

    @staticmethod
    def paths(monkeypatch):
        """Spy on compress's products: the returned list gets each call's path."""
        table, dense = [], spy(monkeypatch, gf2, "_dense_mul")
        for name in ("_mul", "_mul_swapped"):
            real = getattr(COMPRESS, name)

            def spied(*args, real=real):
                before = len(dense)
                out = real(*args)
                table.append("float32" if len(dense) > before else "xors")
                return out

            monkeypatch.setattr(COMPRESS, name, spied)
        return table

    XORS, F32 = "xors", "float32"
    # (n, images), (d, q), and the paths of the run's products in order: the
    # generators' Gram, the postcondition's Gram, the rebuild, the
    # certificate, and the Grams of both sides of verify
    CASES = {
        "jw N=6": (_jw_images(6, 285, 1), (11, 6), [XORS, XORS, F32, F32, XORS, XORS]),
        "wide_planted shape": (_spanned_images(96, 144, 192, 2), (144, 73), [F32] * 6),
        "tall": (pauli._images(_tall_ops(5, 2), "c"), (5, 4), [XORS, XORS, F32, F32, XORS, XORS]),
        "n=8, m=30": (_spanned_images(8, 30, 30, 3), (16, 8), [XORS] * 6),
    }

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_pipeline_run(self, monkeypatch, case):
        (n, images), (d, q), want = self.CASES[case]
        table = self.paths(monkeypatch)
        basis, _, got_q, new_images, out, _ = _compress(n, images)
        assert COMPRESS._certify(n, images, basis, got_q, new_images, out)
        assert COMPRESS._verify_equivalence(n, images, got_q, out).passed
        assert (basis.num_generators, got_q) == (d, q)
        assert table == want

    def test_wide_rebuild_with_two_dependent_rows(self, monkeypatch):
        # n=1024: 2047 generators, 2 dependent rows, 2048-bit new images
        rng = random.Random(4)
        d, cols = 2047, 2048
        coeffs = [1 << k for k in range(d)]
        dependent = [rng.getrandbits(d), rng.getrandbits(d)]
        coeffs[10:10] = dependent[:1]
        coeffs.append(dependent[1])
        joined = [i for i, c in enumerate(coeffs) if c not in dependent]
        new = [rng.getrandbits(cols) for _ in range(d)]
        table = self.paths(monkeypatch)
        out = _rebuild(GeneratorBasis(tuple(joined), tuple(coeffs)), new, cols)
        assert table == [self.XORS]
        assert [out[10], out[-1]] == [gf2._xor_rows(new, c) for c in dependent]

    # empty or zero-width operands of the Gram's product, on shapes the rule's
    # inequality alone would send to the float32 path: (left rows, k, cols);
    # test_gf2's TestMul.EDGES and LEFT_EDGES have them for gf2._mul
    @pytest.mark.parametrize("rows,k,cols", [(0, 300, 300), (300, 0, 300), (300, 300, 0), (0, 0, 0)])
    def test_empty_gram_operands(self, monkeypatch, rows, k, cols):
        dense = spy(monkeypatch, gf2, "_dense_mul")
        rng = random.Random(5)
        left = [rng.getrandbits(k) for _ in range(rows)]
        other = [rng.getrandbits(k) for _ in range(cols)]
        assert list(gf2._mul_swapped(left, other, k // 2)) == [0] * rows
        assert not dense


class TestApplyBasisChange:
    def test_identity_transform(self):
        canon = _canonical_ops(2, 3)
        assert _compose_rows(canon, BitMatrix(8, 8, [1 << i for i in range(8)])) == canon

    def test_reference_transform_rows(self):
        canon = _canonical_ops(ref.ISO_COUNT, ref.PAIR_COUNT)
        out = _compose_rows(canon, BitMatrix.from_strings(ref.TRANSFORM_ROWS))
        assert [str(g) for g in out] == ref.MINIMAL
        assert str(out[0]) == "ZIIZI"


class TestCompress:
    def test_motivating_pair(self):
        terms = _terms("XX", "IZ", weights=[0.5, -1.0])
        result = compress(terms)
        assert result.q == 1
        a, b = (t.op for t in result.images)
        assert symplectic_product(a, b) == 1
        assert [t.weight for t in result.images] == [0.5 + 0j, -1.0 + 0j]
        assert verify_equivalence([t.op for t in terms],
                                  [t.op for t in result.images]).passed

    def test_commuting_independent_pair_cannot_compress(self):
        result = compress(_terms("ZI", "IZ"))
        assert result.q == 2
        assert [str(t.op) for t in result.images] == ["ZI", "IZ"]

    def test_reference_collection(self):
        result = compress(_terms(*ref.OPS))
        assert result.q == ref.MIN_REGISTERS
        assert result.original_n == 10
        assert result.basis.num_generators == ref.PHI_RANK
        assert 2 * result.canonical.pair_count == ref.COMM_RANK
        rep = verify_equivalence(_ops(*ref.OPS), [t.op for t in result.images])
        assert rep.passed

    def test_generator_commutation_preserved(self):
        result = compress(_terms(*ref.OPS))
        original_gens = [_ops(*ref.OPS)[i] for i in result.basis.generator_indices]
        new_gens = [result.images[j].op for j in result.basis.generator_indices]
        assert commutation_matrix(new_gens) == commutation_matrix(original_gens)

    def test_identity_and_duplicate_terms(self):
        result = compress(_terms("XX", "II", "XX", weights=[1.0, 2.0, 3.0]))
        imgs = [str(t.op) for t in result.images]
        assert result.q == 1
        assert imgs[1] == "I"
        assert imgs[0] == imgs[2]
        assert [t.weight for t in result.images] == [1 + 0j, 2 + 0j, 3 + 0j]

    def test_all_identities_rejected(self):
        with pytest.raises(ValueError, match="no non-identity content"):
            compress(_terms("II", "II"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compress([])

    def test_mixed_register_counts_rejected(self):
        with pytest.raises(ValueError, match="mixes"):
            compress([WeightedPauli(PauliString.from_string("X")),
                      WeightedPauli(PauliString.from_string("XX"))])

    def test_random_properties(self):
        for seed in range(100):
            terms = _random_collection(random.Random(seed), max_n=8, max_terms=16)
            ops = [t.op for t in terms]
            result = compress(terms)
            d = result.basis.num_generators
            gens = [ops[i] for i in result.basis.generator_indices]
            comm = commutation_matrix(gens)
            rk = rank(comm)
            assert rk % 2 == 0
            assert result.q == d - rk // 2
            assert math.ceil(d / 2) <= result.q <= d
            # commutation transport for every pair of terms, not only generators
            imgs = [t.op for t in result.images]
            for i in range(len(ops)):
                for j in range(i + 1, len(ops)):
                    assert symplectic_product(ops[i], ops[j]) == symplectic_product(imgs[i], imgs[j])
            assert symplectic_rank([t.op for t in result.images]) == d
            assert commutation_matrix([result.images[j].op for j in result.basis.generator_indices]) == comm
            # weights ride along untouched
            assert [t.weight for t in terms] == [t.weight for t in result.images]
            # compressing the output changes nothing further
            assert compress(result.images).q == result.q

    def test_rank_invariant_under_generator_recomposition(self):
        rng = random.Random(23)
        for _ in range(30):
            terms = _random_collection(rng, max_n=6, max_terms=12)
            ops = [t.op for t in terms]
            basis = _basis(ops)
            gens = [ops[i] for i in basis.generator_indices]
            d = len(gens)
            if d == 0:
                continue
            r = _random_invertible(rng, d)
            recomposed = _compose_rows(gens, r)
            assert rank(commutation_matrix(recomposed)) == rank(commutation_matrix(gens))
            assert min_registers(commutation_matrix(recomposed)) == min_registers(
                commutation_matrix(gens)
            )


class TestVerifyEquivalence:
    def test_self_is_equivalent(self):
        ops = _ops(*ref.OPS)
        assert verify_equivalence(ops, ops).passed

    def test_corrected_reference_minimal_set(self):
        rep = verify_equivalence(_ops(*ref.OPS), _ops(*ref.MINIMAL))
        assert rep.passed
        assert rep.rank_original == rep.rank_candidate == ref.PHI_RANK

    def test_quoted_reference_minimal_set_fails(self):
        # the quoted sixth member anticommutes with the seventh while the
        # originals commute; see reference_example for the analysis
        rep = verify_equivalence(_ops(*ref.OPS), _ops(*ref.MINIMAL_QUOTED))
        assert not rep.pairwise_match
        assert rep.rank_match  # only the pairwise pattern is off

    def test_commutation_mismatch(self):
        rep = verify_equivalence(_ops("XX", "IZ"), _ops("X", "X"))
        assert not rep.pairwise_match
        assert not rep.passed

    def test_rank_deflation_caught(self):
        rep = verify_equivalence(_ops("ZI", "IZ"), _ops("Z", "Z"))
        assert rep.pairwise_match  # both pairs commute
        assert not rep.rank_match  # but independence collapsed
        assert not rep.passed

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            verify_equivalence(_ops("X"), _ops("X", "Z"))

    def test_empty_collections_pass(self):
        rep = verify_equivalence([], [])
        assert rep.passed and rep.pairwise_match and rep.rank_match
        assert rep.rank_original == rep.rank_candidate == 0

    @pytest.mark.parametrize("m,n", [(200, 3), (2000, 24), (2000, 40)])
    def test_a_tall_verify_skips_the_combos(self, monkeypatch, m, n):
        # both sides eliminate forward on the columns and never
        # back-substitute; the extraction, which reads the combos, still does
        assert m > gf2._TALL_ROWS * 2 * n
        pivots, combos = spy(monkeypatch, gf2, "_column_pivots"), spy(monkeypatch, gf2, "_column_basis")
        rng = random.Random(m + n)
        ops = [PauliString(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(m)]
        rep = verify_equivalence(ops, ops)
        want = gauss_jordan_rank(BitMatrix(m, 2 * n, [to_symplectic(op) for op in ops]))
        assert rep.passed and rep.rank_original == want
        assert (len(pivots), len(combos)) == (2, 0)
        assert symplectic_rank(ops) == rep.rank_original and (len(pivots), len(combos)) == (3, 0)
        basis = _basis(ops)
        assert basis.num_generators == rep.rank_original and (len(pivots), len(combos)) == (4, 1)

    def test_mixed_registers_name_their_side(self):
        with pytest.raises(ValueError, match="^original collection mixes operators on 2 and 1"):
            verify_equivalence(_ops("XX", "Z"), _ops("X", "Z"))
        with pytest.raises(ValueError, match="^candidate collection mixes operators on 1 and 3"):
            verify_equivalence(_ops("X", "Z"), _ops("X", "ZZZ"))
