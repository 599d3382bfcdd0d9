"""Unit tests for the dense-matrix cross-check layer."""

import itertools
import random

import numpy as np
import pytest

from paulicompress import PauliString, commutation_matrix, compose, min_registers
from paulicompress.gf2 import BitMatrix
from paulicompress.oracle import (
    DENSE_CAP,
    SEARCH_CAP,
    brute_force_min_registers,
    commutes_dense,
    dense_matrix,
    oracle_commutation_matrix,
)


def _p(text):
    return PauliString.from_string(text)


def _random_op(rng, n):
    return PauliString.from_string("".join(rng.choice("IXYZ") for _ in range(n)))


class TestDenseMatrix:
    def test_single_letters(self):
        assert np.array_equal(dense_matrix(_p("I")), np.eye(2))
        assert np.array_equal(dense_matrix(_p("Z")), np.diag([1.0, -1.0]))
        assert np.array_equal(dense_matrix(_p("X")), np.array([[0, 1], [1, 0]]))
        x, z = dense_matrix(_p("X")), dense_matrix(_p("Z"))
        assert np.array_equal(dense_matrix(_p("Y")), 1j * x @ z)

    def test_register_one_is_leftmost_factor(self):
        xz = dense_matrix(_p("XZ"))
        x, z = dense_matrix(_p("X")), dense_matrix(_p("Z"))
        assert np.array_equal(xz, np.kron(x, z))

    def test_cap(self):
        with pytest.raises(ValueError, match=str(DENSE_CAP)):
            dense_matrix(PauliString.identity(DENSE_CAP + 1))

    def test_unitary(self):
        rng = random.Random(1)
        for _ in range(20):
            op = _random_op(rng, rng.randint(1, 4))
            u = dense_matrix(op)
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12

    def test_entries_are_exact_units(self):
        # complex64 is exact only because every entry, and every entry of a
        # product of two, is 0, +-1 or +-i
        units = {0, 1, -1, 1j, -1j}
        rng = random.Random(3)
        for n in range(1, 9):
            p, q = _random_op(rng, n), _random_op(rng, n)
            a, b = dense_matrix(p), dense_matrix(q)
            assert a.dtype == np.complex64
            assert set(np.unique(a).tolist()) <= units
            assert set(np.unique(a @ b).tolist()) <= units

    def test_product_matches_composition_up_to_phase(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 4)
            p, q = _random_op(rng, n), _random_op(rng, n)
            ab = dense_matrix(p) @ dense_matrix(q)
            c = dense_matrix(compose(p, q))
            idx = tuple(np.argwhere(c != 0)[0])
            phase = ab[idx] / c[idx]
            assert phase in (1, -1, 1j, -1j)
            assert np.array_equal(ab, phase * c)


class TestCommutesDense:
    @pytest.mark.parametrize(
        "a,b,expect",
        [("X", "Z", False), ("XX", "ZZ", True), ("XX", "IZ", False)],
    )
    def test_examples(self, a, b, expect):
        assert commutes_dense(_p(a), _p(b)) is expect

    def test_register_mismatch(self):
        with pytest.raises(ValueError, match="registers"):
            commutes_dense(_p("X"), _p("XX"))


class TestOracleCommutationMatrix:
    def test_examples(self):
        assert oracle_commutation_matrix([_p("XX"), _p("IZ")]) == BitMatrix.from_strings(["01", "10"])
        assert oracle_commutation_matrix([_p("Z")]) == BitMatrix.from_strings(["0"])

    def test_agrees_with_symplectic_path(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 4)
            ops = [_random_op(rng, n) for _ in range(rng.randint(1, 6))]
            assert oracle_commutation_matrix(ops) == commutation_matrix(ops)

    @pytest.mark.parametrize("n", [7, 8])
    def test_agrees_with_symplectic_path_at_large_n(self, n):
        rng = random.Random(100 + n)
        for _ in range(3):
            ops = [_random_op(rng, n) for _ in range(rng.randint(2, 5))]
            assert oracle_commutation_matrix(ops) == commutation_matrix(ops)
        assert commutes_dense(_p("X" * n), _p("Z" * n)) is (n % 2 == 0)

    def test_mixed_registers(self):
        with pytest.raises(ValueError, match="register"):
            oracle_commutation_matrix([_p("X"), _p("XX")])


class TestBruteForceMinRegisters:
    def test_anticommuting_pair_fits_on_one(self):
        assert brute_force_min_registers(BitMatrix.from_strings(["01", "10"])) == 1

    def test_three_independent_commuting_need_three(self):
        assert brute_force_min_registers(BitMatrix.zeros(3, 3)) == 3

    def test_two_singles_and_their_product_partner(self):
        m = commutation_matrix([_p("XI"), _p("IX"), _p("ZZ")])
        assert brute_force_min_registers(m) == 2

    def test_cap(self):
        with pytest.raises(ValueError, match=str(SEARCH_CAP)):
            brute_force_min_registers(BitMatrix.zeros(5, 5))

    @pytest.mark.parametrize(
        "rows,msg",
        [(["01", "00"], "symmetric"), (["11", "10"], "zero diagonal"), (["010", "100"], "square")],
    )
    def test_validation(self, rows, msg):
        with pytest.raises(ValueError, match=msg):
            brute_force_min_registers(BitMatrix.from_strings(rows))

    def test_agrees_with_formula_on_samples(self):
        rng = random.Random(4)
        for _ in range(12):
            d = rng.randint(1, 4)
            rows = [0] * d
            for i in range(d):
                for j in range(i + 1, d):
                    if rng.random() < 0.5:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            m = BitMatrix(d, d, tuple(rows))
            assert brute_force_min_registers(m) == min_registers(m)

    def test_agrees_with_formula_on_every_matrix_within_cap(self):
        # all 2^(d(d-1)/2) alternating matrices for each d <= SEARCH_CAP (75)
        count = 0
        for d in range(1, SEARCH_CAP + 1):
            pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                rows = [0] * d
                for (i, j), bit in zip(pairs, bits):
                    rows[i] |= bit << j
                    rows[j] |= bit << i
                m = BitMatrix(d, d, tuple(rows))
                assert brute_force_min_registers(m) == min_registers(m), m.to_strings()
                count += 1
        assert count == 75
