"""Unit tests for the dense-matrix cross-check layer."""

import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import paulicompress.oracle
from paulicompress import PauliString, commutation_matrix, compose, min_registers, symplectic_product
from paulicompress.gf2 import BitMatrix
from paulicompress.oracle import (
    DENSE_CAP,
    SEARCH_CAP,
    _real_matrix,
    brute_force_min_registers,
    commutes_dense,
    dense_matrix,
    oracle_commutation_matrix,
)


def _p(text):
    return PauliString.from_string(text)


def _random_op(rng, n):
    return PauliString.from_string("".join(rng.choice("IXYZ") for _ in range(n)))


_KRON_X = np.array([[0, 1], [1, 0]], dtype=np.complex64)
_KRON_Z = np.array([[1, 0], [0, -1]], dtype=np.complex64)
_KRON_SINGLE = {
    (0, 0): np.eye(2, dtype=np.complex64),
    (1, 0): _KRON_X,
    (0, 1): _KRON_Z,
    (1, 1): 1j * (_KRON_X @ _KRON_Z),
}


def kron_dense_matrix(p):
    """Reference builder: ``np.kron`` of the complex64 Pauli matrices, register 1 leftmost."""
    m = np.eye(1, dtype=np.complex64)
    for site in p.sites:
        m = np.kron(m, _KRON_SINGLE[site])
    return m


def kron_commutes(p, q):
    """Reference commutation test on the complex64 matrices (exact: every
    entry of a product has one nonzero term, a unit)."""
    a, b = kron_dense_matrix(p), kron_dense_matrix(q)
    return bool(np.array_equal(a @ b, b @ a))


def _y_count(p):
    return str(p).count("Y")


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
        # every entry of a Pauli matrix, and of a product of two, is 0, +-1
        # or +-i; the oracle itself multiplies the real parts R(p), whose
        # products are small integer sums and so exact in float32
        units = {0, 1, -1, 1j, -1j}
        rng = random.Random(3)
        for n in range(1, 9):
            p, q = _random_op(rng, n), _random_op(rng, n)
            a, b = dense_matrix(p), dense_matrix(q)
            assert a.dtype == np.complex64
            assert set(np.unique(a).tolist()) <= units
            assert set(np.unique(a @ b).tolist()) <= units

    @pytest.mark.parametrize("n", range(1, DENSE_CAP + 1))
    def test_matches_the_kron_reference(self, n):
        rng = random.Random(500 + n)
        for _ in range(3 if n > 8 else 12):
            op = _random_op(rng, n)
            want = kron_dense_matrix(op)
            got = dense_matrix(op)
            assert got.dtype == want.dtype == np.complex64
            assert np.array_equal(got, want), str(op)

    def test_real_matrix_is_the_y_free_part(self):
        rng = random.Random(6)
        for n in range(1, 9):
            for _ in range(8):
                op = _random_op(rng, n)
                r = _real_matrix(op)
                assert r.dtype == np.float32 and r.shape == (2**n, 2**n)
                assert set(np.unique(r).tolist()) <= {0.0, 1.0, -1.0}
                assert np.array_equal(dense_matrix(op), 1j ** _y_count(op) * r), str(op)

    def test_real_matrix_cap(self):
        with pytest.raises(ValueError, match=str(DENSE_CAP)):
            _real_matrix(PauliString.identity(DENSE_CAP + 1))

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

    def test_every_ordered_pair_on_two_registers(self):
        ops = [_p(a + b) for a in "IXYZ" for b in "IXYZ"]
        for p, q in itertools.product(ops, repeat=2):
            got = commutes_dense(p, q)
            assert got is kron_commutes(p, q), (p, q)
            assert got is (symplectic_product(p, q) == 0), (p, q)

    @pytest.mark.parametrize("n", [9, 10])
    def test_random_pairs_at_the_cap(self, n):
        rng = random.Random(700 + n)
        for _ in range(2):
            p, q = _random_op(rng, n), _random_op(rng, n)
            got = commutes_dense(p, q)
            assert got is kron_commutes(p, q), (p, q)
            assert got is (symplectic_product(p, q) == 0), (p, q)
        # X on register 1 against Z on every register: they meet on one
        p, q = _p("X" + "I" * (n - 1)), _p("Z" * n)
        assert commutes_dense(p, q) is False


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


class TestIndependence:
    """The oracle exists to check the symplectic fast path, so it must not
    reach it: it may take only the data types from the rest of the package."""

    FORBIDDEN = {"symplectic_product", "to_symplectic", "_gram_rows", "commutation_matrix"}

    def _tree(self):
        return ast.parse(Path(paulicompress.oracle.__file__).read_text(encoding="utf-8"))

    def test_imports_only_the_data_types_from_the_package(self):
        taken = set()
        for node in ast.walk(self._tree()):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "paulicompress" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level or (node.module or "").split(".")[0] == "paulicompress":
                    taken |= {a.name for a in node.names}
        assert taken == {"BitMatrix", "PauliString"}

    def test_never_names_the_fast_path(self):
        names = set()
        for node in ast.walk(self._tree()):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
                names.add(node.asname)
        assert not names & self.FORBIDDEN
