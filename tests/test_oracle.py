"""Unit tests for the dense-matrix cross-check layer."""

import ast
import inspect
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paulicompress.oracle
from paulicompress import gf2
from paulicompress import PauliString, commutation_matrix, compose, min_registers, symplectic_product
from paulicompress.gf2 import BitMatrix
from paulicompress.oracle import (
    DENSE_CAP,
    SEARCH_CAP,
    _assignment_exists,
    _pairing_row,
    _real_matrix,
    brute_force_min_registers,
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


def _oracle_dense(p):
    """The oracle's dense matrix of ``p``: i^{#Y(p)} times its real part R(p)."""
    return 1j ** _y_count(p) * _real_matrix(p)


def _oracle_commutes(p, q):
    """True iff the oracle finds R(p).R(q) equal to R(q).R(p)."""
    return not oracle_commutation_matrix([p, q]).to_rows()[0][1]


def _alternating_matrices():
    """Every alternating matrix with d <= SEARCH_CAP, as (d, rows): 76 in all,
    the empty d = 0 matrix included."""
    for d in range(SEARCH_CAP + 1):
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            rows = [0] * d
            for (i, j), bit in zip(pairs, bits):
                rows[i] |= bit << j
                rows[j] |= bit << i
            yield d, rows


def _pairing(u, v, q):
    """Reference pairing of two packed x | z vectors on q registers, one pair at a time."""
    xm = (1 << q) - 1
    return (((u & xm) & (v >> q)).bit_count() + ((u >> q) & (v & xm)).bit_count()) & 1


def echelon_assignment_exists(want, d, q):
    """Reference search: the same tree as ``_assignment_exists``, with
    independence decided by reducing each candidate against an echelon
    list of the vectors chosen so far, and every level descended."""
    size = 1 << (2 * q)

    def residual(v, echelon):
        for row in echelon:  # sorted descending, distinct leading bits
            if (v ^ row) < v:
                v ^= row
        return v

    echelon = []

    def extend(k, cands):
        if k == d:
            return True
        for v in range(size):
            if not cands[0] >> v & 1:
                continue
            res = residual(v, echelon)
            if res == 0:
                continue
            row = sum(1 << u for u in range(size) if _pairing(v, u, q))
            later = [c & row if want[k][j] else c & ~row
                     for j, c in enumerate(cands[1:], start=k + 1)]
            pos = next((i for i, e in enumerate(echelon) if e < res), len(echelon))
            echelon.insert(pos, res)
            if extend(k + 1, later):
                return True
            echelon.pop(pos)
        return False

    return extend(0, [(1 << size) - 1] * d)


class TestDenseMatrix:
    def test_single_letters(self):
        assert np.array_equal(_oracle_dense(_p("I")), np.eye(2))
        assert np.array_equal(_oracle_dense(_p("Z")), np.diag([1.0, -1.0]))
        assert np.array_equal(_oracle_dense(_p("X")), np.array([[0, 1], [1, 0]]))
        x, z = _oracle_dense(_p("X")), _oracle_dense(_p("Z"))
        assert np.array_equal(_oracle_dense(_p("Y")), 1j * x @ z)

    def test_register_one_is_leftmost_factor(self):
        xz = _oracle_dense(_p("XZ"))
        x, z = _oracle_dense(_p("X")), _oracle_dense(_p("Z"))
        assert np.array_equal(xz, np.kron(x, z))

    def test_cap(self):
        with pytest.raises(ValueError, match=str(DENSE_CAP)):
            _oracle_dense(PauliString(DENSE_CAP + 1, 0, 0))

    def test_unitary(self):
        rng = random.Random(1)
        for _ in range(20):
            op = _random_op(rng, rng.randint(1, 4))
            u = _oracle_dense(op)
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12

    def test_entries_are_exact_units(self):
        # every entry of a Pauli matrix, and of a product of two, is 0, +-1
        # or +-i; the oracle itself works on the real parts R(p), signed
        # permutations whose products it forms from rows' columns and signs
        units = {0, 1, -1, 1j, -1j}
        rng = random.Random(3)
        for n in range(1, 9):
            p, q = _random_op(rng, n), _random_op(rng, n)
            a, b = _oracle_dense(p), _oracle_dense(q)
            assert set(np.unique(a).tolist()) <= units
            assert set(np.unique(a @ b).tolist()) <= units

    @pytest.mark.parametrize("n", range(1, DENSE_CAP + 1))
    def test_matches_the_kron_reference(self, n):
        rng = random.Random(500 + n)
        for _ in range(3 if n > 8 else 12):
            op = _random_op(rng, n)
            want = kron_dense_matrix(op)
            assert np.array_equal(_oracle_dense(op), want), str(op)

    def test_real_matrix_is_the_y_free_part(self):
        rng = random.Random(6)
        for n in range(1, 9):
            for _ in range(8):
                op = _random_op(rng, n)
                r = _real_matrix(op)
                assert r.dtype == np.float32 and r.shape == (2**n, 2**n)
                assert set(np.unique(r).tolist()) <= {0.0, 1.0, -1.0}
                assert np.array_equal(kron_dense_matrix(op), 1j ** _y_count(op) * r), str(op)

    def test_real_matrix_cap(self):
        with pytest.raises(ValueError, match=str(DENSE_CAP)):
            _real_matrix(PauliString(DENSE_CAP + 1, 0, 0))

    def test_product_matches_composition_up_to_phase(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 4)
            p, q = _random_op(rng, n), _random_op(rng, n)
            ab = _oracle_dense(p) @ _oracle_dense(q)
            c = _oracle_dense(compose(p, q))
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
        assert _oracle_commutes(_p(a), _p(b)) is expect

    def test_every_ordered_pair_on_two_registers(self):
        ops = [_p(a + b) for a in "IXYZ" for b in "IXYZ"]
        for p, q in itertools.product(ops, repeat=2):
            got = _oracle_commutes(p, q)
            assert got is kron_commutes(p, q), (p, q)
            assert got is (symplectic_product(p, q) == 0), (p, q)

    @pytest.mark.parametrize("n", [9, 10])
    def test_random_pairs_at_the_cap(self, n):
        rng = random.Random(700 + n)
        for _ in range(2):
            p, q = _random_op(rng, n), _random_op(rng, n)
            got = _oracle_commutes(p, q)
            assert got is kron_commutes(p, q), (p, q)
            assert got is (symplectic_product(p, q) == 0), (p, q)
        # X on register 1 against Z on every register: they meet on one
        p, q = _p("X" + "I" * (n - 1)), _p("Z" * n)
        assert _oracle_commutes(p, q) is False


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
        assert _oracle_commutes(_p("X" * n), _p("Z" * n)) is (n % 2 == 0)

    @pytest.mark.parametrize("n", range(1, DENSE_CAP + 1))
    @pytest.mark.parametrize("d", [0, 1, 2, 6])
    def test_agrees_with_both_references(self, n, d):
        # random operators, the identity first from d = 2 and the last one
        # repeated at d = 6
        rng = random.Random(1000 * n + d)
        ops = [_random_op(rng, n) for _ in range(d)]
        if d >= 2:
            ops[0] = PauliString(n, 0, 0)
        if d == 6:
            ops[5] = ops[4]
        got = oracle_commutation_matrix(ops)
        assert got == commutation_matrix(ops)
        for i, j in itertools.combinations(range(d), 2):
            assert got.to_rows()[i][j] == (not kron_commutes(ops[i], ops[j])), (ops[i], ops[j])

    def test_mixed_registers(self):
        for ops, msg in [(["X", "XX"], "operator list mixes operators on 1 and 2 registers"),
                         (["XX", "ZZ", "X"], "operator list mixes operators on 2 and 1 registers")]:
            with pytest.raises(ValueError) as info:
                oracle_commutation_matrix([_p(op) for op in ops])
            assert str(info.value) == msg


def _two_nonzeros(m):
    m[1, (np.argmax(m[1] != 0) + 1) % len(m)] = 1


def _zero_row(m):
    m[1] = 0


class TestSignedPermutationGuard:
    """A real Pauli matrix has exactly one nonzero per row; the pair
    comparison rests on that, so a matrix without it must be refused."""

    MUTANTS = [_two_nonzeros, _zero_row]

    @pytest.mark.parametrize("mutate", MUTANTS)
    def test_mutant_raises(self, monkeypatch, mutate):
        def build(op, real=_real_matrix):
            m = real(op).copy()
            mutate(m)
            return m

        monkeypatch.setattr(paulicompress.oracle, "_real_matrix", build)
        with pytest.raises(RuntimeError, match="exactly one nonzero"):
            oracle_commutation_matrix([_p("XZ"), _p("ZY")])

    @pytest.mark.parametrize("mutate", MUTANTS)
    def test_mutant_raises_under_optimize(self, mutate):
        # the guard leans on no assert: python -O must still refuse the mutant
        script = "\n".join([
            "import numpy as np",
            "import paulicompress.oracle as o",
            "from paulicompress import PauliString",
            inspect.getsource(mutate),
            "real = o._real_matrix",
            "def build(op):",
            "    m = real(op).copy()",
            f"    {mutate.__name__}(m)",
            "    return m",
            "o._real_matrix = build",
            "try:",
            "    o.oracle_commutation_matrix([PauliString.from_string(t) for t in ('XZ', 'ZY')])",
            "except RuntimeError as exc:",
            "    print(exc)",
            "else:",
            "    print('accepted')",
        ])
        root = Path(__file__).resolve().parents[1]
        src = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "exactly one nonzero" in done.stdout


class TestBruteForceMinRegisters:
    def test_anticommuting_pair_fits_on_one(self):
        assert brute_force_min_registers(BitMatrix.from_strings(["01", "10"])) == 1

    def test_three_independent_commuting_need_three(self):
        assert brute_force_min_registers(BitMatrix(3, 3, [0] * 3)) == 3

    def test_two_singles_and_their_product_partner(self):
        m = commutation_matrix([_p("XI"), _p("IX"), _p("ZZ")])
        assert brute_force_min_registers(m) == 2

    def test_cap(self):
        with pytest.raises(ValueError, match=str(SEARCH_CAP)):
            brute_force_min_registers(BitMatrix(5, 5, [0] * 5))

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
        # all 2^(d(d-1)/2) alternating matrices for each d <= SEARCH_CAP (76),
        # the empty d = 0 matrix included
        count = 0
        for d, rows in _alternating_matrices():
            m = BitMatrix(d, d, tuple(rows))
            assert brute_force_min_registers(m) == min_registers(m), m.to_strings()
            count += 1
        assert count == 76

    def test_pairing_rows_match_the_reference_pairing(self):
        # every vector v on every q <= SEARCH_CAP, against every u
        for q in range(SEARCH_CAP + 1):
            size = 1 << (2 * q)
            for v in range(size):
                want = sum(1 << u for u in range(size) if _pairing(v, u, q))
                assert _pairing_row(v, q) == want, (q, v)

    def test_transvections_take_e1_to_every_nonzero_vector_in_two_steps(self):
        # the lemma that lets the search fix its first vector to e_1 (X on
        # register 1): T_h(v) = v + <v,h>h reaches every nonzero vector
        for q in range(1, SEARCH_CAP + 1):
            size = 1 << (2 * q)

            def step(vectors):
                return {v ^ h if _pairing(v, h, q) else v for v in vectors for h in range(size)}

            assert step(step({1})) == set(range(1, size)), q

    def test_transvections_keep_every_pairing(self):
        for q in range(1, 3):
            size = 1 << (2 * q)
            for h, u, v in itertools.product(range(size), repeat=3):
                tu = u ^ h if _pairing(u, h, q) else u
                tv = v ^ h if _pairing(v, h, q) else v
                assert _pairing(tu, tv, q) == _pairing(u, v, q), (q, h, u, v)

    def test_level_zero_tries_one_vector(self, monkeypatch):
        # four commuting operators: every q < 4 fails, so the search reaches
        # every admissible second vector; trying all first vectors would
        # compute 84 pairing rows here, fixing the first computes 42
        calls = []
        real = _pairing_row
        monkeypatch.setattr(paulicompress.oracle, "_pairing_row",
                            lambda v, q: calls.append((v, q)) or real(v, q))
        assert brute_force_min_registers(BitMatrix(4, 4, [0] * 4)) == 4
        assert len(calls) < 84

    def test_search_matches_the_echelon_reference_at_every_q(self):
        # every register count q <= d, not only the minimal one
        for d, rows in _alternating_matrices():
            want = BitMatrix(d, d, tuple(rows)).to_rows()
            for q in range(d + 1):
                assert _assignment_exists(want, d, q) is echelon_assignment_exists(want, d, q), (rows, q)


class TestIndependence:
    """The oracle exists to check the symplectic fast path, so it must not
    reach it: it may take only the data types from the rest of the package."""

    FORBIDDEN = {
        "symplectic_product", "to_symplectic", "_mul_swapped", "commutation_matrix", "_mul",
        "_independent_rows", "rank", "_xor_rows", "_dense_mul", "congruence_reduce", "min_registers",
        "_column_basis", "_transpose", "_joined_rows", "_column_pivots", "_congruence_columns",
        "_realize", "_rebuild", "_certify", "_unpack_rows", "_pack_rows",
    }

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

    @pytest.mark.parametrize("rows,msg", [(["0110", "1000", "1001", "0010"], None),
                                          (["01", "00"], "need a symmetric matrix"),
                                          (["11", "10"], "need a zero diagonal")])
    def test_input_checks_never_transpose(self, monkeypatch, rows, msg):
        # a name scan misses what a data type's methods call, so spy on gf2
        calls = []
        real = gf2._transpose
        monkeypatch.setattr(gf2, "_transpose", lambda *args: calls.append(args) or real(*args))
        m = BitMatrix.from_strings(rows)
        if msg is None:
            assert brute_force_min_registers(m) == 2
        else:
            with pytest.raises(ValueError, match=msg):
                brute_force_min_registers(m)
        assert calls == []
