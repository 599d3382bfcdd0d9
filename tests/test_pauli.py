"""Unit tests for the Pauli types and the symplectic encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulicompress import (
    PauliString,
    WeightedPauli,
    compose,
    from_symplectic,
    pauli_weight,
    symplectic_product,
    to_symplectic,
)
from paulicompress.pauli import from_strings, to_strings

_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_OF_LETTER = {letter: bits for bits, letter in _LETTER_OF_BITS.items()}


def loop_from_string(letters: str) -> PauliString:
    """Reference parser: one letter at a time, register 1 first."""
    x = z = 0
    for t, ch in enumerate(letters):
        try:
            xb, zb = _BITS_OF_LETTER[ch]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {ch!r} (want one of I, X, Y, Z)") from None
        x |= xb << t
        z |= zb << t
    return PauliString(len(letters), x, z)


def loop_to_string(op: PauliString) -> str:
    """Reference printer: one register at a time, register 1 first."""
    return "".join(_LETTER_OF_BITS[site] for site in op.sites)

# Local dense-matrix helper, deliberately independent of the package's
# oracle module: commutation facts asserted here are cross-checked by
# multiplying explicit matrices.
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MAT = {"I": np.eye(2, dtype=complex), "X": _X, "Y": 1j * _X @ _Z, "Z": _Z}


def _dense(op: PauliString) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for ch in str(op):
        m = np.kron(m, _MAT[ch])
    return m


def _dense_commute(p: PauliString, q: PauliString) -> bool:
    a, b = _dense(p), _dense(q)
    return bool(np.max(np.abs(a @ b - b @ a)) < 1e-9)


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    idx = np.argwhere(b != 0)[0]
    phase = a[tuple(idx)] / b[tuple(idx)]
    return phase in (1, -1, 1j, -1j) and np.array_equal(a, phase * b)


paulis = st.integers(1, 6).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n).map(PauliString.from_string)
)


def pauli_pairs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.text(alphabet="IXYZ", min_size=n, max_size=n).map(PauliString.from_string),
            st.text(alphabet="IXYZ", min_size=n, max_size=n).map(PauliString.from_string),
        )
    )


class TestPauliString:
    @pytest.mark.parametrize("text", ["I", "X", "Y", "Z", "XYZI", "ZZZZZ"])
    def test_string_round_trip(self, text):
        assert str(PauliString.from_string(text)) == text

    def test_sites_convention(self):
        p = PauliString.from_string("IXZY")
        assert p.sites == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError, match="invalid Pauli letter"):
            PauliString.from_string("XQ")

    def test_rejects_zero_registers(self):
        with pytest.raises(ValueError, match="at least one register"):
            PauliString.from_string("")
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError, match="out of range"):
            PauliString(1, 2, 0)

    def test_identity(self):
        assert str(PauliString(3, 0, 0)) == "III"


# widths around the byte and machine-word edges of the packed rows
_CODEC_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 200]


@st.composite
def letter_lists(draw):
    n = draw(st.sampled_from(_CODEC_WIDTHS))
    return draw(
        st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=50)
    )


@st.composite
def operator_lists(draw):
    n = draw(st.sampled_from(_CODEC_WIDTHS))
    pairs = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    return [PauliString(n, x, z) for x, z in draw(st.lists(pairs, min_size=1, max_size=50))]


class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(letter_lists())
    def test_from_strings_matches_loop(self, texts):
        ops = from_strings(texts)
        assert ops == [loop_from_string(t) for t in texts]
        assert to_strings(ops) == texts
        assert [PauliString.from_string(t) for t in texts] == ops

    @settings(max_examples=150, deadline=None)
    @given(operator_lists())
    def test_to_strings_matches_loop(self, ops):
        texts = to_strings(ops)
        assert texts == [loop_to_string(op) for op in ops]
        assert from_strings(texts) == ops
        assert [str(op) for op in ops] == texts

    def test_empty_collection(self):
        assert from_strings([]) == []
        assert to_strings([]) == []

    @pytest.mark.parametrize(
        "texts,bad",
        [
            (["X0"], "0"),
            (["1X"], "1"),
            (["XxZ"], "x"),
            (["iXZ"], "i"),
            (["XÅZ"], "Å"),
            (["X\ud800"], "\ud800"),
            # the first bad letter is named, wherever the later ones are
            (["XQÅ"], "Q"),
            (["XÅQ"], "Å"),
            (["XYZ", "ZYX", "ZY-"], "-"),
            (["XÅ", "0X"], "Å"),
        ],
    )
    def test_names_the_first_bad_letter(self, texts, bad):
        msg = f"invalid Pauli letter {bad!r} (want one of I, X, Y, Z)"
        with pytest.raises(ValueError) as exc:
            from_strings(texts)
        assert str(exc.value) == msg
        if len(texts) == 1:
            with pytest.raises(ValueError) as exc:
                PauliString.from_string(texts[0])
            assert str(exc.value) == msg

    @pytest.mark.parametrize(
        "texts,msg",
        [
            (["XX", "X"], "operator 1 has 1 letters, operator 0 has 2"),
            (["X", "XX"], "operator 1 has 2 letters, operator 0 has 1"),
            (["XY", "ZI", "IXZ", "I"], "operator 2 has 3 letters, operator 0 has 2"),
            # equal total length must not hide ragged rows
            (["XXX", "X", "XX"], "operator 1 has 1 letters, operator 0 has 3"),
            (["X", ""], "operator 1 has 0 letters, operator 0 has 1"),
            ([""], "a Pauli operator needs at least one register, got n=0"),
            (["", ""], "a Pauli operator needs at least one register, got n=0"),
        ],
    )
    def test_rejects_ragged_and_empty_strings(self, texts, msg):
        with pytest.raises(ValueError) as exc:
            from_strings(texts)
        assert str(exc.value) == msg

    def test_to_strings_rejects_mixed_register_counts(self):
        ops = [PauliString.from_string("XX"), PauliString.from_string("X")]
        with pytest.raises(ValueError, match="on 2 and 1 registers"):
            to_strings(ops)


class TestSymplecticMap:
    @pytest.mark.parametrize(
        "text,bits",
        [
            ("XX", (1, 1, 0, 0)),
            ("IZ", (0, 0, 0, 1)),
            ("Y", (1, 1)),
        ],
    )
    def test_image_examples(self, text, bits):
        assert to_symplectic(PauliString.from_string(text)) == sum(b << i for i, b in enumerate(bits))

    @pytest.mark.parametrize(
        "n,bits,text",
        [
            (1, (1, 1), "Y"),
            (2, (0, 0, 0, 0), "II"),
            (2, (1, 0, 0, 1), "XZ"),
        ],
    )
    def test_preimage_examples(self, n, bits, text):
        assert str(from_symplectic(sum(b << i for i, b in enumerate(bits)), n)) == text

    @given(paulis)
    def test_round_trip(self, p):
        assert from_symplectic(to_symplectic(p), p.n) == p

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 4**n - 1))))
    def test_round_trip_vector(self, nb):
        n, bits = nb
        assert to_symplectic(from_symplectic(bits, n)) == bits


class TestCompose:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            ("X", "Z", "Y"),
            ("XX", "XX", "II"),
            ("XX", "IZ", "XY"),
        ],
    )
    def test_examples(self, a, b, expect):
        p, q = PauliString.from_string(a), PauliString.from_string(b)
        got = compose(p, q)
        assert str(got) == expect
        # dense cross-check: products agree up to a global phase
        assert _equal_up_to_phase(_dense(p) @ _dense(q), _dense(got))

    def test_operator_syntax(self):
        assert PauliString.from_string("X") * PauliString.from_string("Z") == PauliString.from_string("Y")

    def test_mismatched_registers(self):
        with pytest.raises(ValueError, match="registers"):
            compose(PauliString.from_string("X"), PauliString.from_string("XX"))

    @given(pauli_pairs())
    def test_homomorphism(self, pq):
        p, q = pq
        assert to_symplectic(compose(p, q)) == to_symplectic(p) ^ to_symplectic(q)


class TestSymplecticProduct:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            ("X", "Z", 1),
            ("XX", "IZ", 1),
            ("XX", "ZZ", 0),
            ("ZI", "IZ", 0),
        ],
    )
    def test_examples(self, a, b, expect):
        assert symplectic_product(PauliString.from_string(a), PauliString.from_string(b)) == expect

    def test_mismatched_registers(self):
        with pytest.raises(ValueError, match="registers"):
            symplectic_product(PauliString.from_string("X"), PauliString.from_string("XX"))

    @given(pauli_pairs())
    def test_symmetry(self, pq):
        p, q = pq
        assert symplectic_product(p, q) == symplectic_product(q, p)

    @given(paulis)
    def test_self_annihilation(self, p):
        assert symplectic_product(p, p) == 0

    def test_dense_concordance_exhaustive_two_registers(self):
        ops = [
            PauliString.from_string(a + b) for a in "IXYZ" for b in "IXYZ"
        ]
        for p in ops:
            for q in ops:
                fast = symplectic_product(p, q) == 0
                assert fast == _dense_commute(p, q), (p, q)

    @given(pauli_pairs(max_n=5))
    def test_dense_concordance_random(self, pq):
        p, q = pq
        fast = symplectic_product(p, q) == 0
        assert fast == _dense_commute(p, q)


class TestPauliWeight:
    @pytest.mark.parametrize(
        "text,expect",
        [("II", 0), ("IZIZZ", 3), ("XYZI", 3), ("Y", 1)],
    )
    def test_examples(self, text, expect):
        assert pauli_weight(PauliString.from_string(text)) == expect


class TestWeightedPauli:
    def test_defaults_to_unit_weight(self):
        t = WeightedPauli(PauliString.from_string("X"))
        assert t.weight == 1.0 + 0.0j

    def test_coerces_to_complex(self):
        t = WeightedPauli(PauliString.from_string("X"), -2)
        assert isinstance(t.weight, complex) and t.weight == -2 + 0j

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedPauli(PauliString.from_string("X"), bad)
