"""Unit tests for collection files and compression reports."""

import json
import math
import random
from pathlib import Path

import pytest

from paulicompress import PauliString, WeightedPauli, compress, verify_equivalence
from paulicompress.io import (
    TermFileError,
    build_report,
    detect_format,
    read_collection,
    report_text,
    write_collection,
    write_report,
)
from paulicompress.cli import cli_main

import reference_example as ref

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestPlainFormat:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "0.5 XX\n-1 IZ\n")
        terms = read_collection(path)
        assert [str(t.op) for t in terms] == ["XX", "IZ"]
        assert [t.weight for t in terms] == [0.5 + 0j, -1.0 + 0j]

    def test_default_weight_comments_blanks(self, tmp_path):
        path = _write(
            tmp_path,
            "terms.pauli",
            "# header comment\n\nXX\n0.25 IZ  # trailing comment\n   \n",
        )
        terms = read_collection(path)
        assert [t.weight for t in terms] == [1.0 + 0j, 0.25 + 0j]

    def test_complex_and_exponent_weights(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "1e-3,2.5 XY\n-0.5,-1E2 ZI\n")
        terms = read_collection(path)
        assert terms[0].weight == complex(1e-3, 2.5)
        assert terms[1].weight == complex(-0.5, -100.0)

    def test_malformed_extra_fields(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "1.0 XX junk\n")
        with pytest.raises(TermFileError, match="line 1"):
            read_collection(path)

    def test_malformed_weight(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "abc XX\n")
        with pytest.raises(TermFileError, match="line 1"):
            read_collection(path)

    def test_malformed_three_component_weight(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "1,2,3 XX\n")
        with pytest.raises(TermFileError, match="two components"):
            read_collection(path)

    def test_invalid_character(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "0.5 XxZ\n")
        with pytest.raises(TermFileError, match="'x'"):
            read_collection(path)

    def test_length_mismatch_cites_line(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "XX\nXYZ\n")
        with pytest.raises(TermFileError, match="line 2"):
            read_collection(path)

    def test_cr_line_ends_count_as_lines(self, tmp_path):
        path = tmp_path / "terms.pauli"
        path.write_bytes(b"0.5 XX\r-1 IZ\r\n\r\rXYZ\n")
        with pytest.raises(TermFileError, match="line 5"):
            read_collection(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_collection(tmp_path / "nope.pauli")

    def test_empty_file_gives_empty_collection(self, tmp_path):
        path = _write(tmp_path, "terms.pauli", "# nothing here\n")
        assert read_collection(path) == []


class TestJsonFormat:
    def test_basic(self, tmp_path):
        doc = {"terms": [{"pauli": "XX", "weight": [0.5, 0.0]}, {"pauli": "IZ"}]}
        path = _write(tmp_path, "terms.json", json.dumps(doc))
        terms = read_collection(path)
        assert [str(t.op) for t in terms] == ["XX", "IZ"]
        assert terms[1].weight == 1.0 + 0j

    def test_integer_weights_read_as_their_float_values(self, tmp_path):
        text = (
            '{"terms": [{"pauli": "XX", "weight": [-0, 3]},'
            ' {"pauli": "ZZ", "weight": [12345678901234567891, 0]}]}'
        )
        terms = read_collection(_write(tmp_path, "terms.json", text))
        # "-0" is the integer zero, so no negative zero appears in reports
        assert [(repr(t.weight.real), repr(t.weight.imag)) for t in terms] == [
            ("0.0", "3.0"),
            (repr(float(12345678901234567891)), "0.0"),
        ]

    def test_invalid_json(self, tmp_path):
        path = _write(tmp_path, "terms.json", "{not json")
        with pytest.raises(TermFileError, match="invalid JSON"):
            read_collection(path)

    def test_wrong_structure(self, tmp_path):
        path = _write(tmp_path, "terms.json", json.dumps(["XX"]))
        with pytest.raises(TermFileError, match="'terms'"):
            read_collection(path)

    def test_report_reads_as_its_compressed_terms(self, tmp_path):
        doc = {"compressed_registers": 1, "compressed_terms": [{"pauli": "X", "weight": [0.5, 0.0]}]}
        terms = read_collection(_write(tmp_path, "report.json", json.dumps(doc)))
        assert [(str(t.op), t.weight) for t in terms] == [("X", 0.5 + 0j)]
        # 'terms' wins when both are there
        doc["terms"] = [{"pauli": "ZZ"}]
        terms = read_collection(_write(tmp_path, "both.json", json.dumps(doc)))
        assert [str(t.op) for t in terms] == ["ZZ"]

    def test_report_terms_get_the_same_checks(self, tmp_path):
        doc = {"compressed_terms": [{"pauli": "X"}, {"pauli": "X", "weight": [1.0]}]}
        path = _write(tmp_path, "report.json", json.dumps(doc))
        with pytest.raises(TermFileError, match=r"term 1: weight must be a \[re, im\] pair"):
            read_collection(path)

    def test_bad_weight_shape(self, tmp_path):
        doc = {"terms": [{"pauli": "XX", "weight": [1.0]}]}
        path = _write(tmp_path, "terms.json", json.dumps(doc))
        with pytest.raises(TermFileError, match="weight"):
            read_collection(path)

    def test_boolean_weight_rejected(self, tmp_path):
        # bool is an int subclass; true must not silently become 1
        doc = {"terms": [{"pauli": "XX", "weight": [True, 0]}]}
        path = _write(tmp_path, "terms.json", json.dumps(doc))
        with pytest.raises(TermFileError, match=r"term 0: weight must be a \[re, im\] pair"):
            read_collection(path)

    def test_empty_pauli_rejected(self, tmp_path):
        doc = {"terms": [{"pauli": ""}]}
        path = _write(tmp_path, "terms.json", json.dumps(doc))
        with pytest.raises(TermFileError, match="empty"):
            read_collection(path)

    def test_length_mismatch(self, tmp_path):
        doc = {"terms": [{"pauli": "XX"}, {"pauli": "X"}]}
        path = _write(tmp_path, "terms.json", json.dumps(doc))
        with pytest.raises(TermFileError, match="term 1"):
            read_collection(path)


# Every malformed-input case of the two classes above, with its exact
# message.  The command line reads through the image collector, not
# read_collection, so each case runs through both.
MALFORMED = [
    ("extra.pauli", b"1.0 XX junk\n",
     "line 1: expected 'pauli' or 'weight pauli', got 3 fields"),
    ("weight.pauli", b"abc XX\n", "line 1: cannot parse weight 'abc'"),
    ("three.pauli", b"1,2,3 XX\n",
     "line 1: weight '1,2,3' has more than two components"),
    ("char.pauli", b"0.5 XxZ\n",
     "line 1: invalid character 'x' in operator 'XxZ'"),
    ("length.pauli", b"XX\nXYZ\n",
     "line 2: operator has 3 registers, previous terms have 2"),
    ("cr.pauli", b"0.5 XX\r-1 IZ\r\n\r\rXYZ\n",
     "line 5: operator has 3 registers, previous terms have 2"),
    ("invalid.json", b"{not json",
     "line 1: invalid JSON (Expecting property name enclosed in double quotes)"),
    ("structure.json", b'["XX"]',
     "JSON collection needs a 'terms' or 'compressed_terms' list"),
    ("report.json", b'{"compressed_terms": [{"pauli": "X"}, {"pauli": "X", "weight": [1.0]}]}',
     "term 1: weight must be a [re, im] pair"),
    ("shape.json", b'{"terms": [{"pauli": "XX", "weight": [1.0]}]}',
     "term 0: weight must be a [re, im] pair"),
    ("bool.json", b'{"terms": [{"pauli": "XX", "weight": [true, 0]}]}',
     "term 0: weight must be a [re, im] pair"),
    ("empty.json", b'{"terms": [{"pauli": ""}]}',
     "term 0: empty operator string"),
    ("length.json", b'{"terms": [{"pauli": "XX"}, {"pauli": "X"}]}',
     "term 1: operator has 1 registers, previous terms have 2"),
]
_MALFORMED_IDS = [case[0] for case in MALFORMED]


class TestMalformedMessages:
    @pytest.mark.parametrize("name,data,message", MALFORMED, ids=_MALFORMED_IDS)
    def test_read_collection(self, tmp_path, name, data, message):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(TermFileError) as raised:
            read_collection(path)
        assert type(raised.value) is TermFileError and str(raised.value) == message

    @pytest.mark.parametrize("command", ["compress", "info", "verify"])
    @pytest.mark.parametrize("name,data,message", MALFORMED, ids=_MALFORMED_IDS)
    def test_cli(self, tmp_path, capsys, command, name, data, message):
        path = tmp_path / name
        path.write_bytes(data)
        argv = [command, str(path)] + ([str(path)] if command == "verify" else [])
        assert cli_main(argv) == 2
        assert tuple(capsys.readouterr()) == ("", f"error: {message}\n")


class TestRoundTrips:
    def _random_terms(self, rng):
        n = rng.randint(1, 8)
        return [
            WeightedPauli(
                PauliString.from_string("".join(rng.choice("IXYZ") for _ in range(n))),
                complex(rng.uniform(-10, 10) * 10 ** rng.randint(-12, 3), rng.choice([0.0, rng.uniform(-1, 1)])),
            )
            for _ in range(rng.randint(1, 12))
        ]

    @pytest.mark.parametrize("suffix", ["pauli", "json"])
    def test_exact_round_trip(self, tmp_path, suffix):
        for seed in range(25):
            terms = self._random_terms(random.Random(seed))
            path = tmp_path / f"terms_{seed}.{suffix}"
            write_collection(terms, path)
            assert read_collection(path) == terms

    @pytest.mark.parametrize("suffix", ["pauli", "json"])
    def test_round_trip_keeps_the_sign_of_zero(self, tmp_path, suffix):
        # -0.0 == 0.0, so only the reprs tell a lost sign apart
        weights = [complex(re, im) for re in (0.0, -0.0, 1.5) for im in (0.0, -0.0, -2.0)]
        terms = [WeightedPauli(PauliString.from_string("XZ"), w) for w in weights]
        path = tmp_path / f"zeros.{suffix}"
        write_collection(terms, path)
        assert [repr(t.weight) for t in read_collection(path)] == [repr(w) for w in weights]

    @pytest.mark.parametrize("suffix", ["pauli", "json"])
    def test_write_rejects_mixed_register_counts(self, tmp_path, suffix):
        terms = [WeightedPauli(PauliString.from_string(t)) for t in ("XX", "Z")]
        with pytest.raises(ValueError, match="on 2 and 1 registers"):
            write_collection(terms, tmp_path / f"mixed.{suffix}")

    @pytest.mark.parametrize(
        "weights",
        [
            [],
            [-0.0, 5e-324, 1.7976931348623157e308, complex(-0.0, -0.0), complex(0.1, -1e-310), 2j],
            [complex(k / 7, (k % 3) * -1e-5) for k in range(-150, 150)],
        ],
        ids=["empty", "special", "300-terms"],
    )
    def test_json_layout_is_json_dumps(self, tmp_path, weights):
        rng = random.Random(len(weights))
        terms = [
            WeightedPauli(PauliString.from_string("".join(rng.choices("IXYZ", k=6))), w)
            for w in weights
        ]
        doc = {
            "terms": [{"pauli": str(t.op), "weight": [t.weight.real, t.weight.imag]} for t in terms]
        }
        path = tmp_path / "terms.json"
        write_collection(terms, path)
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"

    def test_detect_format(self):
        assert detect_format("x.json") == "json"
        assert detect_format("x.JSON") == "json"
        assert detect_format("x.pauli") == "plain"
        assert detect_format("x") == "plain"


def _verified(terms, result, oracle_used=False):
    """The verification block the CLI writes: one explicit equivalence check."""
    rep = verify_equivalence([t.op for t in terms], [t.op for t in result.images])
    return {
        "pairwise_match": rep.pairwise_match,
        "rank_match": rep.rank_match,
        "oracle_used": oracle_used,
    }


class TestReports:
    def test_motivating_pair_report(self, tmp_path):
        terms = [
            WeightedPauli(PauliString.from_string("XX"), 0.5),
            WeightedPauli(PauliString.from_string("IZ"), -1.0),
        ]
        result = compress(terms)
        report = build_report(result, _verified(terms, result))
        assert report["compressed_registers"] == 1
        assert report["original_registers"] == 2
        assert report["phi_rank"] == 2
        assert report["comm_rank"] == 2
        assert report["verification"]["pairwise_match"] is True
        assert report["verification"]["rank_match"] is True
        assert report["verification"]["oracle_used"] is False
        assert report["compressed_registers"] == report["phi_rank"] - report["comm_rank"] // 2

    def test_reference_report_values(self):
        terms = [WeightedPauli(PauliString.from_string(s)) for s in ref.OPS]
        result = compress(terms)
        report = build_report(result, _verified(terms, result))
        assert report["compressed_registers"] == ref.MIN_REGISTERS
        assert report["phi_rank"] == ref.PHI_RANK
        assert report["comm_rank"] == ref.COMM_RANK
        assert report["generator_indices"] == list(range(8))
        # transform rows serialize as '0'/'1' strings, leftmost = column 1
        assert all(set(row) <= {"0", "1"} and len(row) == 8 for row in report["l_matrix"])
        assert report["l_matrix"] == result.canonical.transform.to_strings()

    def test_ten_register_report_is_byte_identical_to_golden(self):
        # the golden file was written by the pure packed-int pipeline; any fast
        # path must reproduce its pivots, transform and text exactly
        terms = read_collection(ROOT / "demos" / "data" / "ten_register_sample.pauli")
        result = compress(terms)
        text = json.dumps(build_report(result, _verified(terms, result)), indent=2) + "\n"
        assert text == (ROOT / "tests" / "data" / "ten_register_sample.report.json").read_text()

    def test_report_round_trip_reverifies(self, tmp_path):
        terms = [WeightedPauli(PauliString.from_string(s), complex(i, -i)) for i, s in enumerate(ref.OPS, 1)]
        result = compress(terms)
        path = tmp_path / "report.json"
        write_report(result, path, _verified(terms, result))
        doc = json.loads(path.read_text())
        rebuilt = [
            WeightedPauli(PauliString.from_string(t["pauli"]), complex(*t["weight"]))
            for t in doc["compressed_terms"]
        ]
        assert [t.weight for t in rebuilt] == [t.weight for t in terms]
        rep = verify_equivalence([t.op for t in terms], [t.op for t in rebuilt])
        assert rep.passed
        assert doc["verification"]["pairwise_match"] is True

    def test_explicit_verification_block(self, tmp_path):
        terms = [WeightedPauli(PauliString.from_string("XX")), WeightedPauli(PauliString.from_string("IZ"))]
        result = compress(terms)
        block = {"pairwise_match": True, "rank_match": True, "oracle_used": True}
        report = build_report(result, block)
        assert report["verification"]["oracle_used"] is True

    def test_verification_block_is_required(self):
        result = compress([WeightedPauli(PauliString.from_string("XX"))])
        with pytest.raises(TypeError):
            build_report(result)
        with pytest.raises(TypeError):
            write_report(result, "unused.json")


GOLDEN = ROOT / "tests" / "data" / "ten_register_sample.report.json"
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 1e-310, 1e300, -1e300, 5e-324, 0.1, 1.0]


def _reference_report(weights=(), verification=None):
    terms = [
        WeightedPauli(PauliString.from_string(s), complex(i, -i)) for i, s in enumerate(ref.OPS, 1)
    ]
    if verification is None:
        verification = {"pairwise_match": True, "rank_match": True, "oracle_used": False}
    report = build_report(compress(terms), verification)
    for term, weight in zip(report["compressed_terms"], weights):
        term["weight"] = list(weight)
    return report


class TestReportText:
    """The report writer reproduces json.dumps(report, indent=2) byte for byte."""

    @pytest.mark.parametrize("value", SPECIAL, ids=repr)
    def test_special_weight_values(self, value):
        report = _reference_report([(value, 0.0), (0.0, value), (value, value)])
        assert report_text(report) == json.dumps(report, indent=2)

    def test_every_special_pair(self):
        pairs = [(a, b) for a in SPECIAL for b in SPECIAL]
        for start in range(0, len(pairs), len(ref.OPS)):
            report = _reference_report(pairs[start : start + len(ref.OPS)])
            assert report_text(report) == json.dumps(report, indent=2)

    def test_extreme_finite_weights_through_compress(self):
        values = [-0.0, 1e-310, 1e300, -1e300, 5e-324, 0.1]
        terms = [
            WeightedPauli(PauliString.from_string(s), complex(values[i % 6], values[(i + 1) % 6]))
            for i, s in enumerate(ref.OPS)
        ]
        result = compress(terms)
        report = build_report(result, _verified(terms, result))
        assert report_text(report) == json.dumps(report, indent=2)
        assert [t["weight"] for t in json.loads(report_text(report))["compressed_terms"]] == [
            [t.weight.real, t.weight.imag] for t in terms
        ]

    @pytest.mark.parametrize(
        "block",
        [
            {"pairwise_match": False, "rank_match": True, "oracle_used": True, "note": "x\ny\"\u00e9"},
            {"nested": {"a": [1, 2.5, None, {}], "b": {"c": []}}, "pairwise_match": True},
            {},
        ],
        ids=["extra-key", "nested", "empty"],
    )
    def test_verification_block_with_other_keys(self, block):
        report = _reference_report(verification=block)
        assert report_text(report) == json.dumps(report, indent=2)

    def test_golden_report_through_write_report(self, tmp_path):
        terms = read_collection(ROOT / "demos" / "data" / "ten_register_sample.pauli")
        result = compress(terms)
        out = tmp_path / "report.json"
        write_report(result, out, _verified(terms, result))
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_golden_report_through_cli_stdout(self, capsys):
        argv = ["compress", str(ROOT / "demos" / "data" / "ten_register_sample.pauli")]
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
