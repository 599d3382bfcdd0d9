"""Unit tests for collection files and compression reports."""

import codecs
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulicompress import PauliString, WeightedPauli, compress, verify_equivalence
from paulicompress.io import (
    TermFileError,
    detect_format,
    read_collection,
    write_collection,
    write_report,
)
from paulicompress import io as pio
from paulicompress.cli import cli_main

import reference_example as ref
from test_cli_reference import report_dict
from test_gram import collections

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
    # a byte order mark is dropped before decoding, so the invalid byte's
    # offset and line count from the file's first byte
    ("bom-utf8.pauli", b"\xef\xbb\xbfXX\n\xff\n", "line 2: not valid UTF-8"),
    ("bom-letter.pauli", b"\xef\xbb\xbfXX\nXq\n",
     "line 2: invalid character 'q' in operator 'Xq'"),
    # only a leading mark is one
    ("bom-later.pauli", b"XX\n\xef\xbb\xbfYY\n",
     "line 2: invalid character '\\ufeff' in operator '\\ufeffYY'"),
    ("bom-later.json", b'{"terms": [\xef\xbb\xbf{"pauli": "X"}]}',
     "line 1: invalid JSON (Expecting value)"),
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


class TestByteOrderMark:
    @pytest.mark.parametrize("name,text", [
        ("terms.pauli", "0.5 XX\n-1,0.25 IZ\nYY\n"),
        ("terms.json", '{"terms": [{"pauli": "XY", "weight": [0.5, -1.0]}, {"pauli": "ZZ"}]}'),
    ])
    def test_leading_mark_is_ignored(self, tmp_path, capsys, name, text):
        plain = _write(tmp_path, name, text)
        marked = tmp_path / f"marked-{name}"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert read_collection(marked) == read_collection(plain)
        for path in (plain, marked):
            assert cli_main(["info", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1] and out[0].startswith("terms=")


# Whitespace for str.split(), which splits the fields of a plain line, but
# not a line end for the reader, which splits lines on "\n" only.
_SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
           "\u2003", "\u3000"]
# the first nine weights are valid
_WEIGHTS = ["1.0", "-0.5", "2", "-0", "1_0", "1e-3", "+7.25", "-0,1.5", "1,-0",
            "nan", "inf", "1e400", "1,2,3", "abc", ",", "1,", ",1", "1,nan", "-1e400,0"]
_VALID_WEIGHTS = 9
_OPERATORS = ["XY", "IZ", "YY", "ZX", "XYZ", "Xq", "x.", "1.0", "ZÅ", "I"]
# comment texts, each after a '#'; most lines have none
_NOTES = [None] * 4 + [" note", "1.0 XX", " a, b", " 1 2 3 #", ""]


def _spaces(draw, least=0):
    return "".join(draw(st.lists(st.sampled_from(_SPACES), min_size=least, max_size=2)))


@st.composite
def _plain_texts(draw):
    """Plain collections near the bulk path's edge, of three kinds: clean files,
    whose lines hold a weight and an operator, an operator alone or nothing; the
    weight and operator tokens of a clean file regrouped into lines of 1 to 3
    fields, so they still alternate across the file; and clean files with one
    or two faulty lines (an odd weight, a bad letter or length, or 1 or 3 fields
    of any token) and lone CR line ends.  Any line may end in a comment."""
    kind = draw(st.sampled_from(["clean", "regrouped", "faulty"]))
    weights = st.sampled_from(_WEIGHTS[:_VALID_WEIGHTS])
    ops = st.sampled_from(_OPERATORS[:4])
    count = draw(st.integers(0, 6))
    if kind == "regrouped":
        tokens = [token for _ in range(count) for token in (draw(weights), draw(ops))]
        groups = []
        while tokens:
            size = draw(st.integers(1, 3))
            groups.append(tokens[:size])
            tokens = tokens[size:]
    else:
        shapes = st.sampled_from([2, 2, 2, 1, 0])
        groups = [[draw(weights), draw(ops)][2 - draw(shapes):] for _ in range(count)]
    if kind == "faulty":
        either = st.sampled_from(_WEIGHTS + _OPERATORS)
        for k in draw(st.sets(st.integers(0, count - 1), max_size=2)) if count else ():
            fault = draw(st.sampled_from(["weight", "operator", "fields"]))
            if fault == "weight":
                groups[k] = [draw(st.sampled_from(_WEIGHTS[_VALID_WEIGHTS:]))] + groups[k][-1:]
            elif fault == "operator":
                groups[k] = groups[k][:-1] + [draw(st.sampled_from(_OPERATORS[4:]))]
            else:
                groups[k] = [draw(either) for _ in range(draw(st.sampled_from([1, 3])))]
    lines = []
    for fields in groups:
        gaps = [_spaces(draw, least=1) for _ in fields[1:]]
        line = _spaces(draw) + "".join(f + g for f, g in zip(fields, gaps)) + "".join(fields[-1:])
        line += _spaces(draw)
        note = draw(st.sampled_from(_NOTES))
        if note is not None:
            line += "#" + note
        lines.append(line)
    ends = ["\n", "\r\n", "\r"] if kind == "faulty" else ["\n", "\r\n"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


_COMPONENTS = ["1.0", "-0.0", "0", "-0", "2", "1e-3", "1e400", "NaN", "-Infinity", "true",
               "null", '"1"']


@st.composite
def _json_texts(draw):
    """JSON collections and reports near the bulk path's edge: clean terms, and in
    some files one or two faulty ones."""
    count = draw(st.integers(0, 5))
    faulty = draw(st.sets(st.integers(0, count - 1), max_size=2)) if count else set()
    entries = []
    for k in range(count):
        clean = k not in faulty
        parts = []
        pauli = draw(st.sampled_from(_OPERATORS[:4] if clean else _OPERATORS + ["", 5, None]))
        if clean or draw(st.integers(0, 5)):
            parts.append(f'"pauli": {json.dumps(pauli)}')
        form = draw(st.sampled_from(["pair", "pair", "none"] if clean else
                                    ["pair", "pair", "none", "one", "three", "bare"]))
        comps = [draw(st.sampled_from(_COMPONENTS[:5] if clean else _COMPONENTS))
                 for _ in range(3)]
        weight = {"pair": f"[{comps[0]}, {comps[1]}]", "one": f"[{comps[0]}]",
                  "three": f"[{', '.join(comps)}]", "bare": comps[0], "none": None}[form]
        if weight is not None:
            parts.append(f'"weight": {weight}')
        entry = "{" + ", ".join(draw(st.permutations(parts))) + "}"
        if not clean and not draw(st.integers(0, 7)):
            entry = draw(st.sampled_from(['"XX"', "[1.0]", "3", "null"]))
        entries.append(entry)
    key = draw(st.sampled_from(["terms", "compressed_terms"]))
    sep = draw(st.sampled_from([", ", ",\n", ",\r\n  "]))
    return f'{{"version": 1, "{key}": [{sep.join(entries)}]}}' + draw(st.sampled_from(["", "\n"]))


def _outcome(read, *args):
    """A reader's result with every weight's sign of zero kept, or its error text."""
    try:
        n, images, weights = read(*args)
    except TermFileError as exc:
        return type(exc), str(exc)
    return n, images, [repr(w) for w in weights]


def _per_term(path):
    """What the per-term readers alone make of ``path``."""
    text = pio._read_text(path)
    if detect_format(path) == "json":
        return pio._collect(pio._read_json(pio._json_terms(text)))
    return pio._collect(pio._read_plain(text))


class TestBulkReaders:
    """The bulk readers against the per-term readers: the same (n, images, weights)
    or the same located message on every text."""

    def _both(self, name, data):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / name
            path.write_bytes(data.encode("utf-8"))
            return _outcome(pio._read_collection, path), _outcome(_per_term, path)

    @settings(max_examples=400, deadline=None)
    @given(_plain_texts())
    def test_plain_matches_the_per_line_reader(self, text):
        bulk, located = self._both("terms.pauli", text)
        assert bulk == located

    @settings(max_examples=300, deadline=None)
    @given(_json_texts())
    def test_json_matches_the_per_term_reader(self, text):
        bulk, located = self._both("terms.json", text)
        assert bulk == located

    # (name, file, the message or None): texts whose tokens alternate weight and
    # operator over the whole file but not on every line, a line of three fields
    # that starts with a weight and ends with an operator, a real weight that
    # overflows, and check orders
    PINNED = [
        ("one-then-three.pauli", "1.0\nXX 2.0 YY\n",
         "line 1: invalid character '.' in operator '1.0'"),
        ("three-then-one.pauli", "1.0 XX 2.0\nYY\n",
         "line 1: expected 'pauli' or 'weight pauli', got 3 fields"),
        ("weight-weight-operator.pauli", "XX\n2 -1 YY\n",
         "line 2: expected 'pauli' or 'weight pauli', got 3 fields"),
        ("letter-before-later-weight.pauli", "XX\n1.0 Xq\nnan YY\n1,2,3 ZZ\n",
         "line 2: invalid character 'q' in operator 'Xq'"),
        ("letter-before-later-weight.json",
         '{"terms": [{"pauli": "XX"}, {"pauli": "Xq"}, {"pauli": "YY", "weight": [1e400, 0]}]}',
         "term 1: invalid character 'q' in operator 'Xq'"),
        ("ragged-before-later-weight.pauli", "1 XX\n2 XYZ\nabc YY\n",
         "line 2: operator has 3 registers, previous terms have 2"),
        ("non-finite-real-weight.pauli", "1.0 XX\n1e400 YY\n",
         "line 2: weight must be finite, got '1e400'"),
        ("integer-and-missing-weights.json",
         '{"terms": [{"pauli": "XX", "weight": [2, -0]}, {"pauli": "ZZ"}]}', None),
        ("crlf-no-final-newline.pauli", "1_0\xa0XX\r\n\x85-0\x1fZZ", None),
    ]

    @pytest.mark.parametrize("name,text,message", PINNED, ids=[case[0] for case in PINNED])
    def test_pinned(self, name, text, message):
        bulk, located = self._both(name, text)
        assert bulk == located
        if message is not None:
            assert bulk == (TermFileError, message)
        else:
            assert bulk[0] == 2

    @pytest.mark.parametrize(
        "name,text",
        [
            ("plain.pauli", "0.75 XXYZ\n-1e-3\tIZIZ\n\n2 \xa0YYII"),
            ("weightless.pauli", "XXYZ\nIZIZ\n\nYYII\n"),
            ("mixed.pauli", "# header, 1 2 3\n-1,0.25 XXYZ  # a note\nIZIZ\n2 YYII#\n"),
            ("tiny.pauli", (ROOT / "demos" / "data" / "tiny.pauli").read_text(encoding="utf-8")),
            ("sample.pauli", (ROOT / "demos" / "data" / "ten_register_sample.pauli")
             .read_text(encoding="utf-8")),
            ("terms.json", '{"terms": [{"pauli": "XY", "weight": [0.5, -0.0]}, {"pauli": "ZI"}]}'),
            ("report.json", (ROOT / "tests" / "data" / "ten_register_sample.report.json")
             .read_text(encoding="utf-8")),
        ],
        ids=["plain", "weightless", "comments-and-complex", "tiny", "sample", "json", "report"],
    )
    def test_common_files_take_the_bulk_path(self, tmp_path, monkeypatch, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        expected = _outcome(_per_term, path)
        assert expected[0] > 1
        monkeypatch.setattr(pio, "_collect", lambda located: pytest.fail("fell back"))
        assert _outcome(pio._read_collection, path) == expected


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

    _FINITE = st.floats(allow_nan=False, allow_infinity=False)

    # each input is a strategy; the last draws pairs over the whole finite float
    # space, where json writes every float as its repr
    @pytest.mark.parametrize(
        "weights",
        [
            st.just([]),
            st.just([-0.0, 5e-324, 1.7976931348623157e308, complex(-0.0, -0.0),
                     complex(0.1, -1e-310), 2j]),
            st.just([complex(k / 7, (k % 3) * -1e-5) for k in range(-150, 150)]),
            st.lists(st.builds(complex, _FINITE, _FINITE), min_size=1, max_size=8),
        ],
        ids=["empty", "special", "300-terms", "finite-floats"],
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_json_layout_is_json_dumps(self, weights, data):
        weights = data.draw(weights)
        rng = random.Random(len(weights))
        terms = [
            WeightedPauli(PauliString.from_string("".join(rng.choices("IXYZ", k=6))), w)
            for w in weights
        ]
        doc = {
            "terms": [{"pauli": str(t.op), "weight": [t.weight.real, t.weight.imag]} for t in terms]
        }
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "terms.json"
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


def _written(result, verification):
    """The bytes :func:`write_report` writes for ``result`` and ``verification``."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "report.json"
        write_report(result, path, verification)
        return path.read_bytes()


def _dumped(result, verification):
    """``json.dumps(report, indent=2)`` and a newline, of the report dictionary."""
    return (json.dumps(report_dict(result, verification), indent=2) + "\n").encode()


class TestReports:
    def test_motivating_pair_report(self):
        terms = [
            WeightedPauli(PauliString.from_string("XX"), 0.5),
            WeightedPauli(PauliString.from_string("IZ"), -1.0),
        ]
        result = compress(terms)
        report = json.loads(_written(result, _verified(terms, result)))
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
        report = json.loads(_written(result, _verified(terms, result)))
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
        text = json.dumps(report_dict(result, _verified(terms, result)), indent=2) + "\n"
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

    def test_explicit_verification_block(self):
        terms = [WeightedPauli(PauliString.from_string("XX")), WeightedPauli(PauliString.from_string("IZ"))]
        result = compress(terms)
        block = {"pairwise_match": True, "rank_match": True, "oracle_used": True}
        assert json.loads(_written(result, block))["verification"] == block

    def test_verification_block_is_required(self):
        result = compress([WeightedPauli(PauliString.from_string("XX"))])
        with pytest.raises(TypeError):
            write_report(result, "unused.json")


GOLDEN = ROOT / "tests" / "data" / "ten_register_sample.report.json"
# WeightedPauli rejects NaN and infinite weights, so no report holds one
SPECIAL = [-0.0, 1e-310, 1e300, -1e300, 5e-324, 0.1, 1.0]
_BLOCK = {"pairwise_match": True, "rank_match": True, "oracle_used": False}


def _reference_result(weights=()):
    """The compressed reference example; its first terms weigh ``weights``, given
    as (re, im) pairs, and the others ``i - i*1j`` for term i from 1."""
    pairs = list(weights) + [(i, -i) for i in range(len(weights) + 1, len(ref.OPS) + 1)]
    return compress([
        WeightedPauli(PauliString.from_string(s), complex(*pair)) for s, pair in zip(ref.OPS, pairs)
    ])


class TestReportText:
    """write_report writes json.dumps(report, indent=2) of the report dictionary
    byte for byte."""

    @pytest.mark.parametrize("value", SPECIAL, ids=repr)
    def test_special_weight_values(self, value):
        result = _reference_result([(value, 0.0), (0.0, value), (value, value)])
        assert _written(result, _BLOCK) == _dumped(result, _BLOCK)

    def test_every_special_pair(self):
        pairs = [(a, b) for a in SPECIAL for b in SPECIAL]
        for start in range(0, len(pairs), len(ref.OPS)):
            result = _reference_result(pairs[start : start + len(ref.OPS)])
            assert _written(result, _BLOCK) == _dumped(result, _BLOCK)

    def test_extreme_finite_weights_through_compress(self):
        values = [-0.0, 1e-310, 1e300, -1e300, 5e-324, 0.1]
        terms = [
            WeightedPauli(PauliString.from_string(s), complex(values[i % 6], values[(i + 1) % 6]))
            for i, s in enumerate(ref.OPS)
        ]
        result = compress(terms)
        block = _verified(terms, result)
        written = _written(result, block)
        assert written == _dumped(result, block)
        assert [t["weight"] for t in json.loads(written)["compressed_terms"]] == [
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
        result = _reference_result()
        assert _written(result, block) == _dumped(result, block)

    _SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    _VALUES = st.recursive(
        _SCALARS,
        lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
        max_leaves=8,
    )

    @pytest.mark.parametrize("block", [{}, {"terms": []}, {"verification": {}, "l_matrix": [[]]}],
                             ids=["empty", "no-terms", "nested-empty"])
    def test_empty_documents(self, block):
        # empty containers, alone, as a value, and nested, as the verification block
        result = _reference_result()
        assert _written(result, block) == _dumped(result, block)

    @settings(max_examples=300, deadline=None)
    @given(_VALUES | st.dictionaries(st.sampled_from(["pairwise_match", "x", "é\n"]), _VALUES))
    def test_other_values_are_laid_out_as_json_dumps(self, block):
        # scalars, flat and nested lists, tuples and objects, empty or not
        result = _reference_result()
        assert _written(result, block) == _dumped(result, block)

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


# the block size patched in below, so that a few terms cross block bounds
SMALL = 3
COUNTS = [0, 1, SMALL - 1, SMALL, SMALL + 1]


def _block_terms(count, seed=0):
    """``count`` terms on 5 registers, with weights of either sign of zero."""
    rng = random.Random(seed)
    return [
        WeightedPauli(PauliString.from_string("".join(rng.choices("IXYZ", k=5))),
                      complex(rng.randint(-9, 9) / 4, rng.choice([0.0, -0.0, 0.5])))
        for _ in range(count)
    ]


def _json_doc(terms):
    return {"terms": [{"pauli": str(t.op), "weight": [t.weight.real, t.weight.imag]} for t in terms]}


def _plain_lines(terms):
    """A plain file's text: per term its weight, ``re`` where the imaginary part
    is +0.0 and ``re,im`` otherwise, then its operator."""
    return "".join(
        f"{t.weight.real!r} {t.op}\n" if repr(t.weight.imag) == "0.0"
        else f"{t.weight.real!r},{t.weight.imag!r} {t.op}\n"
        for t in terms
    )


class TestBlockWrites:
    """Reports and collections are written in blocks of ``_BLOCK`` terms, and
    their bytes do not depend on where the blocks fall."""

    @pytest.mark.parametrize("count", COUNTS)
    def test_json_collection(self, tmp_path, monkeypatch, count):
        monkeypatch.setattr(pio, "_BLOCK", SMALL)
        terms = _block_terms(count)
        path = tmp_path / "terms.json"
        write_collection(terms, path)
        assert path.read_text(encoding="utf-8") == json.dumps(_json_doc(terms), indent=2) + "\n"
        assert read_collection(path) == terms

    @pytest.mark.parametrize("count", COUNTS)
    def test_plain_collection(self, tmp_path, monkeypatch, count):
        monkeypatch.setattr(pio, "_BLOCK", SMALL)
        terms = _block_terms(count)
        path = tmp_path / "terms.pauli"
        write_collection(terms, path)
        assert path.read_text(encoding="utf-8") == _plain_lines(terms)
        assert [repr(t.weight) for t in read_collection(path)] == [repr(t.weight) for t in terms]

    @pytest.mark.parametrize("count", COUNTS[1:])
    def test_report(self, monkeypatch, count):
        monkeypatch.setattr(pio, "_BLOCK", SMALL)
        result = compress(_block_terms(count))
        assert _written(result, _BLOCK) == _dumped(result, _BLOCK)

    def test_report_without_terms(self, tmp_path, monkeypatch):
        # no collection compresses to an empty report, but the layout takes one
        monkeypatch.setattr(pio, "_BLOCK", SMALL)
        result = _reference_result()
        path = tmp_path / "report.json"
        pio._write_report(path, result.original_n, result.basis, result.canonical, result.q,
                          [], [], _BLOCK)
        doc = report_dict(result, _BLOCK) | {"compressed_terms": []}
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("count", COUNTS[1:] + [2 * SMALL + 1])
    def test_cli_stdout_is_the_report_file(self, tmp_path, monkeypatch, capsysbinary, count):
        monkeypatch.setattr(pio, "_BLOCK", SMALL)
        path = tmp_path / "terms.pauli"
        write_collection(_block_terms(count, seed=count), path)
        out = tmp_path / "report.json"
        assert cli_main(["compress", str(path), "--verify"]) == 0
        stdout = capsysbinary.readouterr().out
        assert cli_main(["compress", str(path), "--verify", "-o", str(out)]) == 0
        assert out.read_bytes() == stdout
        assert len(json.loads(stdout)["compressed_terms"]) == count

    def test_unserializable_verification_block_leaves_the_file(self, tmp_path):
        # the head and the tail are laid out before the file is opened
        path = tmp_path / "report.json"
        path.write_text("old report", encoding="utf-8")
        with pytest.raises(TypeError):
            write_report(_reference_result(), path, {"pairwise_match": {1, 2}})
        assert path.read_text(encoding="utf-8") == "old report"
        with pytest.raises(TypeError):
            write_report(_reference_result(), tmp_path / "new.json", {"x": object()})
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize("suffix", ["json", "pauli"])
    def test_one_codec_call_per_block(self, tmp_path, monkeypatch, suffix):
        # the texts of a block are printed when it is written, never all at once
        monkeypatch.setattr(pio, "_BLOCK", SMALL)
        sizes = []
        real = pio._to_strings

        def spy(n, images):
            sizes.append(len(images))
            return real(n, images)

        monkeypatch.setattr(pio, "_to_strings", spy)
        write_collection(_block_terms(2 * SMALL + 1), tmp_path / f"terms.{suffix}")
        assert sizes == [SMALL, SMALL, 1]

    @settings(max_examples=150, deadline=None)
    @given(ops=collections(6, sizes=st.integers(0, 3 * SMALL + 1)), data=st.data())
    def test_collections(self, ops, data):
        weights = data.draw(st.lists(st.builds(complex, TestRoundTrips._FINITE, TestRoundTrips._FINITE),
                                     min_size=len(ops), max_size=len(ops)))
        terms = [WeightedPauli(op, w) for op, w in zip(ops, weights)]
        with mock.patch.object(pio, "_BLOCK", SMALL), tempfile.TemporaryDirectory() as folder:
            for name, want in [("terms.json", json.dumps(_json_doc(terms), indent=2) + "\n"),
                               ("terms.pauli", _plain_lines(terms))]:
                write_collection(terms, Path(folder) / name)
                assert (Path(folder) / name).read_text(encoding="utf-8") == want
            if any(op.x_bits | op.z_bits for op in ops):
                result = compress(terms)
                block = _verified(terms, result)
                assert _written(result, block) == _dumped(result, block)
