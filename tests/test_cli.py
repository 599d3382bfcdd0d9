"""Command line contract tests: subcommands, output, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulicompress import __version__, cli, gf2, oracle, pauli
from paulicompress.cli import cli_main
from paulicompress.compress import GeneratorBasis, _verify_equivalence

import reference_example as ref
from test_gf2 import spy
from test_gram import _tall_ops, collections

ROOT = Path(__file__).resolve().parents[1]
# the module, not the function the package exports under the same name
COMPRESS = sys.modules["paulicompress.compress"]


def _dense_gram_terms(seed):
    """48 weighted terms on 16 registers: products of random subsets of 22
    random generators, with an identity and a repeated term put in."""
    rng = random.Random(seed)
    gens = [[rng.randrange(4) for _ in range(16)] for _ in range(22)]
    rows = []
    for _ in range(46):
        pick = [g for g in gens if rng.random() < 0.25] or [rng.choice(gens)]
        acc = [0] * 16
        for g in pick:
            acc = [a ^ b for a, b in zip(acc, g)]
        rows.append("".join("IXZY"[c] for c in acc))  # letter index = x + 2z
    rows.insert(rng.randrange(len(rows)), "I" * 16)
    rows.insert(rng.randrange(len(rows)), rng.choice(rows))
    return [{"pauli": p, "weight": [rng.randint(-40, 40) / 8, rng.choice([0.0, 0.0, 0.5, -1.25])]}
            for p in rows]


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.pauli"
    path.write_text("".join(f"{op}\n" for op in ref.OPS), encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.pauli"
    path.write_text("0.5 XX\n-1 IZ\n", encoding="utf-8")
    return str(path)


class TestInfo:
    def test_reference_line(self, reference_file, capsys):
        assert cli_main(["info", reference_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "terms=8 n=10 phi_rank=8 comm_rank=6 min_registers=5"

    def test_eliminates_the_commutation_matrix_once(self, reference_file, capsys, monkeypatch):
        # one elimination for the generators, one for the commutation matrix
        calls = []
        real = gf2._independent_rows

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(gf2, "_independent_rows", counting)
        # the package exports the function compress; patch the module's import
        monkeypatch.setattr(sys.modules["paulicompress.compress"], "_independent_rows", counting)
        assert cli_main(["info", reference_file]) == 0
        assert capsys.readouterr().out == "terms=8 n=10 phi_rank=8 comm_rank=6 min_registers=5\n"
        assert len(calls) == 2

    def test_takes_the_rank_of_its_gram_unchecked(self, reference_file, capsys, monkeypatch):
        # a Gram of symplectic images is alternating by construction
        calls = []
        real = gf2._check_alternating

        def spy(*args):
            calls.append(args)
            return real(*args)

        for module in (gf2, COMPRESS):
            monkeypatch.setattr(module, "_check_alternating", spy)
        assert cli_main(["info", reference_file]) == 0
        assert capsys.readouterr().out == "terms=8 n=10 phi_rank=8 comm_rank=6 min_registers=5\n"
        assert calls == []
        # the spy is live: min_registers checks the matrix it is handed
        assert COMPRESS.min_registers(gf2.BitMatrix(2, 2, [0] * 2)) == 2
        assert len(calls) == 1

    def test_tall_input_takes_its_generator_indices_alone(self, tmp_path, capsys, monkeypatch):
        # over 16 rows per image column: the forward column elimination gives
        # the generators, with no back substitution and no combos
        ops = _tall_ops(3, seed=2)
        n, images = pauli._images(ops, "collection")
        assert len(images) > gf2._TALL_ROWS * 2 * n
        joined, _ = gf2._independent_rows(images, 2 * n)
        r = gf2.rank(COMPRESS.commutation_matrix([ops[i] for i in joined]))
        path = tmp_path / "tall.pauli"
        path.write_text("".join(f"{op}\n" for op in ops), encoding="utf-8")
        column_bases = spy(monkeypatch, gf2, "_column_basis")
        eliminated = []
        real = gf2._independent_rows
        monkeypatch.setattr(gf2, "_independent_rows",
                            lambda rows, cols: eliminated.append(len(rows)) or real(rows, cols))
        assert cli_main(["info", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"terms={len(ops)} n=3 phi_rank={len(joined)} comm_rank={r} "
            f"min_registers={len(joined) - r // 2}\n"
        )
        # the only elimination with combos is the Gram's, of d rows
        assert column_bases == [] and eliminated == [len(joined)]

    def test_all_identity_input_needs_no_register(self, tmp_path, capsys):
        # no generators: the 0x0 commutation matrix has rank 0
        path = tmp_path / "ids.pauli"
        path.write_text("II\nII\n", encoding="utf-8")
        assert cli_main(["info", str(path)]) == 0
        assert capsys.readouterr().out == "terms=2 n=2 phi_rank=0 comm_rank=0 min_registers=0\n"

    def test_formula_consistency(self, tiny_file, capsys):
        assert cli_main(["info", tiny_file]) == 0
        out = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in out.split())
        assert int(fields["min_registers"]) == int(fields["phi_rank"]) - int(fields["comm_rank"]) // 2


class TestVerify:
    def test_self_passes(self, reference_file, capsys):
        assert cli_main(["verify", reference_file, reference_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrected_minimal_set_passes(self, reference_file, tmp_path):
        cand = tmp_path / "minimal.pauli"
        cand.write_text("".join(f"{op}\n" for op in ref.MINIMAL), encoding="utf-8")
        assert cli_main(["verify", reference_file, str(cand)]) == 0

    def test_mismatch_fails(self, tiny_file, tmp_path, capsys):
        cand = tmp_path / "bad.pauli"
        cand.write_text("X\nX\n", encoding="utf-8")
        assert cli_main(["verify", tiny_file, str(cand)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_reads_a_compress_report_as_its_compressed_terms(self, capsys):
        original = ROOT / "demos" / "data" / "ten_register_sample.pauli"
        report = ROOT / "tests" / "data" / "ten_register_sample.report.json"
        assert cli_main(["verify", str(original), str(report)]) == 0
        assert capsys.readouterr().out == (
            "pairwise_match=true rank_original=8 rank_candidate=8 rank_match=true\nPASS\n"
        )

    def test_length_mismatch_fails(self, tiny_file, tmp_path):
        cand = tmp_path / "short.pauli"
        cand.write_text("X\n", encoding="utf-8")
        assert cli_main(["verify", tiny_file, str(cand)]) == 1

    # (original, candidate, report line): equal pairings with a collapsed
    # rank, and one flipped pairing at equal rank
    UNDER_O = [
        ("ZI\nIZ\nZZ\n", "Z\nZ\nI\n",
         "pairwise_match=true rank_original=2 rank_candidate=1 rank_match=false"),
        ("XI\nIX\n", "XIX\nIXZ\n",
         "pairwise_match=false rank_original=2 rank_candidate=2 rank_match=true"),
    ]

    @pytest.mark.parametrize("original,candidate,line", UNDER_O,
                             ids=["collapsed-rank", "flipped-pairing"])
    def test_failures_hold_under_optimize(self, tmp_path, original, candidate, line):
        # the verify path leans on no assert: python -O must still fail these
        paths = [tmp_path / "original.pauli", tmp_path / "candidate.pauli"]
        for path, text in zip(paths, [original, candidate]):
            path.write_text(text, encoding="utf-8")
        src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "paulicompress.cli", "verify", *map(str, paths)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == f"{line}\nFAIL\n"


class TestCompress:
    def test_stdout_report(self, tiny_file, capsys):
        assert cli_main(["compress", tiny_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["compressed_registers"] == 1
        assert doc["verification"]["pairwise_match"] is True
        assert doc["verification"]["oracle_used"] is False

    def test_verify_and_oracle(self, tiny_file, capsys):
        assert cli_main(["compress", tiny_file, "--verify", "--oracle"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["compressed_registers"] == 1
        assert doc["verification"]["oracle_used"] is True
        assert "oracle:" in captured.err

    def test_output_file(self, tiny_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli_main(["compress", tiny_file, "-o", str(out), "--verify"]) == 0
        doc = json.loads(out.read_text())
        assert doc["compressed_registers"] == 1
        assert [t["weight"] for t in doc["compressed_terms"]] == [[0.5, 0.0], [-1.0, 0.0]]

    def test_reference_with_oracle(self, reference_file, capsys):
        # n=10 and q=5 are inside the dense cap; dim 8 skips the search
        assert cli_main(["compress", reference_file, "--verify", "--oracle"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["compressed_registers"] == 5
        assert doc["verification"]["oracle_used"] is True
        assert "minimality search skipped" in captured.err

    def test_oracle_at_the_dense_cap_writes_the_golden_report(self, tmp_path, capsys):
        # n=10 is the dense cap itself, so the input check multiplies the
        # largest matrices the oracle accepts
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "report.json"
        args = ["compress", str(root / "demos" / "data" / "ten_register_sample.pauli"),
                "--verify", "--oracle", "-o", str(out)]
        assert cli_main(args) == 0
        err = capsys.readouterr().err.splitlines()
        assert "oracle: dense commutation check on input generators (n=10): ok" in err
        assert "oracle: dense commutation check on compressed generators (q=5): ok" in err
        assert "oracle: minimality search skipped (dim=8 exceeds cap 4)" in err
        want = json.loads((root / "tests" / "data" / "ten_register_sample.report.json").read_text())
        want["verification"]["oracle_used"] = True
        assert json.loads(out.read_text()) == want

    def test_oracle_checks_the_pipelines_own_gram(self, capsys, monkeypatch):
        # the generators' Gram and the postcondition's; the oracle is handed
        # the first, and the certificate passes, so the S-row verify makes none
        calls = []
        real = COMPRESS._mul_swapped
        monkeypatch.setattr(COMPRESS, "_mul_swapped", lambda *args: calls.append(1) or real(*args))
        path = ROOT / "demos" / "data" / "ten_register_sample.pauli"
        assert cli_main(["compress", str(path), "--verify", "--oracle"]) == 0
        assert "verification passed" in capsys.readouterr().err
        assert len(calls) == 2

    @pytest.mark.parametrize("text,err,used", [
        # n=11 is over the dense cap; q=2 and dim=3 are inside both caps
        ("0.5 XIIIIIIIIII\n-1 ZIIIIIIIIII\n2 IXIIIIIIIIY\n",
         ["oracle: dense check on input skipped (n=11 exceeds cap 10)",
          "oracle: dense commutation check on compressed generators (q=2): ok",
          "oracle: exhaustive minimality check (dim=3): ok",
          "compressed 3 terms from 11 to 2 registers",
          "verification passed"], True),
        # eleven commuting generators keep all eleven registers: every check is skipped
        ("".join("I" * i + "Z" + "I" * (10 - i) + "\n" for i in range(11)),
         ["oracle: dense check on input skipped (n=11 exceeds cap 10)",
          "oracle: dense check on output skipped (q=11 exceeds cap 10)",
          "oracle: minimality search skipped (dim=11 exceeds cap 4)",
          "compressed 11 terms from 11 to 11 registers",
          "verification passed"], False),
    ], ids=["input-skipped", "all-skipped"])
    def test_oracle_lines_above_the_dense_cap(self, tmp_path, capsys, text, err, used):
        path = tmp_path / "wide.pauli"
        path.write_text(text, encoding="utf-8")
        assert cli_main(["compress", str(path), "--verify", "--oracle"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == err
        assert json.loads(captured.out)["verification"]["oracle_used"] is used

    def test_oracle_searches_four_commuting_generators(self, tmp_path, capsys):
        # dim 4 at the search cap with no pair: every q below 4 must be refuted
        path = tmp_path / "commuting.pauli"
        path.write_text("ZIII\nIZII\nIIZI\nIIIZ\nZZII\n", encoding="utf-8")
        assert cli_main(["compress", str(path), "--verify", "--oracle"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "oracle: dense commutation check on input generators (n=4): ok",
            "oracle: dense commutation check on compressed generators (q=4): ok",
            "oracle: exhaustive minimality check (dim=4): ok",
            "compressed 5 terms from 4 to 4 registers",
            "verification passed",
        ]
        assert json.loads(captured.out)["compressed_registers"] == 4

    def test_dense_gram_sample_writes_its_golden_report(self, tmp_path, capsys, monkeypatch):
        # every GF(2) product of this run takes the dense float32 path of
        # gf2._mul: the Gram products (generators, postcondition), d left
        # rows over 2n or 2q rows of d bits, the rebuild, m - d left rows
        # over d rows of 2q bits, and the certificate, m - d over d rows of
        # 2n + 2q bits.  The realize step is a gather and makes no product.
        sample = ROOT / "tests" / "data" / "dense_gram_sample.json"
        assert sample.read_text() == json.dumps({"terms": _dense_gram_terms(1)}, indent=2) + "\n"
        golden = ROOT / "tests" / "data" / "dense_gram_sample.report.json"
        doc = json.loads(golden.read_text())
        m, n = len(doc["compressed_terms"]), doc["original_registers"]
        d, q = doc["phi_rank"], doc["compressed_registers"]
        assert (m, n, d, q) == (48, 16, 22, 12)
        # (left rows, k, cols) of the two Grams, the rebuild and the certificate
        shapes = [(d, 2 * n, d), (d, 2 * q, d), (m - d, d, 2 * q), (m - d, d, 2 * (n + q))]
        assert not any(gf2._xors(*shape) for shape in shapes)
        dense = []
        real = gf2._dense_mul
        monkeypatch.setattr(gf2, "_dense_mul", lambda *args: dense.append(1) or real(*args))
        out = tmp_path / "report.json"
        assert cli_main(["compress", str(sample), "--verify", "-o", str(out)]) == 0
        # generators' Gram, postcondition, rebuild, certificate
        assert len(dense) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"report written to {out}",
            "compressed 48 terms from 16 to 12 registers",
            "verification passed",
        ]
        assert out.read_bytes() == golden.read_bytes()

    def test_oracle_catches_a_wrong_commutation_matrix(self, tiny_file, capsys, monkeypatch):
        real = cli._compress

        def flipped(n, images):
            # the pipeline hands the oracle its commutation matrix with entry
            # (0, 1) and its mirror flipped, so the matrix stays alternating
            *result, m = real(n, images)
            rows = list(m.data)
            rows[0] ^= 1 << 1
            rows[1] ^= 1 << 0
            return (*result, gf2.BitMatrix(m.rows, m.cols, tuple(rows)))

        monkeypatch.setattr(cli, "_compress", flipped)
        assert cli_main(["compress", tiny_file, "--verify", "--oracle"]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH" in err
        assert "verification FAILED" in err

    def test_verify_reuses_the_input_generators(self, reference_file, tmp_path, monkeypatch):
        # extraction and the postcondition's independence check: the
        # certificate eliminates nothing
        calls = []
        real = gf2._independent_rows

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(gf2, "_independent_rows", counting)
        monkeypatch.setattr(sys.modules["paulicompress.compress"], "_independent_rows", counting)
        out = tmp_path / "report.json"
        assert cli_main(["compress", reference_file, "--verify", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["verification"]["pairwise_match"] is True
        assert len(calls) == 2

    def test_all_identity_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ids.pauli"
        path.write_text("II\nII\n", encoding="utf-8")
        assert cli_main(["compress", str(path)]) == 2
        assert "no non-identity content" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self, tiny_file):
        assert cli_main(["compress", tiny_file, "--frobnicate"]) == 2

    def test_failed_postcondition_is_one_error_line(self, capsys, monkeypatch):
        real = COMPRESS._realize_columns

        def one_wrong(iso_count, columns):
            # an X on register 1 joins the last canonical generator, so every
            # new generator that composes it gains one
            realized = real(iso_count, columns)
            realized[0] ^= columns[-1]
            return realized

        monkeypatch.setattr(COMPRESS, "_realize_columns", one_wrong)
        path = ROOT / "demos" / "data" / "ten_register_sample.pauli"
        assert cli_main(["compress", str(path), "--verify"]) == 1
        assert capsys.readouterr() == (
            "", "error: compressed generators do not reproduce the commutation matrix\n"
        )

    def test_failed_oracle_guard_is_one_error_line(self, tiny_file, capsys, monkeypatch):
        real = oracle._real_matrix

        def zero_row(p):
            m = real(p)
            m[0] = 0
            return m

        monkeypatch.setattr(oracle, "_real_matrix", zero_row)
        assert cli_main(["compress", tiny_file, "--verify", "--oracle"]) == 1
        assert capsys.readouterr() == (
            "", "error: dense oracle: R(p) has a row without exactly one nonzero\n"
        )

    def test_unknown_subcommand(self):
        assert cli_main(["explode"]) == 2

    def test_missing_file(self, tmp_path):
        assert cli_main(["info", str(tmp_path / "absent.pauli")]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.pauli"
        path.write_text("XX\nXYZ\n", encoding="utf-8")
        assert cli_main(["info", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,text,where",
        [
            ("nan.pauli", "XX\nnan IZ\n", "line 2: weight must be finite"),
            ("inf.json", '{"terms": [{"pauli": "XX"}, {"pauli": "IZ", "weight": [1e400, 0]}]}',
             "term 1: weight must be finite"),
            ("huge.json", '{"terms": [{"pauli": "XX", "weight": [1' + "0" * 400 + ', 0]}]}',
             "term 0: weight must be finite"),
            # past the 4300-digit limit of int() on strings
            pytest.param(
                "digits.json", '{"terms": [{"pauli": "XX", "weight": [1' + "0" * 5000 + ', 0]}]}',
                "term 0: weight must be finite", id="digits.json",
            ),
        ],
    )
    def test_non_finite_weight_is_located(self, tmp_path, capsys, name, text, where):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli_main(["compress", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,text,err",
        [
            ("letter.pauli", "0.5 XX\n-1 XQ\n", "line 2: invalid character 'Q' in operator 'XQ'"),
            ("lower.pauli", "XX\n\n1,2 zÅ\n", "line 3: invalid character 'z' in operator 'zÅ'"),
            ("length.pauli", "XX\n# c\nXYZ\n",
             "line 3: operator has 3 registers, previous terms have 2"),
            ("letter.json", '{"terms": [{"pauli": "XX"}, {"pauli": "X1"}]}',
             "term 1: invalid character '1' in operator 'X1'"),
            ("length.json", '{"terms": [{"pauli": "XX"}, {"pauli": "X"}]}',
             "term 1: operator has 1 registers, previous terms have 2"),
            ("empty.json", '{"terms": [{"pauli": "XX"}, {"pauli": ""}]}',
             "term 1: empty operator string"),
            # one check order in both formats: a term's weight before its operator ...
            ("both.json", '{"terms": [{"pauli": "XX"}, {"pauli": "Xq", "weight": [1]}]}',
             "term 1: weight must be a [re, im] pair"),
            ("both.pauli", "XX\n1,2,3 Xq\n", "line 2: weight '1,2,3' has more than two components"),
            # ... and an earlier term's operator before a later term's weight
            ("order.json", '{"terms": [{"pauli": "Xq"}, {"pauli": "XX", "weight": [1]}]}',
             "term 0: invalid character 'q' in operator 'Xq'"),
            ("order.pauli", "Xq\n1,2,3 XX\n", "line 1: invalid character 'q' in operator 'Xq'"),
        ],
        ids=["plain-letter", "plain-lowercase", "plain-length", "json-letter", "json-length",
             "json-empty", "json-weight-first", "plain-weight-first", "json-file-order",
             "plain-file-order"],
    )
    def test_bad_operator_message_is_exact(self, tmp_path, capsys, name, text, err):
        # a plain line cannot hold an empty operator: whitespace splits it away
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli_main(["compress", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")

    @pytest.mark.parametrize(
        "name,data,line",
        [
            ("bad.pauli", b"XX\n" * 7000 + b"\xffX\n", 7001),
            ("bad.json", b'{"terms": [\n' + b'{"pauli": "XX"},\n' * 6999 + b'{"pauli": "\xffX"}]}\n',
             7001),
            # a lone CR ends a line for the readers, so it does for the locator too
            ("cr.pauli", b"XX\rXY\r\xffX\r", 3),
            ("cr.json", b'{"terms": [{"pauli": "XX"},\r{"pauli": "\xffX"}]}', 2),
            ("mixed.pauli", b"XX\r\nXY\rXZ\r\n\r\xffX\r\n", 5),
            ("mixed.json", b'{"terms": [\r\n{"pauli": "XX"},\r{"pauli": "\xffX"}]}\r\n', 3),
        ],
        ids=["plain", "json", "plain-cr", "json-cr", "plain-mixed", "json-mixed"],
    )
    def test_invalid_utf8_is_located(self, tmp_path, capsys, name, data, line):
        path = tmp_path / name
        path.write_bytes(data)
        assert cli_main(["info", str(path)]) == 2
        assert f"line {line}: not valid UTF-8" in capsys.readouterr().err

    # a plain file whose tokens alternate weight and operator across its lines
    # but not on each line, and a JSON file whose second term has a boolean
    # weight: the bulk readers hand both to the per-term readers by explicit checks
    UNDER_O = [
        ("shifted.pauli", "1.0\nXX 2.0 YY\n", "line 1: invalid character '.' in operator '1.0'"),
        ("bool.json", '{"terms": [{"pauli": "XX"}, {"pauli": "YY", "weight": [true, 0]}]}',
         "term 1: weight must be a [re, im] pair"),
    ]

    @pytest.mark.parametrize("name,text,message", UNDER_O, ids=["plain", "json"])
    def test_malformed_input_is_located_under_optimize(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "paulicompress.cli", "compress", str(path), "--verify"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["compress", "info", "verify"])
    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, '{"terms": ' + "[" * 100000 + "]" * 100000 + "}"],
        ids=["top", "terms"],
    )
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)] + ([str(path)] if command == "verify" else [])
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: JSON collection nests too deeply to parse\n"

    def test_version(self, capsys):
        assert cli_main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "compress" in capsys.readouterr().out


def _run(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


# Mutants of _compress's result (basis, form, q, new generators, rebuilt
# images; the generators' commutation matrix is passed on unchanged).  Each
# draws its choices from ``rng``; one without a target leaves the result as
# it is.

def _honest(rng, mp, basis, form, q, new, out):
    return basis, form, q, new, out


def _flip_generator_row(rng, mp, basis, form, q, new, out):
    out = list(out)
    out[rng.choice(basis.generator_indices)] ^= 1 << rng.randrange(2 * q)
    return basis, form, q, new, out


def _flip_dependent_row(rng, mp, basis, form, q, new, out):
    joined = set(basis.generator_indices)
    dependent = [i for i in range(len(out)) if i not in joined]
    out = list(out)
    if dependent:
        out[rng.choice(dependent)] ^= 1 << rng.randrange(2 * q)
    return basis, form, q, new, out


def _flip_combo_bit(rng, mp, basis, form, q, new, out):
    # the rebuilt image follows the wrong combo
    i = rng.randrange(len(out))
    coeffs, out = list(basis.coeffs), list(out)
    coeffs[i] ^= 1 << rng.randrange(len(new))
    out[i] = gf2._xor_rows(new, coeffs[i])
    return GeneratorBasis(basis.generator_indices, tuple(coeffs)), form, q, new, out


def _swap_rows(rng, mp, basis, form, q, new, out):
    out = list(out)
    if len(out) > 1:
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
    return basis, form, q, new, out


def _corrupt_product(rng, mp, basis, form, q, new, out):
    # a product that flips the lowest bit of its last row, in the rebuild
    # and in every product after it, the certificate's included
    def corrupt(left, right, cols):
        rows = list(gf2._mul(left, right, cols))
        if rows:
            rows[-1] ^= 1
        return iter(rows)

    mp.setattr(COMPRESS, "_mul", corrupt)
    return basis, form, q, new, list(corrupt(basis.coeffs, new, 2 * q))


def _drop_generator(rng, mp, basis, form, q, new, out):
    # the extraction loses its last generator, and every combo its bit;
    # the output stays honest
    keep = (1 << len(new) - 1) - 1
    coeffs = tuple(c & keep for c in basis.coeffs)
    return GeneratorBasis(basis.generator_indices[:-1], coeffs), form, q, new, out


MUTANTS = [_honest, _flip_generator_row, _flip_dependent_row, _flip_combo_bit, _swap_rows,
           _corrupt_product, _drop_generator]
INPUTS = (sorted((ROOT / "demos" / "data").glob("*.pauli"))
          + sorted((ROOT / "tests" / "data").glob("*.json")))


def _mutated(real, mutant, rng, mp):
    """``real``, a ``_compress``, with ``mutant`` applied to its result."""
    def run(n, images):
        *result, gram = real(n, images)
        return (*mutant(rng, mp, *result), gram)
    return run


def _mutant_run(argv, mutant, seed, certify):
    """One in-process run of ``argv`` with ``mutant`` applied to the result
    of ``_compress`` and ``certify`` in place of ``_certify``."""
    real = cli._compress
    with pytest.MonkeyPatch.context() as mp:
        rng = random.Random(seed)
        mp.setattr(cli, "_compress", _mutated(real, mutant, rng, mp))
        mp.setattr(cli, "_certify", certify)
        return _run(argv)


class TestCertificate:
    """``compress --verify`` decides from the pipeline's own certificate and
    falls back to the S-row verify when it fails: the certificate must never
    accept an output the S-row verify rejects, and every run must give the
    exit code, stdout and stderr of the S-row verify alone."""

    def _check(self, path, seeds):
        argv = ["compress", str(path), "--verify"]
        for mutant in MUTANTS:
            for seed in seeds:
                calls = []

                def spy(*args):
                    calls.append((args, COMPRESS._certify(*args)))
                    return calls[-1][1]

                certified = _mutant_run(argv, mutant, seed, spy)
                assert certified == _mutant_run(argv, mutant, seed, lambda *args: False)
                [((n, images, basis, q, new, out), accepted)] = calls
                assert accepted or mutant is not _honest
                # the verdict is the S-row verify of both sides as they stand,
                # whatever the basis the mutant handed over
                assert (certified[0] == 0) == _verify_equivalence(n, images, q, out).passed

    @pytest.mark.parametrize("path", INPUTS, ids=lambda path: path.name)
    def test_inputs(self, path):
        self._check(path, range(6))

    @settings(max_examples=40, deadline=None)
    @given(collections(max_n=8, sizes=st.integers(1, 16)))
    def test_collections(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ops.pauli"
            path.write_text("".join(f"{op}\n" for op in ops), encoding="utf-8")
            if any(op.x_bits | op.z_bits for op in ops):
                self._check(path, range(2))
            else:
                assert _run(["compress", str(path), "--verify"])[0] == 2

    def test_a_mutant_is_rejected_under_optimize(self):
        # the certificate leans on no assert: python -O falls back as well.
        # Seed 1 flips a bit that changes the output's relations.
        path = ROOT / "demos" / "data" / "ten_register_sample.pauli"
        script = (
            "import random, sys\n"
            "import test_cli\n"
            "from paulicompress import cli\n"
            "cli._compress = test_cli._mutated("
            "cli._compress, test_cli._flip_generator_row, random.Random(1), None)\n"
            "sys.exit(cli.cli_main(sys.argv[1:]))\n"
        )
        paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, "compress", str(path), "--verify"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
            capture_output=True,
            text=True,
            timeout=60,
        )
        fallback = _mutant_run(["compress", str(path), "--verify"], _flip_generator_row, 1,
                               lambda *args: False)
        assert fallback[0] == 1 and fallback[2].endswith("verification FAILED\n")
        assert (done.returncode, done.stdout, done.stderr) == fallback
