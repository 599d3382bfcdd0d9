"""Command line contract tests: subcommands, output, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paulicompress import __version__, cli, gf2
from paulicompress.cli import cli_main

import reference_example as ref

ROOT = Path(__file__).resolve().parents[1]


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

        def counting(rows):
            calls.append(1)
            return real(rows)

        monkeypatch.setattr(gf2, "_independent_rows", counting)
        # the package exports the function compress; patch the module's import
        monkeypatch.setattr(sys.modules["paulicompress.compress"], "_independent_rows", counting)
        assert cli_main(["info", reference_file]) == 0
        assert capsys.readouterr().out == "terms=8 n=10 phi_rank=8 comm_rank=6 min_registers=5\n"
        assert len(calls) == 2

    def test_all_identity_input_needs_no_register(self, tmp_path, capsys):
        # no generators: the 0x0 commutation matrix goes through the checks
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

    def test_oracle_catches_a_wrong_commutation_matrix(self, tiny_file, capsys, monkeypatch):
        real = cli.commutation_matrix

        def flipped(ops):
            # flip entry (0, 1) and its mirror, so the matrix stays alternating
            m = real(ops)
            rows = list(m.data)
            rows[0] ^= 1 << 1
            rows[1] ^= 1 << 0
            return gf2.BitMatrix(m.rows, m.cols, tuple(rows))

        monkeypatch.setattr(cli, "commutation_matrix", flipped)
        assert cli_main(["compress", tiny_file, "--verify", "--oracle"]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH" in err
        assert "verification FAILED" in err

    def test_all_identity_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ids.pauli"
        path.write_text("II\nII\n", encoding="utf-8")
        assert cli_main(["compress", str(path)]) == 2
        assert "no non-identity content" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self, tiny_file):
        assert cli_main(["compress", tiny_file, "--frobnicate"]) == 2

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
        ],
        ids=["plain-letter", "plain-lowercase", "plain-length", "json-letter", "json-length",
             "json-empty"],
    )
    def test_bad_operator_message_is_exact(self, tmp_path, capsys, name, text, err):
        # a plain line cannot hold an empty operator: whitespace splits it away
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli_main(["compress", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")

    @pytest.mark.parametrize(
        "name,data",
        [
            ("bad.pauli", b"XX\n" * 7000 + b"\xffX\n"),
            ("bad.json", b'{"terms": [\n' + b'{"pauli": "XX"},\n' * 6999 + b'{"pauli": "\xffX"}]}\n'),
        ],
        ids=["plain", "json"],
    )
    def test_invalid_utf8_is_located(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert cli_main(["info", str(path)]) == 2
        assert "line 7001: not valid UTF-8" in capsys.readouterr().err

    def test_version(self, capsys):
        assert cli_main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "compress" in capsys.readouterr().out
