"""The command line against a reference built from the public object API.

The command line reads, compresses, verifies and reports on packed images
and builds no operator objects; the reference below runs the same
subcommands through ``read_collection``, ``compress`` and
``verify_equivalence``, and prints its report as ``json.dumps(report,
indent=2)`` of a dictionary that :func:`report_dict` builds from the
``CompressionResult``: that dictionary is the report format's own
specification, independent of ``paulicompress.io``.  With ``-o`` the
reference writes through ``write_report``.  Both must give the same exit
code, stdout, stderr and report bytes on every input.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulicompress import (
    PauliString,
    WeightedPauli,
    commutation_matrix,
    compress,
    rank,
    symplectic_rank,
    verify_equivalence,
)
from paulicompress import cli
from paulicompress.cli import cli_main
from paulicompress.io import read_collection, write_report

ROOT = Path(__file__).resolve().parents[1]
DATA_FILES = sorted((ROOT / "demos" / "data").iterdir()) + sorted((ROOT / "tests" / "data").iterdir())


def _note(msg):
    print(msg, file=sys.stderr)


def report_dict(result, verification):
    """The report on ``result`` as a dictionary, keys in the order written."""
    return {
        "original_registers": result.original_n,
        "compressed_registers": result.q,
        "phi_rank": result.basis.num_generators,
        "comm_rank": 2 * result.canonical.pair_count,
        "generator_indices": list(result.basis.generator_indices),
        "l_matrix": result.canonical.transform.to_strings(),
        "compressed_terms": [
            {"pauli": str(t.op), "weight": [t.weight.real, t.weight.imag]} for t in result.images
        ],
        "verification": verification,
    }


def _reference_compress(args):
    terms = read_collection(args.input)
    result = compress(terms)
    rep = verify_equivalence([t.op for t in terms], [t.op for t in result.images])
    oracle_used, oracle_ok = False, True
    if args.oracle:
        gen_ops = [terms[i].op for i in result.basis.generator_indices]
        new_ops = [result.images[j].op for j in result.basis.generator_indices]
        oracle_used, oracle_ok = cli._run_oracle_checks(
            result.original_n, result.q, gen_ops, new_ops, commutation_matrix(gen_ops)
        )
    verification = {
        "pairwise_match": rep.pairwise_match,
        "rank_match": rep.rank_match,
        "oracle_used": oracle_used,
    }
    if args.output:
        write_report(result, args.output, verification)
        _note(f"report written to {args.output}")
    else:
        print(json.dumps(report_dict(result, verification), indent=2))
    _note(f"compressed {len(terms)} terms from {result.original_n} to {result.q} registers")
    if args.verify or args.oracle:
        if not (rep.passed and oracle_ok):
            _note("verification FAILED")
            return 1
        _note("verification passed")
    return 0


def _reference_verify(args):
    original = read_collection(args.original)
    candidate = read_collection(args.candidate)
    if len(original) != len(candidate):
        _note(f"FAIL: collections differ in length ({len(original)} vs {len(candidate)})")
        return 1
    rep = verify_equivalence([t.op for t in original], [t.op for t in candidate])
    print(
        f"pairwise_match={str(rep.pairwise_match).lower()} "
        f"rank_original={rep.rank_original} rank_candidate={rep.rank_candidate} "
        f"rank_match={str(rep.rank_match).lower()}"
    )
    print("PASS" if rep.passed else "FAIL")
    return 0 if rep.passed else 1


def _reference_info(args):
    terms = read_collection(args.input)
    if not terms:
        raise ValueError("cannot extract generators from an empty collection")
    ops = [t.op for t in terms]
    # the full Gram matrix has the rank of the generators' one
    phi_rank, comm_rank = symplectic_rank(ops), rank(commutation_matrix(ops))
    print(
        f"terms={len(terms)} n={ops[0].n} phi_rank={phi_rank} "
        f"comm_rank={comm_rank} min_registers={phi_rank - comm_rank // 2}"
    )
    return 0


REFERENCE = {"compress": _reference_compress, "verify": _reference_verify, "info": _reference_info}


def _reference_main(argv):
    args = cli._PARSER.parse_args(argv)
    try:
        return REFERENCE[args.command](args)
    except (OSError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2


def _outcome(main, argv, report):
    """(exit code, stdout, stderr, report bytes or None) of one in-process run."""
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), report.read_bytes() if report.exists() else None


def _runs(path, other, report):
    """Every subcommand and flag combination on ``path``, and verify against ``other``."""
    path, other, report = str(path), str(other), str(report)
    return [
        ["compress", path],
        ["compress", path, "-o", report],
        ["compress", path, "--verify"],
        ["compress", path, "--verify", "-o", report],
        ["compress", path, "--oracle"],
        ["compress", path, "--verify", "--oracle", "-o", report],
        ["info", path],
        ["verify", path, path],
        ["verify", path, other],
        ["verify", other, path],
    ]


def assert_cli_matches_reference(path, other, workdir):
    report = Path(workdir) / "report.json"
    for argv in _runs(path, other, report):
        image = _outcome(cli_main, argv, report)
        reference = _outcome(_reference_main, argv, report)
        assert image == reference, argv
    # and against its own report, read as the collection of its compressed terms
    _outcome(cli_main, ["compress", str(path), "-o", str(report)], report)
    for argv in (["verify", str(path), str(report)], ["info", str(report)]):
        assert _outcome(cli_main, argv, report) == _outcome(_reference_main, argv, report), argv


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def collection_texts(draw):
    """(file name, text) of a plain or JSON collection of up to 14 terms on up to
    6 registers; the terms come from a small pool that holds the identity,
    so identities and duplicates are common, and weights are complex,
    missing, or -0.0."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=6))
    ops = draw(st.lists(st.sampled_from(pool + ["I" * n]), max_size=14))
    weight = st.one_of(st.none(), st.just((-0.0, -0.0)), st.tuples(_FLOATS, _FLOATS))
    weights = [draw(weight) for _ in ops]
    if draw(st.booleans()):
        terms = [{"pauli": op} if w is None else {"pauli": op, "weight": list(w)}
                 for op, w in zip(ops, weights)]
        return "terms.json", json.dumps({"terms": terms})
    lines = [op if w is None else f"{w[0]!r},{w[1]!r} {op}" for op, w in zip(ops, weights)]
    return "terms.pauli", "".join(line + "\n" for line in lines)


class TestMatchesTheObjectApi:
    @settings(max_examples=60, deadline=None)
    @given(collection_texts(), collection_texts())
    def test_generated_collections(self, first, second):
        with tempfile.TemporaryDirectory() as workdir:
            path, other = Path(workdir) / first[0], Path(workdir) / ("other-" + second[0])
            path.write_text(first[1], encoding="utf-8")
            other.write_text(second[1], encoding="utf-8")
            assert_cli_matches_reference(path, other, workdir)

    @pytest.mark.parametrize("path", DATA_FILES, ids=lambda p: p.name)
    def test_data_files(self, path, tmp_path):
        assert_cli_matches_reference(path, ROOT / "demos" / "data" / "tiny.pauli", tmp_path)

    @pytest.mark.parametrize(
        "name,text",
        [
            ("empty.pauli", ""),
            ("comments.pauli", "# nothing here\n\n"),
            ("empty.json", '{"terms": []}'),
            ("ids.pauli", "II\n0.5 II\n"),
            ("ids.json", '{"terms": [{"pauli": "I"}, {"pauli": "I", "weight": [-0.0, 2.5]}]}'),
        ],
    )
    def test_edge_cases(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        empty = tmp_path / "other-empty.pauli"
        empty.write_text("", encoding="utf-8")
        assert_cli_matches_reference(path, empty, tmp_path)

    def test_empty_file_outcomes(self, tmp_path, capsys):
        # what both sides agree on for an empty file (all-identity input is in test_cli)
        empty = tmp_path / "empty.pauli"
        empty.write_text("", encoding="utf-8")
        assert cli_main(["verify", str(empty), str(empty)]) == 0
        assert capsys.readouterr().out == (
            "pairwise_match=true rank_original=0 rank_candidate=0 rank_match=true\nPASS\n"
        )
        assert cli_main(["compress", str(empty)]) == 2
        assert capsys.readouterr().err == "error: cannot compress an empty collection\n"
        assert cli_main(["info", str(empty)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot extract generators from an empty collection\n"
        )


def _many_terms(tmp_path):
    """256 weighted terms on 8 registers, with identities and duplicates."""
    rng = random.Random(8)
    texts = ["".join(rng.choices("IXYZ", k=8)) for _ in range(240)]
    texts += ["I" * 8] * 8 + texts[:8]
    path = tmp_path / "many.pauli"
    path.write_text("".join(f"{k / 8!r},-0.5 {t}\n" for k, t in enumerate(texts)), encoding="utf-8")
    return path


class TestObjectsOnlyAtTheBoundary:
    """The command line builds no per-term objects; --oracle builds the 2d
    generator operators it checks, and nothing else."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {PauliString: 0, WeightedPauli: 0}
        for cls in counts:
            real = cls.__post_init__

            def counting(self, cls=cls, real=real):
                counts[cls] += 1
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        return counts

    def test_compress_builds_no_operator(self, tmp_path, built, capsys):
        out = tmp_path / "report.json"
        assert cli_main(["compress", str(_many_terms(tmp_path)), "--verify", "-o", str(out)]) == 0
        assert "verification passed" in capsys.readouterr().err
        assert len(json.loads(out.read_text())["compressed_terms"]) == 256
        assert built == {PauliString: 0, WeightedPauli: 0}

    def test_oracle_builds_the_generators_only(self, tmp_path, built, capsys):
        out = tmp_path / "report.json"
        argv = ["compress", str(_many_terms(tmp_path)), "--verify", "--oracle", "-o", str(out)]
        assert cli_main(argv) == 0
        assert "verification passed" in capsys.readouterr().err
        d = json.loads(out.read_text())["phi_rank"]
        assert 0 < built[PauliString] <= 2 * d
        assert built[WeightedPauli] == 0

    def test_the_counter_sees_the_object_api(self, tmp_path, built):
        # the count is live: the public reader builds one of each per term
        terms = read_collection(_many_terms(tmp_path))
        assert built == {PauliString: 256, WeightedPauli: 256} and len(terms) == 256
