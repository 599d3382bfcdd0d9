"""Every demo script runs to completion and leaves the checkout untouched."""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import paulicompress.io

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _run(script: Path, tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *args],
        env=dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _snapshot(top: Path) -> dict:
    """Every file under ``top`` with its modification time and content digest."""
    return {
        p.relative_to(top): (p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).hexdigest())
        for p in top.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    }


def test_every_demo_exits_zero(tmp_path):
    # ... and none of them creates or modifies a file under demos/
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    before = _snapshot(DEMOS)
    for script in demos:
        done = _run(script, tmp_path)
        assert done.returncode == 0, f"{script.name}: {done.stderr}"
    assert _snapshot(DEMOS) == before


def test_compress_demo_writes_the_golden_report_where_asked(tmp_path):
    out = tmp_path / "report.json"
    done = _run(DEMOS / "03_compress_collection.py", tmp_path, str(out))
    assert done.returncode == 0, done.stderr
    assert f"report written to {out}" in done.stdout
    golden = ROOT / "tests" / "data" / "ten_register_sample.report.json"
    assert out.read_bytes() == golden.read_bytes()


def test_compress_demo_checks_equivalence_once(tmp_path, monkeypatch, capsys):
    # the demo verifies once and hands that block to the report writer,
    # which has no way to run the check again
    calls = []
    real = paulicompress.verify_equivalence

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(paulicompress, "verify_equivalence", counted)
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["03_compress_collection.py", str(out)])
    runpy.run_path(str(DEMOS / "03_compress_collection.py"), run_name="__main__")
    assert f"report written to {out}" in capsys.readouterr().out
    assert len(calls) == 1
    assert not hasattr(paulicompress.io, "verify_equivalence")
    golden = ROOT / "tests" / "data" / "ten_register_sample.report.json"
    assert out.read_bytes() == golden.read_bytes()
