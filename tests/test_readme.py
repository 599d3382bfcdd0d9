"""The README's examples give the results its comments show."""

import ast
from pathlib import Path

from paulicompress.cli import cli_main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first ``language`` code block under ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_example():
    source = _block("## Library", "python")
    lines = source.splitlines()
    namespace, shown = {}, []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            # an expression statement ends in a comment with its value's repr
            comment = lines[stmt.end_lineno - 1].rsplit("#", 1)[1].strip()
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == comment, ast.unparse(stmt)
            shown.append(comment)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown == ["1", "['X', 'Z']", "True"]


def test_cli_info_example(monkeypatch, capsys):
    lines = _block("## CLI", "sh").splitlines()
    k = lines.index("paulicompress info demos/data/ten_register_sample.pauli")
    assert lines[k + 1] == "# terms=8 n=10 phi_rank=8 comm_rank=6 min_registers=5"
    monkeypatch.chdir(ROOT)
    assert cli_main(lines[k].split()[1:]) == 0
    assert capsys.readouterr() == (lines[k + 1][2:] + "\n", "")
