"""Every exported name has a user outside the export lists.

A name in ``paulicompress.__all__`` or in a module's ``__all__`` must be
read somewhere in the library's modules, the demos or the acceptance
gates.  A helper that only unit tests call is not public surface: it
goes, or its tests move onto the code it wraps.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paulicompress"
MODULES = sorted(PACKAGE.glob("*.py"))
# __init__ only re-exports, so its imports and lists use nothing
USERS = (
    [path for path in MODULES if path.name != "__init__.py"]
    + sorted((ROOT / "demos").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def _exported():
    """(module, name) for every entry of every ``__all__`` in the package."""
    for path in MODULES:
        suffix = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module("paulicompress" + suffix)
        for name in vars(module).get("__all__", []):
            yield module.__name__, name


def _read_names(path):
    """Every name ``path`` reads, bare or as an attribute; import lists,
    ``__all__`` strings and definitions are not reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_is_used():
    used = set().union(*map(_read_names, USERS))
    unused = [f"{module}.{name}" for module, name in _exported() if name not in used]
    assert unused == []
