"""Every exported name and member has a user outside the export lists,
every private name a reader in the library, and the package states its
public names once.

A name in ``paulicompress.__all__`` or in a module's ``__all__`` must be
read somewhere in the library's modules, the demos or the acceptance
gates.  So must every method, property, classmethod and dataclass field
of an exported class, as an attribute.  A helper that only unit tests
call is not public surface: it goes, or its tests move onto the code it
wraps.  A private function, class or constant defined at the top of a
module must be read in the library's modules: one that only tests call
is dead code.  The package's ``__all__`` is ``__version__`` and the
lists of ``pauli``, ``gf2`` and ``compress``, read from those modules.
"""

import ast
import dataclasses
import importlib
from pathlib import Path
from types import FunctionType

import paulicompress

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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(path):
    """The private functions, classes and constants defined at the top of
    ``path``; dunder names such as ``__all__`` are not private."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def test_every_exported_name_is_used():
    used = set().union(*map(_read_names, USERS))
    unused = [f"{module}.{name}" for module, name in _exported() if name not in used]
    assert unused == []


def test_every_private_name_is_read_in_the_library():
    read = set().union(*map(_read_names, MODULES))
    unread = [f"{path.stem}.{name}" for path in MODULES for name in _private_definitions(path)
              if name not in read]
    assert unread == []


def _members(cls):
    """The non-dunder methods, properties, classmethods and dataclass fields of ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    names |= {name for name, value in vars(cls).items()
              if isinstance(value, (FunctionType, property, classmethod, staticmethod))}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _attribute_reads(path):
    """Every attribute ``path`` reads, except those read on ``np``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "np")}


def test_every_member_of_an_exported_class_is_read():
    """A member counts as used only where it is read as an attribute.  A
    keyword argument does not count, so a field that only its constructor
    call sets is unused, nor does a read on ``np``, so ``np.zeros`` does
    not keep a ``zeros`` member.  The scan goes by name, so a member
    sharing its name with an attribute read elsewhere slips through: the
    ``dict.get`` reads of the library would have hidden a ``get``."""
    read = set().union(*map(_attribute_reads, USERS))
    classes = {getattr(importlib.import_module(module), name) for module, name in _exported()}
    unread = sorted(f"{cls.__name__}.{member}" for cls in classes if isinstance(cls, type)
                    for member in _members(cls) if member not in read)
    assert unread == []


MODULE_LISTS = [importlib.import_module(f"paulicompress.{stem}").__all__
                for stem in ("pauli", "gf2", "compress")]


def test_package_exports_every_module_list_once():
    assert set(paulicompress.__all__) == {"__version__"}.union(*MODULE_LISTS)
    assert len(paulicompress.__all__) == len(set(paulicompress.__all__))


def test_star_import_binds_exactly_the_package_list():
    namespace = {}
    exec("from paulicompress import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(paulicompress.__all__)
