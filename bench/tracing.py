"""Spans around the library's module boundaries, recorded from outside.

The tracer replaces module-level names with timing wrappers: the names
``cli`` imports from ``io``/``compress``/``oracle``, the names
``compress`` imports from ``gf2``/``pauli``, and the ``compress``
module's own pipeline stages, which its functions look up through the
module namespace at call time.  Nothing in ``src/`` changes.  A wrapped
call made inside another wrapped call records the outer span as its
parent, so a layer's self time is its span minus its children.  A name
that no longer exists is skipped, and metrics built on it read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

# (module, attribute, span name); an attribute "Cls.meth" is a classmethod
SPANS = [
    ("paulicompress.cli", "compress", "compress.compress"),
    ("paulicompress.cli", "verify_equivalence", "compress.verify_equivalence"),
    ("paulicompress.cli", "commutation_matrix", "compress.commutation_matrix"),
    ("paulicompress.cli", "read_collection", "io.read_collection"),
    ("paulicompress.cli", "build_report", "io.build_report"),
    ("paulicompress.cli", "write_report", "io.write_report"),
    ("paulicompress.cli", "oracle_commutation_matrix", "oracle.oracle_commutation_matrix"),
    ("paulicompress.cli", "brute_force_min_registers", "oracle.brute_force_min_registers"),
    ("paulicompress.io", "build_report", "io.build_report"),
    ("paulicompress.io", "PauliString.from_string", "pauli.from_string"),
    ("paulicompress.compress", "extract_generators", "compress.extract_generators"),
    ("paulicompress.compress", "commutation_matrix", "compress.commutation_matrix"),
    ("paulicompress.compress", "congruence_reduce", "gf2.congruence_reduce"),
    ("paulicompress.compress", "canonical_generators", "compress.canonical_generators"),
    ("paulicompress.compress", "apply_basis_change", "compress.apply_basis_change"),
    ("paulicompress.compress", "is_invertible", "gf2.rank"),
    ("paulicompress.compress", "rank", "gf2.rank"),
    ("paulicompress.compress", "symplectic_rank", "compress.symplectic_rank"),
]

# called millions of times per run: counted, not timed
COUNTS = [
    ("paulicompress.compress", "symplectic_product", "pauli.symplectic_product"),
]


class Tracer:
    """In-memory span and call-count recorder.

    ``spans[i]`` is ``[name, start, end, parent]`` with ``parent`` the index
    of the enclosing span, or -1 for a root.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, spans: bool = True, counts: bool = True):
        """Patch every target that exists; restore the originals on exit."""
        undo = []
        chosen = [(SPANS, self._timed)] * spans + [(COUNTS, self._counted)] * counts
        try:
            for targets, make in chosen:
                for module_name, attr, name in targets:
                    owner = importlib.import_module(module_name)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part, None)
                    if owner is None or not hasattr(owner, leaf):
                        continue
                    raw = vars(owner).get(leaf) if isinstance(owner, type) else getattr(owner, leaf)
                    if isinstance(raw, classmethod):
                        patched = classmethod(make(name, raw.__func__))
                    else:
                        patched = make(name, raw)
                    setattr(owner, leaf, patched)
                    undo.append((owner, leaf, raw))
            yield self
        finally:
            for owner, leaf, raw in reversed(undo):
                setattr(owner, leaf, raw)

    def totals(self, first: int = 0) -> tuple[dict, dict]:
        """(inclusive, self) seconds per span name over ``spans[first:]``."""
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for sid in range(first, len(self.spans)):
            name, start, end, parent = self.spans[sid]
            inclusive[name] += end - start
            own[name] += end - start
            if parent >= first:
                own[self.spans[parent][0]] -= end - start
        return inclusive, own
