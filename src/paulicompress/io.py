"""Read and write Pauli term collections and compression reports.

Two collection formats are supported.

Plain text, one term per line::

    # comment lines and blank lines are ignored
    0.5 XXIZ        <- weight then operator
    -1,0.25 YZIX    <- complex weight re,im
    IZYX            <- missing weight defaults to 1.0

The weight is ``re`` or ``re,im`` in any decimal notation ``float``
accepts; the operator is a string over I, X, Y, Z and every line must use
the same length.  A ``#`` starts a comment anywhere on a line.

JSON::

    {"terms": [{"pauli": "XXIZ", "weight": [0.5, 0.0]}, ...]}

``weight`` is optional and defaults to ``[1.0, 0.0]``.  Files ending in
``.json`` are detected automatically; anything else parses as plain text.

Both readers check each line or JSON term where it stands, so every
error names its line or term; the operators of the whole file are then
parsed by one :func:`~paulicompress.pauli.from_strings` call.

Reports are JSON objects with the original and compressed register
counts, generator bookkeeping, the reduction transform as '0'/'1' row
strings, one compressed term per input term, and a verification block.
Reports and written collections print all operators with one
:func:`~paulicompress.pauli.to_strings` call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence, Union

from .compress import CompressionResult, verify_equivalence
from .pauli import WeightedPauli, from_strings, to_strings

__all__ = [
    "TermFileError",
    "MalformedLineError",
    "LengthMismatchError",
    "InvalidCharacterError",
    "detect_format",
    "read_collection",
    "write_collection",
    "build_report",
    "write_report",
]

_PAULI_CHARS = frozenset("IXYZ")


class TermFileError(ValueError):
    """Base class for collection parse failures."""


class MalformedLineError(TermFileError):
    """A line (or JSON term entry) that does not fit the grammar."""


class LengthMismatchError(TermFileError):
    """Operator strings of differing lengths in one collection."""


class InvalidCharacterError(TermFileError):
    """An operator string containing a letter outside I, X, Y, Z."""


def detect_format(path: Union[str, Path]) -> str:
    return "json" if Path(path).suffix.lower() == ".json" else "plain"


def _parse_weight(token: str, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) > 2:
        raise MalformedLineError(f"line {lineno}: weight {token!r} has more than two components")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise MalformedLineError(f"line {lineno}: cannot parse weight {token!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise MalformedLineError(f"line {lineno}: weight must be finite, got {token!r}")
    return complex(re, im)


def _check_pauli(text: str, where: str) -> None:
    if not text:
        raise MalformedLineError(f"{where}: empty operator string")
    bad = set(text) - _PAULI_CHARS
    if bad:
        raise InvalidCharacterError(
            f"{where}: invalid character {sorted(bad)[0]!r} in operator {text!r}"
        )


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8; CRLF and lone CR line ends read as LF."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLineError(f"line {lineno}: not valid UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _json_int(digits: str) -> float:
    # float() has no digit limit (int() refuses more than 4300 digits) and
    # rounds like float(int(digits)); adding 0.0 turns "-0" into 0.0 as well
    return float(digits) + 0.0


def _read_plain(path: Path) -> list[WeightedPauli]:
    texts, weights = [], []
    n = None
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) == 1:
            weight, text = complex(1.0), fields[0]
        elif len(fields) == 2:
            weight, text = _parse_weight(fields[0], lineno), fields[1]
        else:
            raise MalformedLineError(
                f"line {lineno}: expected 'pauli' or 'weight pauli', got {len(fields)} fields"
            )
        _check_pauli(text, f"line {lineno}")
        if n is None:
            n = len(text)
        elif len(text) != n:
            raise LengthMismatchError(
                f"line {lineno}: operator has {len(text)} registers, previous terms have {n}"
            )
        texts.append(text)
        weights.append(weight)
    return list(map(WeightedPauli, from_strings(texts), weights))


def _read_json(path: Path) -> list[WeightedPauli]:
    try:
        doc = json.loads(_read_text(path), parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise TermFileError("JSON collection must be an object with a 'terms' list")
    texts, weights = [], []
    n = None
    for k, entry in enumerate(doc["terms"]):
        where = f"term {k}"
        if not isinstance(entry, dict) or not isinstance(entry.get("pauli"), str):
            raise MalformedLineError(f"{where}: expected an object with a 'pauli' string")
        text = entry["pauli"]
        _check_pauli(text, where)
        if n is None:
            n = len(text)
        elif len(text) != n:
            raise LengthMismatchError(
                f"{where}: operator has {len(text)} registers, previous terms have {n}"
            )
        raw_w = entry.get("weight", [1.0, 0.0])
        if (
            not isinstance(raw_w, list)
            or len(raw_w) != 2
            or not all(isinstance(c, float) for c in raw_w)
        ):
            raise MalformedLineError(f"{where}: weight must be a [re, im] pair")
        re, im = raw_w
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MalformedLineError(f"{where}: weight must be finite, got {raw_w!r}")
        texts.append(text)
        weights.append(complex(re, im))
    return list(map(WeightedPauli, from_strings(texts), weights))


def read_collection(path: Union[str, Path], fmt: Optional[str] = None) -> list[WeightedPauli]:
    """Parse a term collection; format auto-detected from the extension."""
    path = Path(path)
    fmt = fmt or detect_format(path)
    if fmt == "plain":
        return _read_plain(path)
    if fmt == "json":
        return _read_json(path)
    raise ValueError(f"unknown collection format {fmt!r}")


def _format_weight(w: complex) -> str:
    if w.imag == 0.0:
        return repr(w.real)
    return f"{w.real!r},{w.imag!r}"


def write_collection(
    terms: Sequence[WeightedPauli], path: Union[str, Path], fmt: Optional[str] = None
) -> None:
    """Write a collection so that reading it back reproduces it exactly."""
    path = Path(path)
    fmt = fmt or detect_format(path)
    texts = to_strings([t.op for t in terms])
    if fmt == "plain":
        lines = [f"{_format_weight(t.weight)} {text}" for t, text in zip(terms, texts)]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    elif fmt == "json":
        doc = {
            "terms": [
                {"pauli": text, "weight": [t.weight.real, t.weight.imag]}
                for t, text in zip(terms, texts)
            ]
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown collection format {fmt!r}")


def build_report(result: CompressionResult, verification: Optional[dict] = None) -> dict:
    """Assemble the JSON-ready report dictionary for a compression result.

    When no verification block is supplied, the full equivalence check is
    run here (with ``oracle_used`` false).
    """
    if verification is None:
        rep = verify_equivalence(
            [t.op for t in result.original_terms], [t.op for t in result.images]
        )
        verification = {
            "pairwise_match": rep.pairwise_match,
            "rank_match": rep.rank_match,
            "oracle_used": False,
        }
    return {
        "original_registers": result.original_n,
        "compressed_registers": result.q,
        "phi_rank": result.basis.num_generators,
        "comm_rank": 2 * result.canonical.pair_count,
        "generator_indices": list(result.basis.generator_indices),
        "l_matrix": result.canonical.transform.to_strings(),
        "compressed_terms": [
            {"pauli": text, "weight": [t.weight.real, t.weight.imag]}
            for t, text in zip(result.images, to_strings([t.op for t in result.images]))
        ],
        "verification": verification,
    }


def write_report(
    result: CompressionResult,
    path: Union[str, Path],
    verification: Optional[dict] = None,
) -> None:
    """Serialize a compression report as JSON."""
    Path(path).write_text(
        json.dumps(build_report(result, verification), indent=2) + "\n", encoding="utf-8"
    )
