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

``weight`` is optional and defaults to ``[1.0, 0.0]``.  A compression
report reads as the collection of its ``compressed_terms``.  Files ending
in ``.json`` are detected automatically; anything else parses as plain
text.

Each reader checks only its own format and yields every term with its
line or term number; ``_read_collection`` checks their operators in file
order and turns them into images with one call of pauli's letter codec,
so every error names its line or term, and a term's weight is checked
before its operator.  The command line uses these images and weights as
they are; :func:`read_collection` and :func:`build_report` wrap their
twins ``_read_collection`` and ``_build_report`` in objects.

Reports are JSON objects with the original and compressed register
counts, generator bookkeeping, the reduction transform as '0'/'1' row
strings, one compressed term per input term, and a verification block.
Reports and JSON collections share one term list, with all operators
printed by one call of the letter codec, and one layout:
:func:`report_text` writes both as ``json.dumps(doc, indent=2)`` would,
byte for byte, but lays out each term from one format string, with all
weights encoded by one call of json's C encoder.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .compress import CompressionResult
from .pauli import WeightedPauli, _from_strings, _images, _to_strings, from_symplectic

__all__ = [
    "TermFileError",
    "detect_format",
    "read_collection",
    "write_collection",
    "build_report",
    "report_text",
    "write_report",
]

_PAULI_CHARS = frozenset("IXYZ")


class TermFileError(ValueError):
    """A collection file that does not parse: a line or JSON term that does not fit
    the grammar, operators of differing lengths, or a letter outside I, X, Y, Z."""


def detect_format(path: Union[str, Path]) -> str:
    return "json" if Path(path).suffix.lower() == ".json" else "plain"


def _parse_weight(token: str, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) > 2:
        raise TermFileError(f"line {lineno}: weight {token!r} has more than two components")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise TermFileError(f"line {lineno}: cannot parse weight {token!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise TermFileError(f"line {lineno}: weight must be finite, got {token!r}")
    return complex(re, im)


def _check_pauli(text: str, where: str, n: Optional[int]) -> int:
    """Check one operator string against the letters and against the register
    count ``n`` of the terms before it (None for the first); return its length."""
    if not text:
        raise TermFileError(f"{where}: empty operator string")
    bad = set(text) - _PAULI_CHARS
    if bad:
        raise TermFileError(
            f"{where}: invalid character {sorted(bad)[0]!r} in operator {text!r}"
        )
    if n is not None and len(text) != n:
        raise TermFileError(
            f"{where}: operator has {len(text)} registers, previous terms have {n}"
        )
    return len(text)


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8; CRLF and lone CR line ends read as LF."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise TermFileError(f"line {lineno}: not valid UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _json_int(digits: str) -> float:
    # float() has no digit limit (int() refuses more than 4300 digits) and
    # rounds like float(int(digits)); adding 0.0 turns "-0" into 0.0 as well
    return float(digits) + 0.0


def _read_plain(text: str) -> Iterator[tuple[str, str, complex]]:
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) > 2:
            raise TermFileError(
                f"line {lineno}: expected 'pauli' or 'weight pauli', got {len(fields)} fields"
            )
        weight = _parse_weight(fields[0], lineno) if len(fields) == 2 else complex(1.0)
        yield f"line {lineno}", fields[-1], weight


def _read_json(text: str) -> Iterator[tuple[str, str, complex]]:
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise TermFileError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise TermFileError("JSON collection nests too deeply to parse") from None
    terms = doc.get("terms", doc.get("compressed_terms")) if isinstance(doc, dict) else None
    if not isinstance(terms, list):
        raise TermFileError("JSON collection needs a 'terms' or 'compressed_terms' list")
    for k, entry in enumerate(terms):
        where = f"term {k}"
        if not isinstance(entry, dict) or not isinstance(entry.get("pauli"), str):
            raise TermFileError(f"{where}: expected an object with a 'pauli' string")
        raw_w = entry.get("weight", [1.0, 0.0])
        if (
            not isinstance(raw_w, list)
            or len(raw_w) != 2
            or not all(isinstance(c, float) for c in raw_w)
        ):
            raise TermFileError(f"{where}: weight must be a [re, im] pair")
        re, im = raw_w
        if not (math.isfinite(re) and math.isfinite(im)):
            raise TermFileError(f"{where}: weight must be finite, got {raw_w!r}")
        yield where, entry["pauli"], complex(re, im)


def read_collection(path: Union[str, Path]) -> list[WeightedPauli]:
    """Parse a term collection; format auto-detected from the extension."""
    n, images, weights = _read_collection(path)
    return [WeightedPauli(from_symplectic(image, n), w) for image, w in zip(images, weights)]


def _read_collection(path: Union[str, Path]) -> tuple[int, list[int], list[complex]]:
    path = Path(path)
    read = _read_json if detect_format(path) == "json" else _read_plain
    texts, weights = [], []
    n = None
    for where, text, weight in read(_read_text(path)):
        n = _check_pauli(text, where, n)
        texts.append(text)
        weights.append(weight)
    return (*_from_strings(texts), weights)


def _format_weight(re: float, im: float) -> str:
    # -0.0 == 0.0, so the sign decides whether ``im`` may be left out
    return repr(re) if im == 0.0 and math.copysign(1.0, im) > 0 else f"{re!r},{im!r}"


def _term_list(n: int, images: Sequence[int], weights: Sequence[complex]) -> list[dict]:
    """JSON-ready terms of images on ``n`` registers, printed by one ``_to_strings`` call."""
    return [
        {"pauli": text, "weight": [w.real, w.imag]}
        for text, w in zip(_to_strings(n, images), weights)
    ]


def write_collection(terms: Sequence[WeightedPauli], path: Union[str, Path]) -> None:
    """Write a collection, in the format of its extension, so that reading it back
    reproduces it exactly."""
    path = Path(path)
    listed = _term_list(*_images([t.op for t in terms], "collection"), [t.weight for t in terms])
    if detect_format(path) == "json":
        text = report_text({"terms": listed}) + "\n"
    else:
        text = "".join(f"{_format_weight(*t['weight'])} {t['pauli']}\n" for t in listed)
    path.write_text(text, encoding="utf-8")


def build_report(result: CompressionResult, verification: dict) -> dict:
    """Assemble the JSON-ready report dictionary for a compression result.

    ``verification`` becomes the report's verification block as given;
    nothing is checked here.
    """
    images = _images([t.op for t in result.images], "collection")[1]
    return _build_report(result.original_n, result.basis, result.canonical, result.q, images,
                         [t.weight for t in result.images], verification)


def _build_report(original_n, basis, form, q, images, weights, verification: dict) -> dict:
    return {
        "original_registers": original_n,
        "compressed_registers": q,
        "phi_rank": basis.num_generators,
        "comm_rank": 2 * form.pair_count,
        "generator_indices": list(basis.generator_indices),
        "l_matrix": form.transform.to_strings(),
        "compressed_terms": _term_list(q, images, weights),
        "verification": verification,
    }


# one term at json.dumps(indent=2)'s depth, inside a top-level term list
_TERM_TEXT = (
    '    {{\n      "pauli": "{}",\n      "weight": [\n        {},\n        {}\n      ]\n    }}'
)


def report_text(report: dict) -> str:
    """``json.dumps(report, indent=2)`` of a :func:`build_report` dictionary or
    of the ``{"terms": [...]}`` document :func:`write_collection` writes.

    json's indenting encoder is pure Python, so only the small values go
    through it: each top-level value but a term list (``terms`` or
    ``compressed_terms``) is encoded with ``json.dumps(value, indent=2)``
    and indented one level.  The terms use a fixed layout; their operator
    texts hold only the letters I, X, Y and Z, which JSON writes
    unescaped, and every weight comes from one call of the C encoder,
    ``json.dumps(flat_weights)``, which spells ``NaN``, ``Infinity`` and
    ``-0.0`` as the indenting encoder does.
    """
    parts = []
    for key, value in report.items():
        if key in ("terms", "compressed_terms") and value:
            flat = json.dumps([w for term in value for w in term["weight"]])
            weights = flat[1:-1].split(", ")
            terms = map(_TERM_TEXT.format, [t["pauli"] for t in value], weights[::2], weights[1::2])
            text = "[\n" + ",\n".join(terms) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}"


def write_report(result: CompressionResult, path: Union[str, Path], verification: dict) -> None:
    """Serialize a compression report as JSON, with a final newline."""
    text = report_text(build_report(result, verification))
    Path(path).write_text(text + "\n", encoding="utf-8")
