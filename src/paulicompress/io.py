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
text.  Both formats are UTF-8, and a leading byte order mark is ignored.

``_read_collection`` reads a whole file in bulk.  A plain file loses its
comments, each line of one operator gains the weight 1.0, and the text
is split once into fields; the weight tokens go through one
``map(float, ...)`` (a file with a complex weight parses each token as
the per-line reader does) and one finiteness check, and every operator
through one call of pauli's letter codec, which checks each letter once.
A JSON file is parsed once, and its operators and weights are pulled
out, type-checked and converted the same way.  Every well-formed file
takes this path.  A check that fails sends the file to the per-term
readers, which only locate the error: they read the file again (the
bulk path frees its text before the codec runs) and check each term's
fields and weight, then its operator, in file order, so every error
names its line or term, a term's weight is named before its operator,
and an earlier term's error before a later one's.  The command line uses
these images and weights as they are; :func:`read_collection` wraps
``_read_collection`` in objects.

Reports are JSON objects with the original and compressed register
counts, generator bookkeeping, the reduction transform as '0'/'1' row
strings, one compressed term per input term, and a verification block.
Reports and JSON collections share one layout, which writes them as
``json.dumps(doc, indent=2)`` and a newline would, byte for byte, without
json's pure-Python indenting encoder for the term list: each term is one
f-string, whose weights are the ``repr`` of their floats, as json writes
a finite float.  ``_report_text`` lays out a report from the images and
weights of its compressed terms, with operator texts printed by one call
of the letter codec and no dictionary per term; its other fields are
``json.dumps`` of the head and of the verification block.  The command
line and :func:`write_report` both write its text as it is, and
:func:`write_collection` lays out its ``{"terms": [...]}`` document from
the same term list.
"""

from __future__ import annotations

import cmath
import codecs
import json
import math
import re
from itertools import chain, starmap
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .compress import CompressionResult
from .pauli import WeightedPauli, _from_strings, _images, _to_strings, from_symplectic

__all__ = [
    "TermFileError",
    "detect_format",
    "read_collection",
    "write_collection",
    "write_report",
]

_PAULI_CHARS = frozenset("IXYZ")
# a comment: from '#' to the end of its line ('.' stops at a newline)
_COMMENT = re.compile("#.*")
# the start of a line of one field; \s is str.split()'s whitespace
_LONE_OPERATOR = re.compile(r"^(?=[^\S\n]*\S+[^\S\n]*$)", re.MULTILINE)
# the weight of a JSON term that gives none
_UNIT = [1.0, 0.0]


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
    """The file decoded as UTF-8; a leading byte order mark is dropped, and CRLF
    and lone CR line ends read as LF."""
    # not the utf-8-sig codec: its error offsets count from after the mark
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
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


def _bulk_plain(text: str) -> Optional[tuple[list[str], list[complex]]]:
    """The operators and weights of a plain text whose every term line has one
    or two fields and a finite weight; None for any other text.  The
    operators are left to the codec."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    # per line: "1.0\nXX 2.0 YY" alternates weights and operators too
    sizes = set(map(len, map(str.split, text.split("\n"))))
    if not sizes <= {0, 1, 2}:
        return None
    if 1 in sizes:  # an operator alone weighs 1.0
        text = _LONE_OPERATOR.sub("1.0 ", text)
    tokens = text.split()
    ops, tokens = tokens[1::2], tokens[::2]
    try:
        if "," in text:  # complex weights "re,im"; a failure's message is not used
            weights = [_parse_weight(token, 0) for token in tokens]
        else:
            weights = list(map(complex, map(float, tokens)))
    except ValueError:  # TermFileError too
        return None
    if not all(map(cmath.isfinite, weights)):
        return None
    return ops, weights


def _json_terms(text: str) -> list:
    """The term list of a JSON collection or report, unchecked."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise TermFileError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise TermFileError("JSON collection nests too deeply to parse") from None
    terms = doc.get("terms", doc.get("compressed_terms")) if isinstance(doc, dict) else None
    if not isinstance(terms, list):
        raise TermFileError("JSON collection needs a 'terms' or 'compressed_terms' list")
    return terms


def _read_json(terms: list) -> Iterator[tuple[str, str, complex]]:
    for k, entry in enumerate(terms):
        where = f"term {k}"
        if not isinstance(entry, dict) or not isinstance(entry.get("pauli"), str):
            raise TermFileError(f"{where}: expected an object with a 'pauli' string")
        raw_w = entry.get("weight", _UNIT)
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


def _bulk_json(terms: list) -> Optional[tuple[list[str], list[complex]]]:
    """The operators and weights of a JSON term list whose every term is an
    object with a ``pauli`` string and a finite ``[re, im]`` weight or none;
    None for any other list.  The operators are left to the codec."""
    try:
        # only an object takes a string index, so every term is one after this
        texts = [term["pauli"] for term in terms]
    except (TypeError, KeyError):
        return None
    pairs = [term.get("weight", _UNIT) for term in terms]
    if not (set(map(type, texts)) <= {str} and set(map(type, pairs)) <= {list}
            and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {float}):
        return None
    weights = list(starmap(complex, pairs))
    if not all(map(cmath.isfinite, weights)):
        return None
    return texts, weights


def read_collection(path: Union[str, Path]) -> list[WeightedPauli]:
    """Parse a term collection; format auto-detected from the extension."""
    n, images, weights = _read_collection(path)
    return [WeightedPauli(from_symplectic(image, n), w) for image, w in zip(images, weights)]


def _read_collection(path: Union[str, Path]) -> tuple[int, list[int], list[complex]]:
    path = Path(path)
    json_file = detect_format(path) == "json"
    # the nested calls free the text, and a JSON tree, before the codec runs,
    # as the per-term readers do; a file that fails a check is read again
    bulk = _bulk_json(_json_terms(_read_text(path))) if json_file else _bulk_plain(_read_text(path))
    if bulk is not None:
        try:
            return (*_from_strings(bulk[0]), bulk[1])
        except ValueError:  # a bad letter or a ragged length: locate it
            pass
    text = _read_text(path)
    return _collect(_read_json(_json_terms(text)) if json_file else _read_plain(text))


def _collect(located: Iterator[tuple[str, str, complex]]) -> tuple[int, list[int], list[complex]]:
    """``(n, images, weights)`` of a per-term reader's terms, each operator checked
    after its weight and before the next term, so the first error raised in
    file order is the one named."""
    texts, weights = [], []
    n = None
    for where, op, weight in located:
        n = _check_pauli(op, where, n)
        texts.append(op)
        weights.append(weight)
    return (*_from_strings(texts), weights)


def _format_weight(re: float, im: float) -> str:
    # -0.0 == 0.0, so the sign decides whether ``im`` may be left out
    return repr(re) if im == 0.0 and math.copysign(1.0, im) > 0 else f"{re!r},{im!r}"


def write_collection(terms: Sequence[WeightedPauli], path: Union[str, Path]) -> None:
    """Write a collection, in the format of its extension, so that reading it back
    reproduces it exactly."""
    path = Path(path)
    texts = _to_strings(*_images([t.op for t in terms], "collection"))
    weights = [t.weight for t in terms]
    if detect_format(path) == "json":
        text = '{\n  "terms": ' + _terms_text(texts, weights) + "\n}\n"
    else:
        text = "".join(f"{_format_weight(w.real, w.imag)} {t}\n" for t, w in zip(texts, weights))
    path.write_text(text, encoding="utf-8")


def _report_text(original_n, basis, form, q, images, weights, verification: dict) -> str:
    """``json.dumps(report, indent=2)`` and a newline, of the report on ``images``
    and ``weights``, with the term list laid out straight from them: no
    dictionary per term.  ``verification`` is reported as given."""
    head = json.dumps({
        "original_registers": original_n,
        "compressed_registers": q,
        "phi_rank": basis.num_generators,
        "comm_rank": 2 * form.pair_count,
        "generator_indices": basis.generator_indices,
        "l_matrix": form.transform.to_strings(),
    }, indent=2)
    return (head[:-2] + ',\n  "compressed_terms": ' + _terms_text(_to_strings(q, images), weights)
            + ',\n  "verification": ' + json.dumps(verification, indent=2).replace("\n", "\n  ")
            + "\n}\n")


def _terms_text(texts: Sequence[str], weights: Sequence[complex]) -> str:
    """A term list's value text, each term at ``json.dumps(indent=2)``'s depth
    inside a top-level object.  json writes a finite float as its ``repr``."""
    if not texts:
        return "[]"
    terms = [
        f'    {{\n      "pauli": "{text}",\n      "weight": [\n'
        f'        {w.real!r},\n        {w.imag!r}\n      ]\n    }}'
        for text, w in zip(texts, weights)
    ]
    return "[\n" + ",\n".join(terms) + "\n  ]"


def write_report(result: CompressionResult, path: Union[str, Path], verification: dict) -> None:
    """Serialize a compression report as JSON, with a final newline."""
    weights = [t.weight for t in result.images]
    images = _images([t.op for t in result.images], "collection")[1]
    text = _report_text(result.original_n, result.basis, result.canonical, result.q, images,
                        weights, verification)
    Path(path).write_text(text, encoding="utf-8")
