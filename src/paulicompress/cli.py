"""Command line driver.

Exit codes are fixed for scripting: 0 on success, 1 when a requested
verification fails or an internal self-check fails (the pipeline's
postcondition or the oracle's signed-permutation check, reported as one
``error:`` line), 2 for usage problems (unknown flags, missing or
malformed input files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .compress import _certify, _commutation_matrix, _compress, _verify_equivalence
from .gf2 import _joined_rows, rank
from .io import _read_collection, _report_text
from .oracle import (
    DENSE_CAP,
    SEARCH_CAP,
    brute_force_min_registers,
    oracle_commutation_matrix,
)
from .pauli import from_symplectic

__all__ = ["cli_main", "main"]


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _run_oracle_checks(n, q, gen_ops, new_ops, comm) -> tuple[bool, bool]:
    """Cross-check ``comm``, the pipeline's Gram, with the dense oracle where sizes permit.

    Returns (any_check_ran, all_checks_passed); prints one line per check.
    """
    checks = (
        ("dense commutation check on input generators", "dense check on input", "n",
         n, DENSE_CAP, lambda: oracle_commutation_matrix(gen_ops) == comm),
        ("dense commutation check on compressed generators", "dense check on output", "q",
         q, DENSE_CAP, lambda: oracle_commutation_matrix(new_ops) == comm),
        ("exhaustive minimality check", "minimality search", "dim",
         comm.rows, SEARCH_CAP, lambda: brute_force_min_registers(comm) == q),
    )
    ran, ok = False, True
    for name, skipped, key, size, cap, check in checks:
        if size > cap:
            _note(f"oracle: {skipped} skipped ({key}={size} exceeds cap {cap})")
            continue
        ran = True
        match = check()
        ok &= match
        _note(f"oracle: {name} ({key}={size}): " + ("ok" if match else "MISMATCH"))
    return ran, ok


def _cmd_compress(args) -> int:
    n, images, weights = _read_collection(args.input)
    basis, form, q, new_images, out, gram = _compress(n, images)
    # the certificate proves every sound run; where it fails, the S-row verify,
    # which eliminates both sides afresh, tells which of the report's flags hold
    if _certify(n, images, basis, q, new_images, out):
        pairwise = rank_match = True
    else:
        rep = _verify_equivalence(n, images, q, out)
        pairwise, rank_match = rep.pairwise_match, rep.rank_match

    oracle_used = False
    oracle_ok = True
    if args.oracle:
        gen_ops = [from_symplectic(images[i], n) for i in basis.generator_indices]
        new_ops = [from_symplectic(image, q) for image in new_images]
        oracle_used, oracle_ok = _run_oracle_checks(n, q, gen_ops, new_ops, gram)

    verification = {
        "pairwise_match": pairwise,
        "rank_match": rank_match,
        "oracle_used": oracle_used,
    }
    text = _report_text(n, basis, form, q, out, weights, verification)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        _note(f"report written to {args.output}")
    else:
        sys.stdout.write(text)
    _note(f"compressed {len(images)} terms from {n} to {q} registers")

    if args.verify or args.oracle:
        if not (pairwise and rank_match and oracle_ok):
            _note("verification FAILED")
            return 1
        _note("verification passed")
    return 0


def _cmd_verify(args) -> int:
    n_a, original, _ = _read_collection(args.original)
    n_b, candidate, _ = _read_collection(args.candidate)
    if len(original) != len(candidate):
        _note(f"FAIL: collections differ in length ({len(original)} vs {len(candidate)})")
        return 1
    rep = _verify_equivalence(n_a, original, n_b, candidate)
    print(
        f"pairwise_match={str(rep.pairwise_match).lower()} "
        f"rank_original={rep.rank_original} rank_candidate={rep.rank_candidate} "
        f"rank_match={str(rep.rank_match).lower()}"
    )
    if rep.passed:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def _cmd_info(args) -> int:
    n, images, _ = _read_collection(args.input)
    if not images:
        raise ValueError("cannot extract generators from an empty collection")
    joined = _joined_rows(images, 2 * n)
    d = len(joined)
    # a Gram of images is alternating by construction, so its rank is taken unchecked
    r = rank(_commutation_matrix(n, [images[i] for i in joined]))
    print(f"terms={len(images)} n={n} phi_rank={d} comm_rank={r} min_registers={d - r // 2}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulicompress",
        description="Rewrite a weighted Pauli collection onto the minimal number of registers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a collection and emit a JSON report")
    p.add_argument("input", help="term collection (plain text or .json)")
    p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
    p.add_argument("--verify", action="store_true", help="fail (exit 1) unless the output verifies")
    p.add_argument("--oracle", action="store_true",
                   help="additionally cross-check with the dense-matrix oracle where sizes permit")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("verify", help="check two collections for equivalent structure")
    p.add_argument("original")
    p.add_argument("candidate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("info", help="print collection statistics without compressing")
    p.add_argument("input")
    p.set_defaults(func=_cmd_info)
    return parser


# parse_args returns a fresh Namespace per call, so one parser serves every call
_PARSER = _build_parser()


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2
    except RuntimeError as exc:  # a failed self-check: the pipeline's or the oracle's
        _note(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
