"""Command line driver.

Exit codes are fixed for scripting: 0 on success, 1 when a requested
verification fails, 2 for usage problems (unknown flags, missing or
malformed input files).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .compress import (
    commutation_matrix,
    compress,
    extract_generators,
    min_registers,
    verify_equivalence,
)
from .io import TermFileError, build_report, read_collection, report_text, write_report
from .oracle import (
    DENSE_CAP,
    SEARCH_CAP,
    brute_force_min_registers,
    oracle_commutation_matrix,
)

__all__ = ["cli_main", "main"]


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _run_oracle_checks(result, gen_ops, comm) -> tuple[bool, bool]:
    """Cross-check with the dense oracle where sizes permit.

    Returns (any_check_ran, all_checks_passed); prints one line per check.
    """
    ran = False
    ok = True
    if result.original_n <= DENSE_CAP:
        ran = True
        match = oracle_commutation_matrix(gen_ops) == comm
        ok &= match
        _note(f"oracle: dense commutation check on input generators (n={result.original_n}): "
              + ("ok" if match else "MISMATCH"))
    else:
        _note(f"oracle: dense check on input skipped (n={result.original_n} exceeds cap {DENSE_CAP})")
    if result.q <= DENSE_CAP:
        ran = True
        match = oracle_commutation_matrix(result.compressed_generators) == comm
        ok &= match
        _note(f"oracle: dense commutation check on compressed generators (q={result.q}): "
              + ("ok" if match else "MISMATCH"))
    else:
        _note(f"oracle: dense check on output skipped (q={result.q} exceeds cap {DENSE_CAP})")
    if comm.rows <= SEARCH_CAP:
        ran = True
        match = brute_force_min_registers(comm) == result.q
        ok &= match
        _note(f"oracle: exhaustive minimality check (dim={comm.rows}): "
              + ("ok" if match else "MISMATCH"))
    else:
        _note(f"oracle: minimality search skipped (dim={comm.rows} exceeds cap {SEARCH_CAP})")
    return ran, ok


def _cmd_compress(args) -> int:
    terms = read_collection(args.input)
    result = compress(terms)
    rep = verify_equivalence([t.op for t in terms], [t.op for t in result.images])

    oracle_used = False
    oracle_ok = True
    if args.oracle:
        gen_ops = [terms[i].op for i in result.basis.generator_indices]
        comm = commutation_matrix(gen_ops)
        oracle_used, oracle_ok = _run_oracle_checks(result, gen_ops, comm)

    verification = {
        "pairwise_match": rep.pairwise_match,
        "rank_match": rep.rank_match,
        "oracle_used": oracle_used,
    }
    if args.output:
        write_report(result, args.output, verification)
        _note(f"report written to {args.output}")
    else:
        print(report_text(build_report(result, verification)))
    _note(f"compressed {len(terms)} terms from {result.original_n} to {result.q} registers")

    if args.verify or args.oracle:
        if not (rep.passed and oracle_ok):
            _note("verification FAILED")
            return 1
        _note("verification passed")
    return 0


def _cmd_verify(args) -> int:
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
    if rep.passed:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def _cmd_info(args) -> int:
    terms = read_collection(args.input)
    ops = [t.op for t in terms]
    basis = extract_generators(ops)
    comm = commutation_matrix([ops[i] for i in basis.generator_indices])
    q = min_registers(comm)
    print(
        f"terms={len(terms)} n={ops[0].n} phi_rank={basis.num_generators} "
        f"comm_rank={2 * (comm.rows - q)} min_registers={q}"
    )
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
    except (TermFileError, OSError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
