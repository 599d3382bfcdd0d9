"""Acceptance gates for the full deliverable.

Each criterion runs at its stated tolerance (exact equality unless noted)
and prints exactly one PASS/FAIL line; run with ``pytest -s`` to see them.

Criterion 1 pins the externally quoted reference transform and minimal
set verbatim.  Two of its sub-checks are expected to stay red: that
quoted data carries a one-bit slip (see reference_example's module
docstring for the replay that isolates it), so the faithful assertions
cannot pass.  The corrected values are covered green in the unit suite.
"""

import itertools
import json
import math
import random
import time

import pytest

from paulicompress import (
    BitMatrix,
    CanonicalForm,
    PauliString,
    WeightedPauli,
    commutation_matrix,
    compress,
    mat_mul,
    min_registers,
    rank,
    symplectic_product,
    symplectic_rank,
    verify_equivalence,
)
from paulicompress.cli import cli_main
from paulicompress.gf2 import congruence_reduce, is_invertible
from paulicompress.io import read_collection, write_collection
from paulicompress.oracle import brute_force_min_registers, oracle_commutation_matrix

import reference_example as ref


def _conclude(num, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({label}): {verdict}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def _random_collection(rng, max_n, max_terms):
    n = rng.randint(1, max_n)
    count = rng.randint(1, max_terms)
    terms = [
        WeightedPauli(
            PauliString.from_string("".join(rng.choice("IXYZ") for _ in range(n))),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        for _ in range(count)
    ]
    if symplectic_rank([t.op for t in terms]) == 0:
        terms[0] = WeightedPauli(PauliString(n, 1, 0), terms[0].weight)
    return terms


def test_criterion_1_reference_example():
    failures = []
    started = time.perf_counter()

    ops = [PauliString.from_string(s) for s in ref.OPS]
    printed = BitMatrix.from_strings(ref.COMM_ROWS)
    comm = commutation_matrix(ops)
    if comm != printed:
        failures.append("computed commutation matrix differs from the quoted one")
    if rank(comm) != 6:
        failures.append(f"rank is {rank(comm)}, want 6")
    if min_registers(comm) != 5:
        failures.append(f"minimal registers {min_registers(comm)}, want 5")

    result = compress([WeightedPauli(op) for op in ops])
    if result.q != 5:
        failures.append(f"pipeline used {result.q} registers, want 5")
    if not verify_equivalence(ops, [t.op for t in result.images]).passed:
        failures.append("pipeline output fails equivalence verification")

    quoted_minimal = [PauliString.from_string(s) for s in ref.MINIMAL_QUOTED]
    if not verify_equivalence(ops, quoted_minimal).passed:
        failures.append(
            "quoted minimal set fails equivalence verification "
            "(sixth member; inherits the transform row-6 slip)"
        )

    quoted_transform = BitMatrix.from_strings(ref.TRANSFORM_QUOTED_ROWS)
    form = CanonicalForm(8, 2, 3, quoted_transform)
    rebuilt = mat_mul(
        mat_mul(quoted_transform, form.canonical_matrix()), quoted_transform.transpose()
    )
    if rebuilt != printed:
        failures.append(
            "quoted transform fails the reconstruction identity "
            "(row 6 is inconsistent with the quoted reduction sequence)"
        )

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _conclude(1, "ten-register reference example", failures)


def test_criterion_2_motivating_pair():
    failures = []
    terms = [
        WeightedPauli(PauliString.from_string("XX")),
        WeightedPauli(PauliString.from_string("IZ")),
    ]
    result = compress(terms)
    if result.q != 1:
        failures.append(f"compressed to {result.q} registers, want exactly 1")
    a, b = (t.op for t in result.images)
    if symplectic_product(a, b) != 1:
        failures.append("output pair does not anticommute")
    _conclude(2, "anticommuting pair onto one register", failures)


def test_criterion_3_formula_versus_exhaustive_search():
    failures = []
    started = time.perf_counter()
    checked = 0
    for d in range(1, 5):
        for combo in itertools.product([0, 1], repeat=d * (d - 1) // 2):
            rows = [0] * d
            k = 0
            for i in range(d):
                for j in range(i + 1, d):
                    if combo[k]:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                    k += 1
            m = BitMatrix(d, d, tuple(rows))
            searched = brute_force_min_registers(m)
            formula = d - rank(m) // 2
            if searched != formula:
                failures.append(f"dim {d} matrix {combo}: search {searched}, formula {formula}")
            checked += 1
    if checked != 1 + 2 + 8 + 64:
        failures.append(f"enumerated {checked} matrices, want 75")
    elapsed = time.perf_counter() - started
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    _conclude(3, "register formula confirmed by exhaustive search", failures)


def test_criterion_4_oracle_concordance():
    failures = []
    mismatches = 0
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        terms = _random_collection(rng, max_n=5, max_terms=10)
        ops = [t.op for t in terms]
        if commutation_matrix(ops) != oracle_commutation_matrix(ops):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} of 200 collections disagree with the dense oracle")
    _conclude(4, "symplectic vs dense-matrix commutation", failures)


def test_criterion_5_compression_properties():
    failures = []
    for seed in range(500):
        rng = random.Random(seed)
        terms = _random_collection(rng, max_n=10, max_terms=24)
        ops = [t.op for t in terms]
        result = compress(terms)
        d = result.basis.num_generators
        gens = [ops[i] for i in result.basis.generator_indices]
        comm_rank = rank(commutation_matrix(gens))
        prefix = f"seed {seed}: "
        if comm_rank % 2 != 0:
            failures.append(prefix + "odd commutation rank")
            break
        if result.q != d - comm_rank // 2:
            failures.append(prefix + f"q={result.q}, formula gives {d - comm_rank // 2}")
            break
        if not (math.ceil(d / 2) <= result.q <= d):
            failures.append(prefix + f"q={result.q} outside [ceil({d}/2), {d}]")
            break
        images = [t.op for t in result.images]
        transported = all(
            symplectic_product(ops[i], ops[j]) == symplectic_product(images[i], images[j])
            for i in range(len(ops))
            for j in range(i + 1, len(ops))
        )
        if not transported:
            failures.append(prefix + "pairwise commutation not preserved across all terms")
            break
        if symplectic_rank([t.op for t in result.images]) != d:
            failures.append(prefix + "independent generator count not preserved")
            break
        if compress(result.images).q != result.q:
            failures.append(prefix + "recompression changed the register count")
            break
    _conclude(5, "500-seed compression property sweep", failures)


def test_criterion_6_congruence_self_check():
    failures = []
    started = time.perf_counter()
    for seed in range(500):
        rng = random.Random(20_000 + seed)
        d = rng.randint(1, 64)
        rows = [0] * d
        for i in range(d):
            for j in range(i + 1, d):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        m = BitMatrix(d, d, tuple(rows))
        form = congruence_reduce(m)
        rebuilt = mat_mul(
            mat_mul(form.transform, form.canonical_matrix()), form.transform.transpose()
        )
        if rebuilt != m:
            failures.append(f"seed {seed}: factorization does not reproduce the input")
            break
        if not is_invertible(form.transform):
            failures.append(f"seed {seed}: transform not invertible")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 30:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _conclude(6, "congruence factorization self-check", failures)


def test_criterion_7_cli_contract(tmp_path, capsys):
    failures = []

    # exact format round trips, both formats
    rng = random.Random(42)
    terms = _random_collection(rng, max_n=6, max_terms=8)
    for suffix in ("pauli", "json"):
        path = tmp_path / f"round.{suffix}"
        write_collection(terms, path)
        if read_collection(path) != terms:
            failures.append(f"{suffix} round trip not exact")

    # info on the reference example
    ref_path = tmp_path / "reference.pauli"
    ref_path.write_text("".join(f"{op}\n" for op in ref.OPS), encoding="utf-8")
    code = cli_main(["info", str(ref_path)])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"info exited {code}")
    for token in ("phi_rank=8", "comm_rank=6", "min_registers=5"):
        if token not in out:
            failures.append(f"info output missing {token}")

    # exit code contract: 0 success, 1 verification failure, 2 usage
    tiny = tmp_path / "tiny.pauli"
    tiny.write_text("0.5 XX\n-1 IZ\n", encoding="utf-8")
    bad_candidate = tmp_path / "bad.pauli"
    bad_candidate.write_text("X\nX\n", encoding="utf-8")
    checks = [
        (["compress", str(tiny), "--verify"], 0),
        (["verify", str(ref_path), str(ref_path)], 0),
        (["verify", str(tiny), str(bad_candidate)], 1),
        (["compress", str(tiny), "--nonsense"], 2),
        (["info", str(tmp_path / "absent.pauli")], 2),
    ]
    for argv, want in checks:
        got = cli_main(argv)
        if got != want:
            failures.append(f"{' '.join(argv[:1])}: exit {got}, want {want}")
    capsys.readouterr()  # discard accumulated CLI output
    _conclude(7, "CLI contract and exit codes", failures)
