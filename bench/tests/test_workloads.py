"""Generators produce the structure they promise; the tracer nests spans."""

import importlib
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as W
from paulicompress import PauliString, WeightedPauli, compress
from paulicompress.cli import cli_main
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _library_structure(col):
    res = compress([WeightedPauli(PauliString.from_string(p), w) for w, p in col.terms])
    return res.basis.num_generators, 2 * res.canonical.pair_count, res.q


@pytest.mark.parametrize("encoding", ["jw", "bk"])
@pytest.mark.parametrize("n_modes", [1, 2, 3, 5, 8])
def test_majorana_images_are_anticommuting_involutions(encoding, n_modes):
    images = W.majorana_images(n_modes, encoding)
    assert len(images) == 2 * n_modes
    for a, ga in enumerate(images):
        assert W._mul(ga, ga) == (0, 0, 0)  # squares to +1
        for gb in images[a + 1:]:
            ab, ba = W._mul(ga, gb), W._mul(gb, ga)
            assert ab[1:] == ba[1:] and (ab[0] - ba[0]) % 4 == 2  # gamma_a gamma_b = -gamma_b gamma_a


@pytest.mark.parametrize("n_modes", [2, 3, 4, 6])
def test_jw_and_bk_share_the_even_majorana_structure(n_modes):
    want = (2 * n_modes - 1, 2 * n_modes - 2, n_modes)
    for encoding in ("jw", "bk"):
        col = W.molecular("h", n_modes, encoding, seed=7)
        assert (col.phi_rank, col.comm_rank, col.q) == want
        assert W.structure(n_modes, [W.bits_of(p) for _, p in col.terms]) == want
        assert _library_structure(col) == want


@pytest.mark.parametrize("encoding", ["jw", "bk"])
def test_fermionic_terms_are_merged_and_real(encoding):
    col = W.molecular("h", 4, encoding, seed=3)
    strings = [p for _, p in col.terms]
    assert len(set(strings)) == len(strings)
    assert all(w != 0 and isinstance(w, float) for w, _ in col.terms)
    # a real Hamiltonian has only real Pauli strings: an even number of Ys
    assert all(p.count("Y") % 2 == 0 for p in strings)
    assert "I" * 4 not in strings


def test_jw_and_bk_images_differ_but_count_alike():
    jw = W.molecular("h", 6, "jw", seed=1)
    bk = W.molecular("h", 6, "bk", seed=1)
    assert len(jw.terms) == len(bk.terms)
    assert {p for _, p in jw.terms} != {p for _, p in bk.terms}


@pytest.mark.parametrize("n,iso,pairs,extra,dup,ident", [
    (2, 0, 1, 3, False, 0),
    (3, 3, 0, 5, False, 2),
    (8, 2, 1, 20, True, 0),
    (8, 1, 3, 10, False, 4),
    (40, 10, 12, 30, False, 0),
])
def test_planted_collections_have_their_planted_structure(n, iso, pairs, extra, dup, ident):
    col = W.planted("p", n, iso, pairs, extra, random.Random(5), duplicates=dup, identities=ident)
    want = (iso + 2 * pairs, 2 * pairs, iso + pairs)
    assert (col.phi_rank, col.comm_rank, col.q) == want
    assert len(col.terms) == iso + 2 * pairs + extra + ident
    assert W.structure(n, [W.bits_of(p) for _, p in col.terms]) == want
    assert _library_structure(col) == want


def test_workloads_are_seeded():
    assert W.jw_tall(3)[0].terms == W.jw_tall(3)[0].terms
    assert W.jw_tall(3)[0].terms != W.jw_tall(4)[0].terms
    assert W.many_small(3, count=20) == W.many_small(3, count=20)
    assert W.many_small(3, count=20) != W.many_small(4, count=20)


def test_many_small_stays_within_the_oracle_caps():
    for col in W.many_small(11):
        assert 2 <= col.n <= 8 and 2 <= len(col.terms) <= 30 and col.phi_rank <= 4
        assert (col.phi_rank, col.comm_rank) != (4, 0)


def test_tracer_nests_spans_and_restores_names(tmp_path):
    # the package re-exports a function named compress, so fetch the modules
    cli = importlib.import_module("paulicompress.cli")
    comp = importlib.import_module("paulicompress.compress")

    original = (cli.compress, comp.congruence_reduce, PauliString.__dict__["from_string"])
    path = tmp_path / "tiny.pauli"
    path.write_text("0.5 XX\n-1 IZ\n", encoding="utf-8")
    tracer = Tracer()
    with tracer.installed():
        rc = tracer.call("cli.cli_main", cli_main, ["compress", str(path), "-o", str(tmp_path / "r.json")])
        assert tracer.counts["pauli.symplectic_product"] > 0
    assert rc == 0
    assert (cli.compress, comp.congruence_reduce, PauliString.__dict__["from_string"]) == original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.cli_main" and tracer.spans[0][3] == -1
    parent_of = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parent_of["gf2.congruence_reduce"] == "compress.compress"
    assert parent_of["pauli.from_string"] == "io.read_collection"
    assert parent_of["compress.symplectic_rank"] == "compress.verify_equivalence"
    inclusive, own = tracer.totals()
    assert abs(sum(own.values()) - inclusive["cli.cli_main"]) < 1e-9
    assert all(own[name] <= inclusive[name] + 1e-12 for name in own)


def test_benchmark_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "jw_tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
