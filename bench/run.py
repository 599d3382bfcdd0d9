"""paulicompress benchmark: seeded workloads, end-to-end timings, traced layers.

Run from the repository root:

    python3 bench/run.py --workload jw_tall --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38

One run generates the workload from ``--seed``, writes its input files
under ``.bench_work/``, then measures for ``--seconds`` seconds.  With
``--trace 0`` it cycles through the workload's collections one step at a
time; a step times the CLI command ``paulicompress compress <input>
--verify -o <report>`` (plus ``--oracle`` on many_small) in process
through ``cli_main``, then the library's ``compress`` on the pre-parsed
terms and ``verify_equivalence`` on the original and compressed
operators, so every stage is sampled all through the run.  Each
end-to-end timing is the sum over the workload's collections of each
collection's fastest sample: on a shared host, slow spells only add
time, and the fastest of many short samples is what repeats from run to
run.  ``setup_s`` is the median of several set-ups, most of them in
fresh processes.  With ``--trace 1`` a round
alternates an untraced and a traced CLI pass and the per-layer metrics
come from the traced spans (see ``tracing.py``).  Every operation's
output is checked; the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, traced and untraced, one child
process at a time.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the dense oracle must not turn
# scheduler noise on a small machine into timing noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MODULES = ("pauli", "gf2", "compress", "oracle", "io", "cli")
# set-ups repeated in fresh processes, spread evenly through the run;
# setup_s is the median of these and the run's own set-up
SETUP_CHILDREN = 10
PAIR_SAMPLE = 2000
REPEAT_SHARE = 0.25  # library stages repeat for this share of their step's CLI time
# frozen examples from demos/data: (file, extra flags, q, comm_rank, phi_rank); the
# dense oracle on ten registers multiplies 1024x1024 matrices for seconds, so it is skipped
SMOKE = [("ten_register_sample.pauli", [], 5, 6, 8), ("tiny.pauli", ["--oracle"], 1, 2, 2)]


class Op:
    """One collection: its files, expected answer and pairing sample."""

    def __init__(self, col: workloads.Collection, directory: Path, oracle: bool, rng: random.Random):
        self.col = col
        self.path = col.write(directory)
        self.report = directory / f"{col.name}.report.json"
        self.oracle = oracle
        self.masks = [workloads.bits_of(p) for _, p in col.terms]
        self.weights = [[w, 0.0] for w, _ in col.terms]
        m = len(col.terms)
        all_pairs = m * (m - 1) // 2
        if all_pairs <= PAIR_SAMPLE:
            self.pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        else:
            self.pairs = [tuple(rng.sample(range(m), 2)) for _ in range(PAIR_SAMPLE)]

    def argv(self) -> list[str]:
        extra = ["--oracle"] if self.oracle else []
        return ["compress", str(self.path), "--verify", "-o", str(self.report)] + extra

    def check_cli(self, rc: int, stderr: str) -> list[str]:
        """Problems with one CLI run's exit code, messages and report."""
        where = self.col.name
        if rc != 0 or "verification passed" not in stderr:
            return [f"{where}: exit {rc}: {stderr.strip()[-200:]}"]
        rep = json.loads(self.report.read_text(encoding="utf-8"))
        want = (self.col.n, self.col.q, self.col.phi_rank, self.col.comm_rank)
        got = tuple(rep.get(k) for k in
                    ("original_registers", "compressed_registers", "phi_rank", "comm_rank"))
        problems = [] if got == want else [f"{where}: (n, q, phi_rank, comm_rank) {got} != {want}"]
        terms = rep.get("compressed_terms", [])
        if [t["weight"] for t in terms] != self.weights:
            return problems + [f"{where}: compressed terms or weights differ from the input"]
        out = [workloads.bits_of(t["pauli"]) for t in terms]
        bad = sum(workloads.pairing(self.masks[i], self.masks[j]) != workloads.pairing(out[i], out[j])
                  for i, j in self.pairs)
        if bad:
            problems.append(f"{where}: {bad} of {len(self.pairs)} sampled pairings changed")
        ver = rep.get("verification", {})
        if not (ver.get("pairwise_match") and ver.get("rank_match")):
            problems.append(f"{where}: report verification block {ver}")
        if self.oracle and ver.get("oracle_used") is not True:
            problems.append(f"{where}: oracle_used is not true")
        return problems


def run_cli(cli_main, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stderr, seconds) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t = time.perf_counter()
        rc = cli_main(argv)
        took = time.perf_counter() - t
    return rc, err.getvalue(), took


class Run:
    """One benchmark run: set-up, measured rounds and the operation tally."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    # ---------------------------------------------------------------- setup
    def setup(self) -> float:
        """Import, generate, write and parse the workload, run its first
        collection once through the CLI; returns the seconds taken."""
        t = time.perf_counter()
        sys.path.insert(0, str(SRC))
        from paulicompress import compress, verify_equivalence
        from paulicompress.cli import cli_main
        from paulicompress.io import read_collection
        if SRC not in Path(sys.modules["paulicompress"].__file__).resolve().parents:
            raise RuntimeError(f"paulicompress was not imported from {SRC}")
        self.cli_main, self.compress, self.verify = cli_main, compress, verify_equivalence

        a = self.args
        self.dir = WORK / f"{a.workload}-seed{a.seed}-trace{a.trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        rng = random.Random(f"pairs:{a.seed}")
        make = workloads.WORKLOADS[a.workload]
        self.ops = [Op(c, self.dir, a.workload == "many_small", rng) for c in make(a.seed)]
        self.parsed = [read_collection(op.path) for op in self.ops]
        # the first in-process run pays lazy imports and allocator growth
        op = self.ops[0]
        rc, err, _ = run_cli(cli_main, op.argv())
        took = time.perf_counter() - t
        self.tally(op.check_cli(rc, err))
        return took

    def smoke(self) -> None:
        """Frozen examples through the CLI; untimed, failures count."""
        for name, flags, q, comm_rank, phi_rank in SMOKE:
            path = ROOT / "demos" / "data" / name
            report = self.dir / f"smoke-{name}.report.json"
            rc, err, _ = run_cli(self.cli_main,
                                 ["compress", str(path), "--verify", "-o", str(report)] + flags)
            problems = []
            if rc != 0 or "verification passed" not in err:
                problems.append(f"smoke {name}: exit {rc}: {err.strip()[-200:]}")
            else:
                rep = json.loads(report.read_text(encoding="utf-8"))
                got = (rep["compressed_registers"], rep["comm_rank"], rep["phi_rank"])
                if got != (q, comm_rank, phi_rank):
                    problems.append(f"smoke {name}: (q, comm_rank, phi_rank) {got}")
            self.tally(problems)

    # --------------------------------------------------------------- rounds
    def cli_pass(self, cli_main=None) -> tuple[list[float], list[list[str]], list[str]]:
        """(seconds, problems) per collection and all stderr lines of one CLI pass."""
        gc.collect()
        times, problems = [], []
        lines: list[str] = []
        for op in self.ops:
            rc, err, took = run_cli(cli_main or self.cli_main, op.argv())
            times.append(took)
            problems.append(op.check_cli(rc, err))
            lines += err.splitlines()
        return times, problems, lines

    def check_library(self, op: Op, terms, res, rep) -> list[str]:
        found = []
        if res.q != op.col.q or not rep.passed:
            found.append(f"{op.col.name}: library q={res.q} verify passed={rep.passed}")
        if [x.weight for x in res.images] != [x.weight for x in terms]:
            found.append(f"{op.col.name}: library weights changed")
        return found

    def rounds(self, one_round) -> None:
        """Repeat ``one_round`` until the next one would overrun --seconds."""
        deadline = time.perf_counter() + self.args.seconds
        while True:
            t = time.perf_counter()
            one_round()
            if time.perf_counter() + (time.perf_counter() - t) > deadline:
                return

    def measure(self, setup_s: float) -> tuple[dict, dict]:
        """Steps of one collection each, cycling through the workload.

        A step runs the CLI once, then ``compress`` and ``verify_equivalence``
        on the same collection, each repeated until it has run for
        REPEAT_SHARE of that CLI time; half of the ``compress`` repeats come
        after ``verify_equivalence``.  So every stage is sampled all through
        the run, not in bursts.  A timing is the sum over collections of
        each collection's fastest sample.  Between steps, SETUP_CHILDREN
        set-ups run in fresh processes at even intervals, so ``setup_s``
        samples the host all through the run too.
        """
        samples = {name: [[] for _ in self.ops] for name in ("cli_s", "compress_s", "verify_s")}

        def repeat(name, i, budget, fn, *args):
            spent = 0.0
            while True:
                t = time.perf_counter()
                out = fn(*args)
                took = time.perf_counter() - t
                samples[name][i].append(took)
                spent += took
                if spent >= budget:
                    return out

        def step(i):
            op, terms = self.ops[i], self.parsed[i]
            rc, err, cli_s = run_cli(self.cli_main, op.argv())
            samples["cli_s"][i].append(cli_s)
            budget = REPEAT_SHARE * cli_s
            res = repeat("compress_s", i, budget / 2, self.compress, terms)
            rep = repeat("verify_s", i, budget, self.verify,
                         [x.op for x in terms], [x.op for x in res.images])
            repeat("compress_s", i, budget / 2, self.compress, terms)
            self.tally(op.check_cli(rc, err) + self.check_library(op, terms, res, rep))

        setups = [setup_s]
        start = time.perf_counter()
        deadline = start + self.args.seconds
        for k in itertools.count():
            due = start + (len(setups) - 0.5) * self.args.seconds / SETUP_CHILDREN
            if len(setups) <= SETUP_CHILDREN and time.perf_counter() >= due:
                setups.append(setup_in_child(self.args))
            i = k % len(self.ops)
            if i == 0:
                gc.collect()
            t = time.perf_counter()
            step(i)
            # stop once every collection has run and the next step would overrun
            if k + 1 >= len(self.ops) and time.perf_counter() + (time.perf_counter() - t) > deadline:
                break
        while len(setups) <= SETUP_CHILDREN:
            setups.append(setup_in_child(self.args))
        metrics = {name: (total_of_bests(xs), "s") for name, xs in samples.items()}
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return metrics, samples

    def measure_traced(self) -> tuple[dict, dict]:
        tracer = Tracer()
        traced_main = lambda argv: tracer.call("cli.cli_main", self.cli_main, argv)  # noqa: E731

        def one_round():
            plain_s, problems, _ = self.cli_pass()
            for found in problems:
                self.tally(found)
            first = len(tracer.spans)
            with tracer.installed(counts=False):
                traced_s, problems, lines = self.cli_pass(traced_main)
            for found in problems:
                self.tally(found)
            return plain_s, traced_s, self.layer_metrics(tracer, first, sum(traced_s), calls, lines)

        # counting costs about 0.5 us a call, so it gets a pass of its own
        # and inflates no span
        with tracer.installed(spans=False):
            _, problems, _ = self.cli_pass()
        calls = tracer.counts["pauli.symplectic_product"]
        for found in problems:
            self.tally(found)
        rounds = []
        self.rounds(lambda: rounds.append(one_round()))
        plain_s = [list(xs) for xs in zip(*(r[0] for r in rounds))]
        traced_s = [list(xs) for xs in zip(*(r[1] for r in rounds))]
        metrics = {name: (statistics.median_low(r[2][name][0] for r in rounds), unit)
                   for name, (_, unit) in rounds[0][2].items()}
        metrics["trace.overhead_s"] = (total_of_bests(traced_s) - total_of_bests(plain_s), "s")
        self.spans = tracer.spans
        return metrics, {"cli_s": plain_s, "traced_cli_s": traced_s}

    def layer_metrics(self, tracer, first, traced_s, calls, stderr_lines) -> dict:
        """Per-layer figures of the traced pass whose spans start at ``first``."""
        inclusive, own = tracer.totals(first)
        reports = [json.loads(op.report.read_text(encoding="utf-8")) for op in self.ops]

        def total(key):
            return sum(r.get(key, 0) for r in reports)

        oracle_lines = [ln for ln in stderr_lines if ln.startswith("oracle:")]
        skipped = sum("skipped" in ln for ln in oracle_lines)
        return {
            "compress.extract_s": (own["compress.extract_generators"], "s"),
            "compress.gram_s": (own["compress.commutation_matrix"], "s"),
            "gf2.congruence_s": (own["gf2.congruence_reduce"], "s"),
            "gf2.rank_s": (own["gf2.rank"], "s"),
            "compress.realize_s": (own["compress.canonical_generators"]
                                   + own["compress.apply_basis_change"], "s"),
            "compress.rebuild_s": (own["compress.compress"], "s"),
            "compress.compress_span_s": (inclusive["compress.compress"], "s"),
            "compress.verify_pairwise_s": (own["compress.verify_equivalence"], "s"),
            "compress.symplectic_rank_s": (inclusive["compress.symplectic_rank"], "s"),
            "pauli.symplectic_product_calls": (calls, "count"),
            "io.read_s": (own["io.read_collection"], "s"),
            "pauli.from_string_s": (own["pauli.from_string"], "s"),
            "io.input_bytes": (sum(op.path.stat().st_size for op in self.ops), "bytes"),
            "io.write_report_s": (own["io.build_report"] + own["io.write_report"], "s"),
            "io.report_bytes": (sum(op.report.stat().st_size for op in self.ops), "bytes"),
            "cli.other_s": (own["cli.cli_main"], "s"),
            "cli.traced_s": (traced_s, "s"),
            "oracle.search_s": (own["oracle.brute_force_min_registers"], "s"),
            "oracle.dense_s": (own["oracle.oracle_commutation_matrix"], "s"),
            "oracle.checks_run": (len(oracle_lines) - skipped, "count"),
            "oracle.checks_skipped": (skipped, "count"),
            "compress.terms": (sum(len(r.get("compressed_terms", [])) for r in reports), "count"),
            "compress.registers_in": (total("original_registers"), "count"),
            "compress.generators": (total("phi_rank"), "count"),
            "gf2.comm_rank": (total("comm_rank"), "count"),
            "compress.registers_out": (total("compressed_registers"), "count"),
            **{f"{m}.src_lines": (src_lines(m), "lines") for m in MODULES},
        }


def setup_in_child(args) -> float:
    """Seconds one set-up takes in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def total_of_bests(per_collection: list[list[float]]) -> float:
    """Sum over collections of each collection's fastest seconds."""
    return sum(min(times) for times in per_collection)


def total_of_medians(per_collection: list[list[float]]) -> float:
    """Sum over collections of each collection's median seconds."""
    return sum(statistics.median(times) for times in per_collection)


def src_lines(module: str) -> int:
    path = SRC / "paulicompress" / f"{module}.py"
    return len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else 0


def blas_threads(numpy):
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "paulicompress").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(numpy),
    }


def share_lines(m: dict) -> list[str]:
    """The traced shares that justify each workload's choice."""
    v = {k: val for k, (val, _) in m.items()}
    shares = [
        ("verify self / traced cli", v["compress.verify_pairwise_s"], v["cli.traced_s"],
         "jw_tall", 0.90),
        ("(gram + congruence) / compress span", v["compress.gram_s"] + v["gf2.congruence_s"],
         v["compress.compress_span_s"], "wide_planted", 0.60),
        ("oracle / traced cli", v["oracle.search_s"] + v["oracle.dense_s"], v["cli.traced_s"],
         "many_small", 0.60),
    ]
    return [f"share {label} = {part / whole if whole else float('nan'):.3f} ({wl} wants >= {want})"
            for label, part, whole, wl, want in shares]


def run_one(args) -> int:
    if not (SRC / "paulicompress" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'paulicompress'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: run from a checkout that holds BENCHMARK.json", file=sys.stderr)
        return 2
    run = Run(args)
    setup_s = run.setup()
    if args.setup_only:
        shutil.rmtree(run.dir, ignore_errors=True)
        print(setup_s if run.failed == 0 else "failed")
        return 0 if run.failed == 0 else 1
    run.smoke()
    if args.trace:
        metrics, samples = run.measure_traced()
    else:
        metrics, samples = run.measure(setup_s)
    env = environment(args.seed)
    shutil.rmtree(run.dir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"collections={len(run.ops)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, per_collection in samples.items():
        counts = [len(times) for times in per_collection]
        print(f"samples {name} per collection n={min(counts)}..{max(counts)} "
              f"total of medians {total_of_medians(per_collection):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        for line in share_lines(metrics):
            print(line)
    error_rate = run.failed / run.attempted
    print(f"error_rate {error_rate:.6g} ({run.failed} failed of {run.attempted} operations)")
    for problem in run.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)

    WORK.mkdir(exist_ok=True)
    record = {"env": env, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "samples": samples, "metrics": {k: v for k, (v, _) in metrics.items()}}
    if args.trace:
        root: list[int] = []
        for sid, (_, _, _, parent) in enumerate(run.spans):
            root.append(sid if parent < 0 else root[parent])
        record["spans"] = {"fields": ["name", "start", "end", "parent", "root"],
                           "rows": [s + [r] for s, r in zip(run.spans, root)]}
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
