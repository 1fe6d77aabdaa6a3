#!/usr/bin/env python3
"""polco benchmark: seeded campaigns, single-state analysis and the CLI.

Usage::

    python3 bench/run.py --workload pure-campaigns --seed 1 --seconds 20 --trace 0

Drives polco's public functions and its CLI (``python -m polco.cli``)
from the ``src/`` tree next to this directory, checks every output
against independent recomputations (``oracle.py``) and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics from a traced run.  Every time is process CPU time
(``time.process_time_ns`` here, user + system rusage for child
interpreters); see README.md for why.  A result file with the machine's
``nproc`` and the Python and numpy versions goes to ``bench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, and inherited by every child

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PURE = ("qubit-duality", "qutrit-duality", "qubit-triality", "qutrit-triality", "stokes-geometry")
MIXED = ("pct", "qubit-mixed-triality", "qutrit-mixed-triality")
WORKLOADS = ("pure-campaigns", "mixed-campaigns", "analyze-files")

SAMPLES = 1000  # samples per campaign, in-process and in `polco verify`: the CLI's default --samples
LATENCY_CALLS = 1000  # single-state calls per latency round
CLI_REPEATS = 3  # fresh interpreters per fixed invocation; outputs must be byte-identical
SETUP_PROBES = 9
DEFAULT_TOL = 1e-9  # polco's documented default relation tolerance

# Each relation's check_* and the input the benchmark samples for it:
# (check function, dimension, bipartite split or None).  MIXED relations
# take a density matrix of cycling rank, the others a pure state.
CHECKS = {
    "qubit-duality": ("check_duality_pure", 2, None),
    "qutrit-duality": ("check_duality_pure", 3, None),
    "qubit-triality": ("check_qubit_triality_pure", 4, (2, 2)),
    "qutrit-triality": ("check_qutrit_triality_pure", 9, (3, 3)),
    "stokes-geometry": ("check_pure_stokes_geometry", 3, None),
    "pct": ("check_pct", 2, None),
    "qubit-mixed-triality": ("check_mixed_triality", 2, None),
    "qutrit-mixed-triality": ("check_mixed_triality", 3, None),
}

# Fixed CLI invocations per workload, beside the in-process call that must
# give the same summary.  Seeds are filled in from --seed.
CLI_VERIFY = {
    "pure-campaigns": [(rid, None) for rid in PURE],
    "mixed-campaigns": [(rid, None) for rid in MIXED] + [("qutrit-mixed-triality", 2)],
}
CLI_ANALYZE_DOCS = 9  # the first document of each corpus kind

SETUP_PROBE = """\
import time
t0 = time.process_time_ns()
import polco
polco.run_campaign("pct", 1, 0)
polco.run_campaign("stokes-geometry", 1, 0)
print(time.process_time_ns() - t0)
"""

if not (SRC / "polco" / "__init__.py").is_file():
    sys.exit(f"error: no polco sources at {SRC}; run from a polco checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import polco  # noqa: E402
import polco.cli  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
from spans import NullTracer, Tracer, clock  # noqa: E402

if Path(polco.__file__).resolve().parent != SRC / "polco":
    sys.exit(f"error: imported polco from {polco.__file__}, not from {SRC}")

CHILD_ENV = {k: v for k, v in os.environ.items() if k != "POLCO_SEED"}
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


class Tally:
    """Operations attempted and failed, and every correctness complaint."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what, why):
        self.failed += 1
        self.errors.append(f"{what}: {why}")

    def check(self, what, errors):
        self.errors.extend(f"{what}: {e}" for e in errors)

    @property
    def correct(self):
        return self.failed == 0 and not self.errors


def timed_rounds(budget_s, *round_fns):
    """Alternate whole rounds of ``round_fns`` for ``budget_s`` seconds of wall
    time, after one warm-up round of each and with at least three timed rounds
    of each, so every metric samples the whole window.  Returns one list of
    round results per function."""
    for fn in round_fns:
        fn()
    results = [[] for _ in round_fns]
    deadline = time.perf_counter() + budget_s
    while len(results[0]) < 3 or time.perf_counter() < deadline:
        for fn, out in zip(round_fns, results):
            out.append(fn())
    return results


def round_ns(result):
    return sum(result.values())


def cpu_seconds_of_children():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv, tally, what):
    """Run one fresh interpreter; return (stdout bytes, CPU seconds) or None."""
    tally.attempted += 1
    before = cpu_seconds_of_children()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        tally.fail(what, exc)
        return None
    if proc.returncode != 0:
        tally.fail(what, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return None
    return proc.stdout, cpu_seconds_of_children() - before


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------

class Campaigns:
    def __init__(self, workload, seed, tally):
        self.workload = workload
        self.seed = seed
        self.relations = PURE if workload == "pure-campaigns" else MIXED
        self.items_per_round = SAMPLES * len(self.relations)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA]))
        self.tally = tally
        self.tracer = NullTracer()
        self.checks = {rid: getattr(polco, CHECKS[rid][0]) for rid in self.relations}
        self.slices = []  # (relation, first span, end span, samples) of traced campaigns

    def campaign(self, rid, n, seed, params=None):
        """One run_campaign call: (summary JSON, CPU ns), or None if it raised."""
        self.tally.attempted += 1
        start = self.tracer.mark() if isinstance(self.tracer, Tracer) else None
        try:
            t0 = clock()
            with self.tracer.span("relations.run_campaign"):
                summary = polco.run_campaign(rid, n, seed, params=params)
            elapsed = clock() - t0
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.tally.fail(f"run_campaign({rid}, seed={seed})", repr(exc))
            return None
        if start is not None:
            self.slices.append((rid, start, self.tracer.mark(), n))
        doc = polco.summary_to_json(summary)
        self.tally.check(f"run_campaign({rid}, seed={seed})",
                         oracle.summary_errors(doc, rid, n, seed, DEFAULT_TOL))
        return doc, elapsed

    def throughput_round(self):
        """One campaign of SAMPLES per relation: {relation: CPU ns}."""
        times = {}
        for rid in self.relations:
            result = self.campaign(rid, SAMPLES, int(self.rng.integers(2**31)))
            if result is not None:
                times[rid] = result[1]
        return times

    def latency_round(self):
        """LATENCY_CALLS check_* calls on single sampled inputs: list of CPU ns."""
        per_relation = -(-LATENCY_CALLS // len(self.relations))
        inputs = []
        for rid in self.relations:
            _, dim, split = CHECKS[rid]
            for i in range(per_relation):
                if rid in MIXED:
                    sample = arg = corpus.random_density(self.rng, dim, i % dim + 1)
                else:
                    sample = corpus.random_unit(self.rng, dim)
                    arg = polco.StateVector(sample, split=split)
                inputs.append((rid, arg, sample, split))
        times, verdicts = [], []
        for rid, arg, _, _ in inputs:
            self.tally.attempted += 1
            try:
                t0 = clock()
                with self.tracer.span("relations.check"):
                    verdict = self.checks[rid](arg)
                times.append(clock() - t0)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                self.tally.fail(f"{CHECKS[rid][0]} ({rid})", repr(exc))
                verdict = None
            verdicts.append(verdict)
        for (rid, _, sample, split), verdict in zip(inputs, verdicts):
            if verdict is not None:
                self.tally.check(f"{CHECKS[rid][0]} ({rid})",
                                 oracle.verdict_errors(verdict, rid, sample, split))
        return times

    def cli_configs(self):
        """[(argv, expected summary JSON, in-process CPU ns)] for the fixed `polco verify` calls."""
        configs = []
        for index, (rid, rank) in enumerate(CLI_VERIFY[self.workload]):
            cli_seed = self.seed * 100 + index
            argv = ["verify", "--relation", rid, "--samples", str(SAMPLES), "--seed", str(cli_seed)]
            params = None
            if rank is not None:
                argv += ["--rank", str(rank)]
                params = {"rank": rank}
            configs.append((argv, *(self.campaign(rid, SAMPLES, cli_seed, params) or (None, None))))
        return configs


# ---------------------------------------------------------------------------
# analyze-files workload
# ---------------------------------------------------------------------------

class Documents:
    def __init__(self, paths, tally):
        self.paths = paths
        self.items_per_round = len(paths)
        self.docs = {path: json.loads(path.read_text()) for path in paths}
        self.tally = tally

    def analyze(self, path):
        """Run `polco analyze --input PATH` in this process, through the CLI's
        own ``main``; return what it prints."""
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = polco.cli.main(["analyze", "--input", str(path)])
        if code != 0:
            raise RuntimeError(f"polco analyze exited {code}")
        return out.getvalue()

    def verify(self, path, rendered):
        try:
            report = oracle.strict_loads(rendered)
        except ValueError as exc:
            self.tally.check(path.name, [f"report is not strict JSON: {exc}"])
            return None
        self.tally.check(path.name, oracle.report_errors(report, self.docs[path]))
        return report

    def _run(self, path):
        """Analyze one document as one operation: (text, CPU ns), or None if it raised."""
        self.tally.attempted += 1
        try:
            t0 = clock()
            rendered = self.analyze(path)
            return rendered, clock() - t0
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.tally.fail(f"analyze {path.name}", repr(exc))
            return None

    def _pass(self):
        t0 = clock()
        results = [(path, self._run(path)) for path in self.paths]
        elapsed = clock() - t0
        for path, result in results:
            if result is not None:
                self.verify(path, result[0])
        return elapsed, [result[1] for _, result in results if result is not None]

    def throughput_round(self):
        return {"documents": self._pass()[0]}

    def latency_round(self):
        return self._pass()[1]

    def cli_configs(self):
        """[(argv, expected report, in-process CPU ns)] for the fixed `polco analyze` calls."""
        configs = []
        for path in self.paths[:CLI_ANALYZE_DOCS]:
            rendered, elapsed = self._run(path) or (None, None)
            expected = None if rendered is None else self.verify(path, rendered)
            configs.append((["analyze", "--input", str(path)], expected, elapsed))
        return configs


def make_work(workload, seed, tally):
    if workload == "analyze-files":
        return Documents(corpus.write_corpus(seed, OUT / "corpus"), tally)
    return Campaigns(workload, seed, tally)


# ---------------------------------------------------------------------------
# Fresh-interpreter measurements
# ---------------------------------------------------------------------------

def cli_round(configs, repeats, tally):
    """Run each fixed invocation ``repeats`` times: [(CPU s per run, in-process ns)]."""
    results = []
    for argv, expected, inproc_ns in configs:
        what = "polco " + " ".join(argv)
        runs = [run_child([sys.executable, "-m", "polco.cli", *argv], tally, what)
                for _ in range(repeats)]
        runs = [r for r in runs if r is not None]
        if not runs:
            continue
        if any(out != runs[0][0] for out, _ in runs):
            tally.check(what, ["output differs between two identical invocations"])
        try:
            got = oracle.strict_loads(runs[0][0])
        except ValueError as exc:
            tally.check(what, [f"output is not strict JSON: {exc}"])
        else:
            if expected is None or got != expected:
                tally.check(what, ["output differs from the in-process result"])
        results.append(([cpu for _, cpu in runs], inproc_ns))
    return results


def setup_seconds(tally):
    """Median CPU time of `import polco` plus the cache-filling first calls."""
    times = []
    for _ in range(SETUP_PROBES):
        result = run_child([sys.executable, "-c", SETUP_PROBE], tally, "setup probe")
        if result is not None:
            try:
                times.append(int(result[0]) / 1e9)
            except ValueError:
                tally.check("setup probe", [f"unexpected output {result[0][:80]!r}"])
    return statistics.median(times) if times else float("nan")


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end(workload, seed, seconds, tally):
    setup_s = setup_seconds(tally)
    work = make_work(workload, seed, tally)
    rounds, latency = timed_rounds(seconds, work.throughput_round, work.latency_round)
    cli = cli_round(work.cli_configs(), CLI_REPEATS, tally)
    calls = [ns for r in latency for ns in r]
    # The p99 swings with the host's load more than any bound can hold, so it
    # is kept in the result file as a reference figure, not gated.
    reference = {"call_p99_us": float(np.percentile(calls, 99)) / 1e3, "latency_calls": len(calls)}
    return {
        "items_per_s": work.items_per_round / (statistics.median(map(round_ns, rounds)) / 1e9),
        "call_p50_us": statistics.median(float(np.percentile(r, 50)) for r in latency) / 1e3,
        "cli_cpu_s": statistics.mean(statistics.median(cpus) for cpus, _ in cli) if cli else float("nan"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"reference": reference}


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

COUNTED = ("linalg.validate_density", "linalg.wedge_norm_sq", "basis.stacked")
INCLUSIVE_US = (
    "states.haar_pure", "states.random_mixed",
    "linalg.validate_density", "linalg.partial_trace", "linalg.fingerprint",
    "measures.predictability_sq", "measures.coherence_hs_sq", "measures.linear_entropy_sq",
    "measures.degree_pol_sq", "measures.i_concurrence_sq", "measures.concurrence_2x2",
    "measures.measure_report",
    "basis.stokes_extract", "basis.pure_state_constraints",
)


def seed_stream_costs(seed, reps=20):
    """Isolated SeedSequence.spawn and default_rng costs, ns per sample."""
    spawn, rng = [], []
    for rep in range(reps):
        t0 = clock()
        streams = np.random.SeedSequence([seed, rep]).spawn(SAMPLES)
        t1 = clock()
        for stream in streams:
            np.random.default_rng(stream)
        t2 = clock()
        spawn.append((t1 - t0) / SAMPLES)
        rng.append((t2 - t1) / SAMPLES)
    return statistics.median(spawn), statistics.median(rng)


def traced(workload, seed, seconds, tally, declared):
    metrics = dict.fromkeys(declared, 0.0)  # a layer the workload never reaches reads 0
    work = make_work(workload, seed, tally)
    campaigns = isinstance(work, Campaigns)
    (rounds,) = timed_rounds(0.4 * seconds, work.throughput_round)
    untraced_ns = statistics.median(map(round_ns, rounds))
    if campaigns:
        for rid in work.relations:
            rid_ns = statistics.median(r[rid] for r in rounds if rid in r)
            metrics[f"relations.samples_per_s.{rid}"] = SAMPLES / (rid_ns / 1e9)
        spawn_ns, rng_ns = seed_stream_costs(seed)
        metrics["relations.spawn_us_per_sample"] = spawn_ns / 1e3
        metrics["relations.rng_us_per_sample"] = rng_ns / 1e3

    tracer = Tracer()
    tracer.instrument(polco)
    if campaigns:
        work.tracer = tracer
    try:
        begin = tracer.mark()
        (traced_rounds,) = timed_rounds(0.4 * seconds, work.throughput_round)
        end = tracer.mark()
        if campaigns:
            timed_rounds(0.2 * seconds, work.latency_round)
    finally:
        tracer.restore()
        if campaigns:
            work.tracer = NullTracer()

    items = work.items_per_round * (len(traced_rounds) + 1)  # the warm-up round is traced too
    totals = tracer.summary(begin, end)
    for name in INCLUSIVE_US:
        metrics[f"{name}_us"] = totals[name][1] / items / 1e3
    metrics["linalg.json_parse_us"] = sum(
        totals[f"linalg.{fn}"][1] for fn in ("matrix_from_json", "state_from_json")) / items / 1e3
    metrics["measures.self_us_per_sample"] = sum(
        v[2] for k, v in totals.items() if k.startswith("measures.")) / items / 1e3
    metrics["cli.render_ms"] = totals["cli.render"][1] / items / 1e6
    if campaigns:
        metrics["relations.loop_self_us"] = totals["relations.run_campaign"][2] / items / 1e3
        checks = tracer.summary(end, tracer.mark())["relations.check"]
        metrics["relations.check_self_us"] = checks[2] / max(checks[0], 1) / 1e3
        calls, samples = defaultdict(int), defaultdict(int)
        for rid, first, last, n in work.slices:
            part = tracer.summary(first, last)
            samples[rid] += n
            for name in COUNTED:
                calls[name, rid] += part[name][0]
        for (name, rid), count in calls.items():
            metrics[f"{name}_calls_per_sample.{rid}"] = count / samples[rid]
    else:
        for name in COUNTED:
            metrics[f"{name}_calls_per_doc"] = totals[name][0] / items

    # CLI overhead: fresh-interpreter CPU time minus the in-process time of the same work.
    cli = cli_round(work.cli_configs(), 1, tally)
    overheads = [statistics.median(cpus) - inproc_ns / 1e9 for cpus, inproc_ns in cli if inproc_ns is not None]
    metrics["cli.overhead_s"] = statistics.mean(overheads) if overheads else float("nan")

    tracer.dump(OUT / f"spans-{workload}.json")
    return metrics, {"trace_overhead_pct": 100.0 * (statistics.median(map(round_ns, traced_rounds))
                                                    / untraced_ns - 1.0),
                     "spans": tracer.mark()}


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description="polco benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    if args.trace:
        values, extra = traced(args.workload, args.seed, args.seconds, tally, declared)
    else:
        values, extra = end_to_end(args.workload, args.seed, args.seconds, tally)
    if set(values) != set(declared):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json")
    if not all(np.isfinite(v) for v in values.values()):
        sys.exit(f"error: no measurement for {[k for k, v in values.items() if not np.isfinite(v)]}; "
                 f"first failures: {tally.errors[:3]}")
    for error in tally.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "polco": getattr(polco, "__version__", "unknown"),
        "clock": "process CPU time", "errors": tally.errors[:100], **extra, "result": result,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
