#!/usr/bin/env python3
"""Run the benchmark k times per workload and report how steady each metric is.

Usage::

    python3 bench/steadiness.py --runs 10            # one set, seeds 1..10
    python3 bench/steadiness.py --runs 10 --sets 2   # two sets, seeds 1..10 and 11..20

For every end-to-end metric on every workload it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median beside the metric's bound from BENCHMARK.json.
A spread under a third of the bound is marked ``steady``.  With two sets
it also prints how far the second set's median is worse than the first's,
which must stay within the bound, and compares the share of failed
operations.  Use it to re-derive the bounds on another machine.  The
figures are also written to ``bench/out/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, seconds):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    runs = {}  # (set, workload) -> [result]
    for set_index in range(args.sets):
        for i in range(args.runs):
            seed = 1 + set_index * args.runs + i
            for workload in workloads:  # interleaved, so slow drift hits every workload alike
                result = run_once(spec, workload, seed, seconds)
                if not result["correct"]:
                    print(f"warning: {workload} seed {seed} reported correct=false", file=sys.stderr)
                runs.setdefault((set_index, workload), []).append(result)
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)

    report = []
    header = f"{'workload':16} {'metric':12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict"
    print(header)
    for workload in workloads:
        for m in metrics:
            rows = []
            for set_index in range(args.sets):
                values = [r["metrics"][m["name"]]["value"] for r in runs[(set_index, workload)]]
                s = stats(values)
                verdict = ("steady" if s["spread"] < m["bound"] / 3
                           else "within bound" if s["spread"] <= m["bound"] else "TOO WIDE")
                rows.append(s)
                report.append({"workload": workload, "metric": m["name"], "set": set_index + 1,
                               "values": values, **s, "bound": m["bound"]})
                print(f"{workload:16} {m['name']:12} {set_index + 1:>3} {s['median']:12.6g} "
                      f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:7.3f} {m['bound']:6.2f}  {verdict}")
            if args.sets == 2:
                first, second = rows[0]["median"], rows[1]["median"]
                worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
                ok = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                report.append({"workload": workload, "metric": m["name"], "second_set_worse_by": worse})
                print(f"{workload:16} {m['name']:12} set 2 vs 1: worse by {worse:+.3f} (bound {m['bound']})  {ok}")
        if args.sets == 2:
            shares = [sum(r["failed"] for r in runs[(s, workload)])
                      / sum(r["attempted"] for r in runs[(s, workload)]) for s in range(2)]
            print(f"{workload:16} failed share: set 1 {shares[0]!r}, set 2 {shares[1]!r}  "
                  f"{'ok' if shares[0] == shares[1] else 'DIFFERENT'}")
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
