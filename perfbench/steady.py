#!/usr/bin/env python3
"""Check that two sets of runs of the benchmark agree.

    python3 perfbench/steady.py --workload service [--runs 10] [--first-seed 1]

Runs perfbench/run.py (run_seconds from BENCHMARK.json, --trace 0) for
two sets of --runs seeds each, interleaved: set A takes seeds
first-seed, first-seed+2, ..., set B the seeds between.  Then, per
end-to-end metric, it prints each set's median and interquartile
spread as a share of the median (statistics.quantiles(values, n=4)),
and the shift of set B's median from set A's, in the metric's worse
direction, as a share of set A's.

The exit code is 1 unless the acceptance rule holds: every spread
within the metric's bound (setup_s excepted) and no median shift
worse than the bound.  A spread at or above a third of the bound,
the steadiness this benchmark aims at, is marked "above target"
without failing the check.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"seed {seed}: exit {out.returncode}, result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    sets = {"A": [], "B": []}
    for i in range(2 * args.runs):
        seed = args.first_seed + i
        name = "AB"[i % 2]
        values = run(args.workload, seed, bench["run_seconds"])
        sets[name].append(values)
        print(f"{name} seed {seed}: " + " ".join(
            f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    ok = True
    for m in bench["end_to_end"]:
        a = [v[m["name"]] for v in sets["A"]]
        b = [v[m["name"]] for v in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        sa, sb = spread(a), spread(b)
        shift = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        bound = m["bound"]
        good = shift <= bound and (
            m["name"] == "setup_s" or max(sa, sb) <= bound)
        ok &= good
        target = m["name"] == "setup_s" or max(sa, sb) < bound / 3
        print(f"{m['name']:18s} {m['unit']:4s} median A {ma:10.5g} B {mb:10.5g}"
              f" shift {shift:+6.3f} spread A {sa:5.3f} B {sb:5.3f}"
              f" bound {bound:.2f} {'ok' if good else 'FAIL'}"
              f"{'' if target else ' (above target)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
