#!/usr/bin/env python3
"""Repeatability check for bench_pipeline.

Runs every workload N times, twice, through run.py and prints, per
(metric, workload), each set's median and interquartile range (IQR) as a
share of the median.  A metric passes when its IQR share stays within its
bound in BENCHMARK.json (setup_s excepted) and the second set's median is
no worse than the first's by more than that bound.  Every run must also
report correct, with no failed operation.

    python3 bench/pipeline/repeat.py                 # 2 x 10 runs, new seeds
    python3 bench/pipeline/repeat.py --runs 5
    python3 bench/pipeline/repeat.py --held-out      # the held-out seed
    python3 bench/pipeline/repeat.py --held-out --trace

Seeds: set 1 uses seeds 1 .. N, set 2 seeds N+1 .. 2N.  With
--held-out every run uses HELD_OUT_SEED, which no tuning of this benchmark
has used; check a claimed gain there before trusting it.  With --trace the
per-layer metrics are compared instead, and when all runs share a seed the
fleet's simulated metrics must agree to the last digit.

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HELD_OUT_SEED = 90001
# Deterministic for a fixed fleet-sampled seed: equal across runs.
FLEET_SIM_METRICS = (
    "runtime.instr_overhead_pct", "profile.call_edge_overlap_pct",
    "profile.field_access_overlap_pct", "runtime.sim_cycles_per_run",
    "runtime.check_execs_per_run", "runtime.samples_per_check",
    "sampling.code_growth_pct", "profstore.shard_bytes")


def run_once(repo, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(repo, "bench/pipeline/run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(command, cwd=repo, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=False)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    """(median, IQR as a share of the median) by statistics.quantiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer" if args.trace else "end_to_end"]

    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(2):
            results = []
            for i in range(args.runs):
                seed = (HELD_OUT_SEED if args.held_out else
                        1 + s * args.runs + i)
                r = run_once(repo, workload, seed, bench["run_seconds"],
                             args.trace)
                if r is None or not r["correct"] or r["failed"]:
                    print("%s seed %d: run failed or incorrect: %s"
                          % (workload, seed, r), file=sys.stderr)
                    ok = False
                    continue
                results.append(r["metrics"])
            sets.append(results)
        if not all(sets):
            ok = False
            continue
        print("\n%s (%d + %d runs)" % (workload, len(sets[0]), len(sets[1])))
        print("  %-36s %14s %8s %14s %8s %7s  %s"
              % ("metric", "median 1", "IQR 1", "median 2", "IQR 2",
                 "bound", "verdict"))
        for spec in specs:
            name = spec["name"]
            m1, s1 = spread([r[name]["value"] for r in sets[0]])
            m2, s2 = spread([r[name]["value"] for r in sets[1]])
            bound = spec.get("bound")
            verdict = "-"
            if bound is not None:
                worse = (m2 - m1 if spec["better"] == "lower" else m1 - m2)
                drift = worse / abs(m1) if m1 else 0.0
                bad = drift > bound or (name != "setup_s" and
                                        max(s1, s2) > bound)
                verdict = "FAIL" if bad else (
                    "ok" if max(s1, s2) <= bound / 3 else "ok (>1/3 bound)")
                ok &= not bad
            print("  %-36s %14.6g %7.2f%% %14.6g %7.2f%% %7s  %s"
                  % (name, m1, 100 * s1, m2, 100 * s2,
                     "%g%%" % (100 * bound) if bound is not None else "",
                     verdict))
        if args.trace and workload == "fleet-sampled" and args.held_out:
            for name in FLEET_SIM_METRICS:
                values = {r[name]["value"] for s in sets for r in s}
                if len(values) != 1:
                    print("  %s differs across runs of one seed: %s"
                          % (name, sorted(values)))
                    ok = False
    print("\nrepeatability: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
