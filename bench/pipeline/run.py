#!/usr/bin/env python3
"""Build bench_pipeline from source and run one workload.

Run from the repository root:

    python3 bench/pipeline/run.py --workload ingest-small --seed 3 \
        --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/pipeline (default .bench_build/pipeline)
and is incremental, so only the first run pays for it.  The workload's
scratch files (journal segments, shm rendezvous) live under that directory
and are removed when the run ends.  All build output goes to stderr; the
last line of stdout is bench_pipeline's JSON result.  With --trace 1 the
result holds the per-layer metrics and the Chrome trace lands in
<build>/trace-<workload>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("fleet-sampled", "ingest-small", "ingest-wide")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(bench_dir))
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        print("run.py: no src/ beside bench/pipeline; run from a full "
              "checkout", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(repo, target, "pipeline")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "bench_pipeline"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    command = [os.path.join(build, "bench_pipeline"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--workdir=" + os.path.join(build, "work")]
    if args.trace:
        command.append("--trace=" + os.path.join(
            build, "trace-%s.json" % args.workload))
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        print("run.py: bench_pipeline ran past %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    sys.stdout.write(result.stdout.decode())
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
