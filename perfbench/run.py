#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload edge_serve --seed 7 --seconds 45 --trace 0

Builds perfbench/ (the MVQ library from src/ plus the mvq_bench binary)
into .bench_build/, synthesizes the workload's model from the seed in a
separate process, then runs the timed process on it. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, and the spans are written
as Chrome trace-event JSON under .bench_build/traces/. Exits non-zero when
an output check fails or anything cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
DEADLINE_S = 170.0  # a run must end within 180 s, the first build aside


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run(cmd, timeout, env=None):
    """Run cmd with its stdout sent to our stderr; raise on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                   timeout=timeout, check=True)


def build(deadline):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        timeout=max(1.0, deadline - time.monotonic()))
    run(["cmake", "--build", BUILD, "-j", jobs],
        timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(BUILD, "mvq_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # The first run in a checkout builds; later runs find the build done.
    binary = build(time.monotonic() + 850.0)
    deadline = time.monotonic() + DEADLINE_S

    # The program sees only its inputs: no MVQ_* knob leaks in from the
    # caller's environment, so every run uses the library defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MVQ_")}
    workdir = os.path.join(OUT, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", workdir]
        run([binary, "synth"] + common, env=env,
            timeout=max(1.0, deadline - time.monotonic()))
        result_path = os.path.join(workdir, "result.json")
        cmd = [binary, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", result_path]
        if args.trace:
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            trace_path = os.path.join(
                OUT, "traces", f"{args.workload}-seed{args.seed}.json")
            cmd += ["--trace-out", trace_path]
        run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()))
        with open(result_path) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            log(f"run.py: mvq_bench did not report {m['name']}")
            return 1
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    for name, v in metrics.items():
        log(f"  {name:32s} {v['value']:.6g} {v['unit']}")
    if args.trace:
        log(f"  trace written to {trace_path}")
    for problem in result["problems"]:
        log(f"run.py: check failed: {problem}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
