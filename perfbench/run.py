#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk-q3 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds the `perfbench` package (this
directory) and the workspace's release `hotdog-worker` into
$CARGO_TARGET_DIR (default: `.bench_build` in the repository root), then
runs one workload.  `HOTDOG_WORKER_BIN` overrides the worker binary.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The exit code is 0 only when every output was correct.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk-q3", "shuffle-q7", "trickle-q3"]
# Seconds one run may take once both binaries are built.
RUN_TIMEOUT = 170


def build(cmd, env):
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build(["cargo", "build", "--release", "--offline", "--manifest-path", manifest], env)
    worker = os.environ.get("HOTDOG_WORKER_BIN")
    if not worker:
        build(["cargo", "build", "--release", "--offline", "-p", "hotdog-worker"], env)
        worker = os.path.join(target, "release", "hotdog-worker")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--worker-bin", worker,
        "--out-dir", os.path.join(HERE, "out"),
    ]
    # Its own process group, so a timeout also stops the worker processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT} s and was stopped")
    sys.stdout.write(out)
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    result = json.loads(out.strip().splitlines()[-1])
    want = declared_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        sys.exit("perfbench: printed metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ set(want))}")


if __name__ == "__main__":
    main()
