#!/usr/bin/env python3
"""Builds x100ir_bench from this checkout, runs one workload, and prints
the run's result as one JSON object on the last line of standard output.

    python3 benchmark/run.py --workload hot_zipf --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The build and every file a run writes
go under $CARGO_TARGET_DIR, or .bench_build when it is unset. With
--trace 0 the result carries BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics (and a span file is written).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; the build before it is separate.
RUN_TIMEOUT_S = 170
# x100ir_bench exits 2 when an output failed its oracle check and 3 when the
# run is invalid: the host stalled the load generator, so the open-loop
# timings partly measure the host. Both runs are still reported: the first
# with "correct": false, the second as it is (the verdict goes to standard
# error and stays in the result file, where `compare` refuses it). An
# invalid run is not repeated: on a host that stalls, a repeat stalls as
# well and only doubles the run's length.
REPORTED_EXITS = (0, 2, 3)


def run(cmd, timeout=None, stdout=None):
    """Runs cmd to completion (killing it on timeout) and returns
    (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, stdout=sys.stderr)
        if code != 0:
            return False
    code, _ = run(["cmake", "--build", build_dir, "--target", "x100ir_bench",
                   "-j", str(os.cpu_count() or 1)], stdout=sys.stderr)
    return code == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(results, stem + ".json")
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [os.path.join(build_dir, "x100ir_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out_path,
           "--data-dir", os.path.join(build_dir, "data")]
    if args.trace:
        # One span file per workload (tens of MB), rewritten by each run.
        cmd += ["--trace", os.path.join(results, args.workload + ".spans.json")]
    try:
        code, out = run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("run.py: x100ir_bench timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if code not in REPORTED_EXITS:
        print("run.py: x100ir_bench exited %d" % code, file=sys.stderr)
        return code

    with open(out_path) as f:
        result = json.load(f)
    if not result["valid"]:
        print("run.py: invalid run: %s" % result["invalid_reason"], file=sys.stderr)
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("run.py: metric %s missing or not in %s" % (m["name"], m["unit"]),
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
