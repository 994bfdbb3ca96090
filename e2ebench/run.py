#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload gw_sparse --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
e2ebench/ (the program's libraries from src/ plus the choir_e2ebench
binary) under $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when
that variable is unset; later calls rebuild incrementally. The set-up time
is measured in separate processes (several cold set-ups, median), then one
process runs the workload. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A failed build, a
crash or a failed correctness gate exits non-zero; a failed gate prints its
verdict instead of metrics. See e2ebench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("gw_sparse", "gw_collide", "net_durable", "city_1m")
SETUP_REPEATS = 21  # one sub-ms set-up varies by +-20%; their median is steadier
RUN_TIMEOUT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds choir_e2ebench; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", build_dir, "--target", "choir_e2ebench",
                 "-j", jobs])
    with open(log_path, "a") as out:
        for cmd in cmds:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as f:
                    log("".join(f.readlines()[-30:]))
                log("e2ebench: build failed (%s), see %s" % (" ".join(cmd), log_path))
                return None
    exe = os.path.join(build_dir, "choir_e2ebench")
    return exe if os.path.exists(exe) else None


def run(cmd, timeout_s):
    """Runs cmd to completion (killing it on timeout); returns (rc, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("e2ebench: %s timed out" % cmd[0])
        return 124, out
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    exe = build(root, build_dir)
    if exe is None:
        return 1
    t_start = time.monotonic()  # the time limit excludes the build
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    base = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
            "--repo-root=" + root, "--out-dir=" + out_dir]

    setup = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            rc, out = run(base + ["--setup-only"], 60.0)
            line = out.strip().splitlines()[-1] if out.strip() else ""
            if rc != 0 or not line.startswith("setup_s "):
                log("e2ebench: set-up run failed (rc %d)" % rc)
                return 1
            setup.append(float(line.split()[1]))

    rc, out = run(base + ["--seconds=%g" % args.seconds, "--trace=%d" % args.trace],
                  RUN_TIMEOUT_S - (time.monotonic() - t_start))
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if rc != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        if result is not None:
            print(json.dumps(result))
        log("e2ebench: %s run failed (rc %d)" % (args.workload, rc))
        return 1
    if not args.trace:
        print("# setup_s samples: " + " ".join("%.6f" % s for s in setup))
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
