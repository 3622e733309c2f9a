#!/usr/bin/env python3
"""Run the J2NE serving benchmark on one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke [--bin DIR]

Builds benchmark/ (its own CMake project over ../src, Release) into
build-bench/ on first use, runs build-bench/j2ne_bench for the workload,
and checks that every metric BENCHMARK.json names for the mode is present,
finite and in its unit: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (the trace itself lands in build-bench/traces/).  The
benchmark's own report goes to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.

Exits non-zero, without that line, when the build fails, the run times out,
or a metric is missing; exits non-zero after it when a response failed its
check or a phase was generator-bound.

--smoke runs `j2ne_bench --smoke` (every workload, short phases, traced)
from DIR (default: build-bench/, built first) and checks every end-to-end
and per-layer metric of BENCHMARK.json on every workload.  It is the
`smoke` ctest of the benchmark's CMake project.
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let CMake bring the binaries up to date."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        # Written only by a configure that got as far as generating.
        if not os.path.exists(os.path.join(BUILD, "CMakeFiles", "TargetDirectories.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
            if r.returncode != 0:
                log(f"run.py: build step failed: {' '.join(cmd)}")
                return False
    return True


def reports(stdout):
    """Each workload's report line, by workload name."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith('{"workload"'):
            obj = json.loads(line)
            out[obj["workload"]] = obj
    return out


def checked_metrics(report, wanted):
    """The `wanted` metrics of a report as {name: {value, unit}}, or None
    (after saying which) when one is missing, non-finite or in another unit."""
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            log(f"run.py: {report['workload']}: metric {m['name']} missing, "
                f"non-finite or not in {m['unit']}")
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def run_bench(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run.py: j2ne_bench exceeded {RUN_TIMEOUT_S} s")
        return None
    sys.stdout.write(proc.stdout)
    return proc


def smoke(spec, bin_dir):
    trace = os.path.join(bin_dir, "smoke.trace.json")
    proc = run_bench([os.path.join(bin_dir, "j2ne_bench"), "--smoke", "--seed", "1",
                      "--trace", trace])
    if proc is None:
        return 1
    got = reports(proc.stdout)
    ok = proc.returncode == 0
    checks = 0
    for w in spec["workloads"]:
        if w["name"] not in got:
            log(f"run.py: smoke: no report for {w['name']}")
            ok = False
            continue
        for section in ("end_to_end", "per_layer"):
            ok = checked_metrics(got[w["name"]], spec[section]) is not None and ok
            checks += len(spec[section])
    print(f"smoke: {checks} metric x workload checks against BENCHMARK.json, "
          f"exit {proc.returncode}: {'ok' if ok else 'FAILED'}", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", default="", help="--smoke: directory of a built j2ne_bench")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not args.smoke and args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload}")
        return 2

    if not args.bin:
        try:
            if not build():
                return 1
        except subprocess.TimeoutExpired:
            log("run.py: build timed out")
            return 1
    if args.smoke:
        return smoke(spec, args.bin or BUILD)

    cmd = [os.path.join(BUILD, "j2ne_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}.trace.json"
        cmd += ["--trace", os.path.join(traces, name)]
    proc = run_bench(cmd)
    if proc is None:
        return 1
    report = reports(proc.stdout).get(args.workload)
    if report is None:
        log(f"run.py: j2ne_bench printed no report (exit {proc.returncode})")
        return 1
    metrics = checked_metrics(report, spec["per_layer" if args.trace else "end_to_end"])
    if metrics is None:
        return 1

    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
