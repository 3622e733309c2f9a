#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's median and spread.

    python3 benchmark/spread.py [--runs 10] [--seeds 1,2] [--workloads a,b]
                                [--seconds S] [--out FILE] [--baseline FILE]
                                [--compare FILE]

Each workload runs --runs times through run.py with --trace 0, cycling
through --seeds.  For every metric of the untraced report (the end-to-end
ones and the counters, including timings BENCHMARK.json keeps per-layer) it
prints the median, the quartiles as statistics.quantiles(values, n=4) gives
them, the spread (Q3 - Q1) / median and the largest value, next to the
committed bound of an end-to-end metric.  --out writes all of it as JSON.

--compare FILE checks this set against an earlier one (a previous --out):
for every end-to-end metric on every workload, how much worse this set's
median is than that set's, against the metric's bound.  The verdict is
printed and stored under "compare"; the exit status is 1 when a metric
is worse by more than its bound.

--baseline also runs each workload once with --trace 1 (first seed) and
writes the end-to-end medians plus that run's per-layer metrics.  Both
files record the seeds, nproc, compiler, build type and git sha.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """One run.py run: (its result line, j2ne_bench's report line, wall s)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"spread.py: {' '.join(cmd)} failed (exit {proc.returncode})")
    report = next(json.loads(l) for l in lines if l.startswith('{"workload"'))
    return json.loads(lines[-1]), report, wall


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def compare(result, prev_path, e2e):
    """How much worse each end-to-end median is than in `prev_path`."""
    with open(prev_path) as f:
        prev = json.load(f)
    out = {"against": os.path.relpath(prev_path, ROOT), "ok": True, "workloads": {}}
    print(f"\ncompare with {out['against']} (worse-by > bound fails):")
    for w, rows in result["workloads"].items():
        old_rows = prev["workloads"].get(w, {})
        for m, spec in e2e.items():
            if m not in rows or m not in old_rows:
                continue
            old, new = old_rows[m]["median"], rows[m]["median"]
            change = (new - old) / old if old else 0.0
            worse_by = change if spec["better"] == "lower" else -change
            ok = worse_by <= spec["bound"]
            out["ok"] = out["ok"] and ok
            out["workloads"].setdefault(w, {})[m] = {
                "old": old, "new": new, "worse_by": worse_by, "bound": spec["bound"],
                "ok": ok}
            print(f"  {w:<12} {m:<16} {old:12.6g} -> {new:12.6g}  worse by "
                  f"{worse_by:+7.3f}  bound {spec['bound']:.2f}{'' if ok else '  FAIL'}")
    print(f"compare: {'all within bounds' if out['ok'] else 'OUT OF BOUNDS'}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--baseline", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    if args.runs < 5:
        sys.exit("spread.py: need at least 5 runs for quartiles worth reporting")

    meta = {"seeds": seeds, "runs": args.runs, "seconds": seconds, "git_sha": git_sha(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workload_params": {}}
    result = {"meta": meta, "workloads": {}}
    baseline = {"meta": meta, "workloads": {}}
    walls = []
    for w in names:
        values = {}
        for r in range(args.runs):
            seed = seeds[r % len(seeds)]
            out, report, wall = run_once(w, seed, seconds, 0)
            meta.update({k: report["meta"][k] for k in ("nproc", "compiler", "build_type")})
            meta["workload_params"][w] = {k: report["meta"][k]
                                          for k in ("open_rps", "tail_q")}
            walls.append(wall)
            print(f"{w} run {r + 1}/{args.runs} seed {seed} ({wall:.1f} s): " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                  flush=True)
            for m, v in report["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        print(f"\n{w}: {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'max':>12} {'bound':>6}")
        rows = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = e2e[m]["bound"] if m in e2e else None
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "max": max(vs), "bound": bound, "values": vs}
            flag = ""
            if bound is not None and m != "setup_s":
                flag = ("  > bound" if spread > bound
                        else "  > bound/3" if spread > bound / 3 else "")
            print(f"{'':{len(w) + 2}}{m:<26} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {max(vs):12.6g} "
                  f"{'-' if bound is None else f'{bound:.2f}':>6}{flag}")
        print(flush=True)
        result["workloads"][w] = rows
        if args.baseline:
            out, _, wall = run_once(w, seeds[0], seconds, 1)
            walls.append(wall)
            baseline["workloads"][w] = {
                "end_to_end_median": {m: rows[m]["median"] for m in e2e},
                "per_layer": {k: v["value"] for k, v in out["metrics"].items()},
            }
    meta["run_wall_s"] = {"median": statistics.median(walls), "max": max(walls)}
    print(f"wall time per run: median {meta['run_wall_s']['median']:.1f} s, "
          f"max {meta['run_wall_s']['max']:.1f} s")
    status = 0
    if args.compare:
        result["compare"] = compare(result, args.compare, e2e)
        status = 0 if result["compare"]["ok"] else 1
    for path, doc in ((args.out, result), (args.baseline, baseline)):
        if path:
            with open(path, "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
