#!/usr/bin/env python3
"""Steadiness check of the StormTrack benchmark.

Runs every workload in two sets of runs, each run with its own --seed
(set s, run i uses SEED_BASE + 1000 * s + i), and reports for every
end-to-end metric on every workload the median, the quartiles
(statistics.quantiles(values, n=4)) and the sample count of each set, the
spread (q3 - q1) / median, and whether

  * each set's spread stays within the metric's bound from BENCHMARK.json,
    and
  * the two sets' medians differ, in either direction, by no more than the
    bound.

Both checks apply to every metric, setup_s included. Spreads above a third
of the bound are flagged as margin warnings. A run that exits non-zero (a
result mismatch exits 1) stops the tool; failed operations of a correct
run are recorded and show in ok_frac. The raw values are written as JSON so the
bounds can be traced back to them.

    python3 stormbench/steadiness.py [--runs 10] [--workloads a,b] [--out FILE]
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
SETS = 2
SEED_BASE = 11000


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, done.returncode, done.stdout[-2000:], done.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["stamp"] = next((json.loads(l[len("stamp: "):]) for l in lines
                            if l.startswith("stamp: ")), None)
    return result, elapsed

def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", help="JSON file for the raw values")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    if not workloads:
        parser.error("--workloads names no workload of BENCHMARK.json")
    metrics = bench["end_to_end"]
    raw = {w: [[] for _ in range(SETS)] for w in workloads}
    elapsed = []
    stamp = None
    # Build once up front so no timed run pays for it.
    subprocess.run(list(bench["command"]) + ["--workload", workloads[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                   cwd=ROOT, capture_output=True)
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:  # interleaved, so drift spreads over every workload
                seed = SEED_BASE + 1000 * s + i
                result, took = run_once(bench, w, seed)
                elapsed.append(took)
                stamp = stamp or result["stamp"]
                raw[w][s].append({"seed": seed, "attempted": result["attempted"],
                                  "failed": result["failed"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print("set %d run %d %-18s seed %d  failed %d  %.1fs" % (
                    s, i, w, seed, result["failed"], took), flush=True)

    command = "python3 stormbench/steadiness.py --runs %d" % args.runs
    if args.workloads:
        command += " --workloads " + args.workloads
    report = {"stamp": stamp, "command": command,
              "run_seconds": bench["run_seconds"], "runs_per_set": args.runs,
              "sets": SETS, "seed_base": SEED_BASE,
              "mean_run_wall_s": statistics.mean(elapsed), "workloads": {}}
    ok = True
    print()
    print("%-18s %-14s %5s %12s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "bound", "median1", "median2", "q3-q1(1)", "spread1",
        "spread2", "verdict"))
    for w in workloads:
        report["workloads"][w] = {"runs": raw[w], "metrics": {}}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r["metrics"][name] for r in runs]) for runs in raw[w]]
            verdicts = []
            for k, st in enumerate(sets):
                if st["spread"] > bound:
                    verdicts.append("set%d spread over bound" % (k + 1))
                elif st["spread"] > bound / 3:
                    verdicts.append("set%d spread over bound/3 (margin)" % (k + 1))
            a, b = sets[0]["median"], sets[1]["median"]
            shift = (b - a) / a
            if abs(shift) > bound:
                verdicts.append("medians differ by %+.3f > bound" % shift)
            hard = [v for v in verdicts if "margin" not in v]
            ok = ok and not hard
            report["workloads"][w]["metrics"][name] = {"bound": bound, "sets": sets,
                                                       "verdicts": verdicts}
            print("%-18s %-14s %5.2f %12.5g %12.5g %12.5g %8.4f %8.4f  %s" % (
                w, name, bound, sets[0]["median"], sets[-1]["median"],
                sets[0]["q3"] - sets[0]["q1"], sets[0]["spread"], sets[-1]["spread"],
                "; ".join(verdicts) or "ok"))
    report["agree"] = ok
    print("\nmean wall per run: %.1f s; two sets agree within bounds: %s" % (
        statistics.mean(elapsed), "yes" if ok else "NO"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
