#!/usr/bin/env python3
"""Compares a parent and a change on the benchmark, one row per workload.

Runs the benchmark in two source checkouts in alternating pairs (pair i runs
the parent first when i is even and the change first when i is odd; both
sides of a pair use seed BASE + i), then judges every end-to-end metric of
BENCHMARK.json by the rule in perfbench/README.md:

  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ, in the better direction,
              by more than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  either side's interquartile range, as a share of its median,
              exceeds the bound, unless every change run beats every parent
              run;
  same        none of the above.

Usage:
  python3 perfbench/compare.py run --parent DIR --change DIR [--pairs 10]
      [--seed 1000] [--workloads a,b] --out results.json
  python3 perfbench/compare.py report results.json

`run` writes every run's JSON result to --out and then prints the report;
`report` re-prints the report from a saved file. DIR is the root of a
checkout holding BENCHMARK.json and perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def load_spec(checkout):
    with open(Path(checkout) / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(checkout, spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    # Each checkout builds into its own .bench_build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric, a, b):
    """True when value `a` is better than value `b` for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def judge(metric, pairs):
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in pairs if better(metric, c, p))
    bound = metric["bound"]
    spread_p = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    spread_c = (cq3 - cq1) / abs(cmed) if cmed else float("inf")
    all_better = all(better(metric, c, p) for c in change for p in parent)
    worse_by = (cmed - pmed) if metric["better"] == "lower" else (pmed - cmed)

    if (wins * 10 >= 9 * len(pairs) and better(metric, cmed, pmed)
            and abs(cmed - pmed) > (pq3 - pq1)):
        verdict = "gain"
    elif pmed and worse_by > bound * abs(pmed):
        verdict = "regression"
    elif (spread_p > bound or spread_c > bound) and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "verdict": verdict, "wins": wins, "pairs": len(pairs),
        "parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3],
        "spread": [spread_p, spread_c],
    }


def report(results):
    metrics = results["end_to_end"]
    runs = results["runs"]
    workloads = sorted({r["workload"] for r in runs})
    names = [m["name"] for m in metrics]
    print("workload".ljust(18) + " ".join(n[:14].rjust(14) for n in names))
    details = []
    exit_code = 0
    for w in workloads:
        by_seed = {}
        for r in runs:
            if r["workload"] == w:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        row = []
        for m in metrics:
            pairs = [(s["parent"]["metrics"][m["name"]]["value"],
                      s["change"]["metrics"][m["name"]]["value"])
                     for _, s in sorted(by_seed.items())
                     if "parent" in s and "change" in s]
            if not pairs:
                row.append("-")
                continue
            j = judge(m, pairs)
            row.append(j["verdict"])
            if j["verdict"] == "regression":
                exit_code = 1
            details.append(
                f"{w:18} {m['name']:16} parent {j['parent'][1]:.6g} "
                f"[{j['parent'][0]:.6g}, {j['parent'][2]:.6g}]  change "
                f"{j['change'][1]:.6g} [{j['change'][0]:.6g}, "
                f"{j['change'][2]:.6g}]  wins {j['wins']}/{j['pairs']}  "
                f"spread {j['spread'][0]:.3f}/{j['spread'][1]:.3f} "
                f"(bound {m['bound']})  {j['verdict']}")
        print(w.ljust(18) + " ".join(v.rjust(14) for v in row))
    print()
    for line in details:
        print(line)
    failed = [r for r in runs if not r["result"].get("correct", False)]
    for r in failed:
        print(f"incorrect: {r['side']} {r['workload']} seed {r['seed']}")
    return 1 if failed else exit_code


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1000)
    run.add_argument("--workloads", default="")
    run.add_argument("--out", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("results")
    args = parser.parse_args()

    if args.mode == "report":
        with open(args.results) as f:
            sys.exit(report(json.load(f)))

    spec = load_spec(args.parent)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    sides = {"parent": (args.parent, spec),
             "change": (args.change, load_spec(args.change))}
    results = {"end_to_end": spec["end_to_end"], "runs": []}
    for w in workloads:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout, side_spec = sides[side]
                result = run_once(checkout, side_spec, w, args.seed + i)
                results["runs"].append({"workload": w, "seed": args.seed + i,
                                        "side": side, "result": result})
                with open(args.out, "w") as f:
                    json.dump(results, f, indent=1)
    sys.exit(report(results))


if __name__ == "__main__":
    main()
