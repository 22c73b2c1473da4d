#!/usr/bin/env python3
"""Runs a workload N times and compares two sets of runs.

    # N runs per workload, seeds SEED0.., saved to FILE and summarised
    python3 perfbench/compare.py run --workload read_cold --runs 10 --out a.json
    # print the summary of a saved set again
    python3 perfbench/compare.py summary a.json
    # does NEW agree with BASE within the bounds of BENCHMARK.json?
    python3 perfbench/compare.py compare a.json b.json

For each (workload, metric) the summary gives the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median, plus the operations attempted and
failed. `compare` applies the rules of the benchmark's method:

  * regressed  NEW's median is worse than BASE's by more than the bound;
  * unresolved a side's spread exceeds the bound (setup_s included),
               unless every NEW run is better than every BASE run;
  * improved   NEW wins at least 9 in 10 of the run pairs (ties count for
               neither) and the medians differ by more than BASE's spread;
  * agree      otherwise.

The share of failed operations must be exactly equal in the two sets, and
every run of both sets must have checked its answers correct. Exit code 0
when nothing regressed, is unresolved, has a different failure share or
an incorrect run. `run` exits non-zero if any run failed or was incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def run_set(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    out = {"runs": {}}
    bad = 0
    for workload in args.workload:
        results = []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {seed}: exit {done.returncode}, "
                      "no result", file=sys.stderr)
                return 1
            if done.returncode != 0 or not result["correct"]:
                bad += 1
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        out["runs"][workload] = results
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    summarise(out, spec)
    return 1 if bad else 0


def bounds_of(spec):
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarise(data, spec):
    bounds = bounds_of(spec)
    for workload, results in data["runs"].items():
        att = sum(r["attempted"] for r in results)
        fail = sum(r["failed"] for r in results)
        ok = all(r["correct"] for r in results)
        print(f"== {workload}: {len(results)} runs, correct={ok}, "
              f"attempted={att}, failed={fail}")
        print(f"   {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(vals)
            bound = bounds.get(name, {}).get("bound")
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"   {name + ' (' + unit + ')':34} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread(vals):8.3f} {b:>6}")


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.base) as f:
        base = json.load(f)["runs"]
    with open(args.new) as f:
        new = json.load(f)["runs"]
    bad = 0
    for workload in base:
        if workload not in new:
            print(f"{workload}: missing from {args.new}")
            bad += 1
            continue
        b_runs, n_runs = base[workload], new[workload]
        wrong = sum(not r["correct"] for r in b_runs + n_runs)
        if wrong:
            print(f"{workload}: {wrong} run(s) gave incorrect answers")
            bad += 1
        b_share = (sum(r["failed"] for r in b_runs),
                   sum(r["attempted"] for r in b_runs))
        n_share = (sum(r["failed"] for r in n_runs),
                   sum(r["attempted"] for r in n_runs))
        if b_share[0] * n_share[1] != n_share[0] * b_share[1]:
            print(f"{workload}: failed share differs "
                  f"({b_share[0]}/{b_share[1]} vs {n_share[0]}/{n_share[1]})")
            bad += 1
        for name, m in metrics.items():
            in_base = name in b_runs[0]["metrics"]
            if in_base != (name in n_runs[0]["metrics"]):
                print(f"{workload}: {name} is reported by one set only")
                bad += 1
                continue
            if not in_base:
                continue
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            bound, direction = m["bound"], m["better"]
            _, b_med, _ = quartiles(bv)
            _, n_med, _ = quartiles(nv)
            worse = (n_med - b_med) / b_med
            if direction == "higher":
                worse = -worse
            all_better = all(better(x, y, direction) for x in nv for y in bv)
            pairs = list(zip(bv, nv))
            wins = sum(better(y, x, direction) for x, y in pairs)
            b_q1, _, b_q3 = quartiles(bv)
            if worse > bound and not all_better:
                verdict = "REGRESSED"
            elif max(spread(bv), spread(nv)) > bound and not all_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(pairs) and \
                    abs(n_med - b_med) > (b_q3 - b_q1):
                verdict = "improved"
            else:
                verdict = "agree"
            if verdict in ("REGRESSED", "unresolved"):
                bad += 1
            print(f"{workload:12} {name:16} base {b_med:12.5g} "
                  f"new {n_med:12.5g} worse {worse:+7.3f} "
                  f"(bound {bound:.2f}, spreads {spread(bv):.3f}/"
                  f"{spread(nv):.3f}, wins {wins}/{len(pairs)}) {verdict}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0,
                   help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args()
    if args.cmd == "run":
        return run_set(args)
    if args.cmd == "summary":
        with open(args.file) as f:
            summarise(json.load(f), load_spec())
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
