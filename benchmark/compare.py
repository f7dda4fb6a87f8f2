#!/usr/bin/env python3
"""Compare two checkouts on the tsvbench end-to-end metrics, or measure the
benchmark's own run-to-run spread.

    # A/B: N pairs of parent/change runs, alternating which side goes first
    python3 benchmark/compare.py ab --parent ../parent --change . --pairs 10

    # Calibration: two sets of N runs of this checkout on distinct seeds
    python3 benchmark/compare.py calibrate --runs 10

Each run is `python3 benchmark/run.py --workload W --seed S --trace 0` in the
checkout's root, for BENCHMARK.json's run_seconds; the last line of its
output is the result. Seeds are fixed: A/B pair i uses seed 1000 + i, and
calibration set k (0 or 1) uses seeds 1 + k * N ... N + k * N. Rules:

  * per side: median and quartiles (statistics.quantiles, n=4); spread is
    the interquartile distance over the median;
  * gain: the change wins at least 9 of 10 pairs (ties count for neither)
    and the medians differ by more than the parent's interquartile distance;
  * regression: the change's median is worse than the parent's by more than
    the metric's BENCHMARK.json bound;
  * unresolved: the parent's spread exceeds the bound, unless every change
    run is better than every parent run.

`calibrate` reports each (workload, metric) spread per set and the drift of
the second set's median against the first, and suggests a bound of three
times the largest spread seen. It fails when a spread or the drift exceeds
the bound, and flags spreads above a third of the bound. A metric whose
spread exceeds REPORT_ONLY_SPREAD cannot repeat well enough to gate a 10%
change; it is flagged to be reported, not gated.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_ONLY_SPREAD = 0.10
AB_SEED_BASE = 1000


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed in %s: %s seed %d (code %d)" % (
            root, workload, seed, p.returncode))
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit("wrong output in %s: %s seed %d" % (root, workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else math.inf}


def worse_by(metric, base, other):
    """Relative amount by which `other` is worse than `base` (negative when
    better)."""
    if base == 0:
        return 0.0
    d = (other - base) / abs(base)
    return d if metric["better"] == "lower" else -d


def better(metric, a, b):
    """True when value a is strictly better than b."""
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric, parent, change):
    p, c = stats(parent), stats(change)
    bound = metric["bound"]
    wins = sum(better(metric, cv, pv) for pv, cv in zip(parent, change))
    all_better = all(better(metric, cv, pv) for cv in change for pv in parent)
    worse = worse_by(metric, p["median"], c["median"])
    if p["spread"] > bound and not all_better:
        v = "unresolved"
    elif (wins >= 0.9 * len(parent) and better(metric, c["median"], p["median"])
          and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        v = "gain"
    elif worse > bound:
        v = "REGRESSION"
    else:
        v = "no regression"
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "worse_by": worse, "verdict": v}


def cmd_ab(args):
    spec = load_spec(args.change)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    raw = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = AB_SEED_BASE + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                root = args.parent if side == "parent" else args.change
                raw[w][side].append(
                    run_once(root, w, seed, spec["run_seconds"]))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)
    report, regressions = {}, 0
    for w in workloads:
        print("== %s (%d pairs)" % (w, args.pairs))
        report[w] = {}
        for m in spec["end_to_end"]:
            pv = [r[m["name"]] for r in raw[w]["parent"]]
            cv = [r[m["name"]] for r in raw[w]["change"]]
            v = verdict(m, pv, cv)
            report[w][m["name"]] = v
            regressions += v["verdict"] == "REGRESSION"
            print("  %-14s parent %-10.4g change %-10.4g worse_by %+7.3f "
                  "bound %.2f spread %.3f wins %d/%d  %s" % (
                      m["name"], v["parent"]["median"], v["change"]["median"],
                      v["worse_by"], m["bound"], v["parent"]["spread"],
                      v["wins"], v["pairs"], v["verdict"]))
        verdicts = sorted({v["verdict"] for v in report[w].values()})
        print("  row: %s -> %s" % (w, ", ".join(verdicts)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"raw": raw, "report": report}, f, indent=1)
    return 1 if regressions else 0


def cmd_calibrate(args):
    spec = load_spec(ROOT)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    raw = {w: [[], []] for w in workloads}
    for k in range(2):
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            for w in workloads:
                raw[w][k].append(run_once(ROOT, w, seed, spec["run_seconds"]))
            print("set %d run %d done" % (k + 1, i + 1), file=sys.stderr)
    out, ok = {}, True
    for w in workloads:
        print("== %s" % w)
        out[w] = {}
        for m in spec["end_to_end"]:
            sets = [stats([r[m["name"]] for r in runs]) for runs in raw[w]]
            spreads = [s["spread"] for s in sets]
            drift = worse_by(m, sets[0]["median"], sets[1]["median"])
            flag = ""
            if max(spreads) > m["bound"]:
                flag, ok = "SPREAD > BOUND", False
            elif drift > m["bound"]:
                flag, ok = "DRIFT > BOUND", False
            elif max(spreads) > REPORT_ONLY_SPREAD:
                flag = "spread > %.2f: report, do not gate" % REPORT_ONLY_SPREAD
            elif max(spreads) > m["bound"] / 3:
                flag = "spread > bound/3"
            suggest = math.ceil(300 * max(spreads)) / 100
            out[w][m["name"]] = {"sets": sets, "drift": drift,
                                 "suggested_bound": suggest}
            print("  %-14s median %-10.4g spreads %s drift %+.3f bound %.2f "
                  "suggest %.2f %s" % (
                      m["name"], sets[0]["median"],
                      " ".join("%.3f" % s for s in spreads), drift,
                      m["bound"], suggest, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"raw": raw, "summary": out}, f, indent=1)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    ab = sub.add_parser("ab", help="compare a parent and a change checkout")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--change", default=ROOT)
    ab.add_argument("--pairs", type=int, default=10)
    cal = sub.add_parser("calibrate", help="measure this checkout's spread")
    cal.add_argument("--runs", type=int, default=10)
    for p in (ab, cal):
        p.add_argument("--workloads", help="comma-separated (default: all)")
        p.add_argument("--out", help="write raw runs and results as JSON")
    args = ap.parse_args()
    if args.mode == "calibrate" and args.runs < 5:
        ap.error("calibrate needs --runs >= 5")
    if args.mode == "ab" and args.pairs < 2:
        ap.error("ab needs --pairs >= 2 for quartiles")
    return cmd_ab(args) if args.mode == "ab" else cmd_calibrate(args)


if __name__ == "__main__":
    sys.exit(main())
