#!/usr/bin/env python3
"""tsvbench: the end-to-end and per-layer benchmark of the tsv library.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --seed 1            # every workload, untraced
    python3 benchmark/run.py --quick             # self-check, 2 s per run

Builds benchmark/ (which builds the library from this checkout) into
build-bench/, runs each workload in its own process with at most four load
threads, prints every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, taken from a traced rerun (spans in
build-bench/out/<workload>.spans.json) next to an untraced run of the same
length.
Exits non-zero when an output is wrong or the build or a run fails.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")
BUILD_DIR = os.path.join(ROOT, "build-bench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "tsvbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# Spans on a served request's path; run.py reports each one's mean self
# time (duration minus the part its children cover).
REQUEST_PATH = ("request", "scheduler.submit", "scheduler.queue",
                "executor.gang_wait", "executor.service")


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tsvbench",
                  "-j", str(load_threads())])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-25:]
                sys.stderr.write("".join(tail))
                raise BenchError("build failed (log: %s)" % log_path)


def run_binary(workload, seed, seconds, traced):
    """Runs one workload process and returns its result record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = workload + (".traced" if traced else "")
    out = os.path.join(OUT_DIR, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--out", out]
    if traced:
        cmd += ["--trace", "--spans",
                os.path.join(OUT_DIR, workload + ".spans.json")]
    env = dict(os.environ, OMP_NUM_THREADS=str(load_threads()))
    try:
        rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (tag, RUN_TIMEOUT_S))
    if rc != 0 or not os.path.exists(out):
        raise BenchError("%s exited with code %d" % (tag, rc))
    with open(out) as f:
        return json.load(f)


def self_times_us(spans_path):
    """Mean self time (us) per span name: duration minus covered children."""
    with open(spans_path) as f:
        spans = json.load(f)["spans"]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    per_name = defaultdict(list)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        per_name[s["name"]].append(s["end"] - s["start"] - covered)
    return {name: 1e6 * sum(v) / len(v) for name, v in per_name.items()}


def run_workload(workload, seed, seconds, trace):
    """One benchmark run: returns (record, metrics) where metrics holds
    every metric measured, BENCHMARK.json's or not."""
    if not trace:
        rec = run_binary(workload, seed, seconds, False)
        return rec, dict(rec["metrics"])
    half = seconds / 2.0
    base = run_binary(workload, seed, half, False)
    rec = run_binary(workload, seed, half, True)
    metrics = dict(rec["metrics"])
    for name, us in self_times_us(
            os.path.join(OUT_DIR, workload + ".spans.json")).items():
        if name in REQUEST_PATH:
            metrics["self_us." + name] = {"value": us, "unit": "us"}
    metrics["trace.overhead_frac"] = {
        "value": rec["metrics"]["p50_ms"]["value"] /
        base["metrics"]["p50_ms"]["value"] - 1.0,
        "unit": "fraction"}
    rec = dict(rec, correct=base["correct"] and rec["correct"],
               attempted=base["attempted"] + rec["attempted"],
               failed=base["failed"] + rec["failed"],
               wrong=base["wrong"] + rec["wrong"])
    return rec, metrics


def report(workload, rec, metrics, out=sys.stdout):
    out.write("== %s (seed %s, %s s%s)\n" % (
        workload, rec["seed"], rec["seconds"],
        ", traced" if rec["traced"] else ""))
    for name in sorted(metrics):
        m = metrics[name]
        out.write("  %-40s %14.6g %s\n" % (name, m["value"], m["unit"]))
    for key in sorted(rec["info"]):
        out.write("  info %-35s %s\n" % (key, rec["info"][key]))
    out.write("  attempted %d, failed %d, correct %s\n" % (
        rec["attempted"], rec["failed"], rec["correct"]))
    for w in rec["wrong"]:
        out.write("  WRONG: %s\n" % w)


def result_line(spec, rec, metrics, trace):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError("metrics not produced: " + ", ".join(missing))
    return {"correct": bool(rec["correct"]),
            "attempted": int(rec["attempted"]),
            "failed": int(rec["failed"]),
            "metrics": {n: {"value": metrics[n]["value"],
                            "unit": metrics[n]["unit"]} for n in names}}


def quick_check(spec):
    """Runs every workload for 2 s in both modes and checks the output
    against BENCHMARK.json: every metric present with its unit and a finite
    value, names well formed, at most four load threads."""
    problems = []
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            if not NAME_RE.match(m["name"]):
                problems.append("bad metric name %r" % m["name"])
            if not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r" % m["unit"])
    for wl in spec["workloads"]:
        for trace in (0, 1):
            rec, metrics = run_workload(wl["name"], 1, 2.0, trace)
            line = result_line(spec, rec, metrics, trace)
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = line["metrics"][m["name"]]
                if got["unit"] != m["unit"]:
                    problems.append("%s %s: unit %s, BENCHMARK.json says %s" % (
                        wl["name"], m["name"], got["unit"], m["unit"]))
                if not math.isfinite(got["value"]):
                    problems.append("%s %s: value %r" % (
                        wl["name"], m["name"], got["value"]))
            threads = float(rec["info"].get("load_threads", "inf"))
            if threads > load_threads():
                problems.append("%s uses %g load threads" % (wl["name"], threads))
            if not line["correct"]:
                problems.append("%s (trace %d) produced wrong output" % (
                    wl["name"], trace))
            print("quick: %-12s trace %d: %d metrics, correct %s" % (
                wl["name"], trace, len(line["metrics"]), line["correct"]))
    for p in problems:
        print("quick: PROBLEM " + p)
    print(json.dumps({"quick_ok": not problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one of BENCHMARK.json's workloads "
                    "(default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-check every workload at 2 s per run")
    args = ap.parse_args()

    try:
        spec = load_spec()
        build()
        if args.quick:
            return quick_check(spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError("unknown workload %r (have %s)" % (
                args.workload, ", ".join(names)))
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        lines = {}
        for wl in [args.workload] if args.workload else names:
            rec, metrics = run_workload(wl, args.seed, seconds, args.trace)
            report(wl, rec, metrics)
            lines[wl] = result_line(spec, rec, metrics, args.trace)
    except BenchError as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 2
    sys.stdout.flush()
    if args.workload:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps(lines))
    return 0 if all(l["correct"] for l in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
