#!/usr/bin/env python3
"""Build and run the vrmr benchmark suite (see README.md).

One workload, one process (the form every measurement takes):
  python3 bench/suite/run.py --workload orbit_warm --seed 1 --seconds 10 --trace 0

  Prints every metric as `workload metric value unit`, then, as the last
  line, one JSON object: correct, attempted, failed and the metrics
  BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
  --trace 1). --trace 1 also writes and validates the simulated and
  host traces. Exits non-zero when any check fails.

Every workload, writing one results file:
  python3 bench/suite/run.py --seed 1 --runs 3 --out results.json

Compare results files of a change against its parent:
  python3 bench/suite/run.py --compare parent.json [...] --change change.json [...]

The suite builds into .bench_build/suite at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
BINARY = BUILD / "vrmr_suite"
WORKLOADS = ["orbit_warm", "scan_mixed", "farm_skewed", "paper_frames"]

# Trace events every traced run must contain, and the farm's extras.
TRACE_REQUIRE = ["map", "sort", "reduce"]
TRACE_REQUIRE_EXTRA = {"farm_skewed": ["migrate.", "retry.", "hydrate", "decompress"]}

# A process that dies from a signal, hangs, or ends without printing its
# result is run again: the thread pool's parallel_for can let its last
# worker lock the caller's stack mutex after the caller returned
# (src/util/thread_pool.cpp), which aborts about one run in ten on a
# loaded host — and may instead leave a worker stuck. Attempts go on
# while the time budget (counted after the build) has room for one more;
# every retry is reported. A result that fails its checks is never rerun.
BUDGET_S = 165


def healthy_attempt_s(seconds):
    """Generous length of an attempt that works: a traced run takes
    about 30 s whatever --seconds is, an untraced one up to about
    2 s + 2.3x --seconds (its last pass may end just short of it)."""
    return 30 + 2.5 * seconds


# Workload-specific metrics (not defined on every workload, so not in
# BENCHMARK.json) and the bound --compare applies to each:
# (better, "rel" share of the parent median | "abs" difference, bound).
EXTRA_BOUNDS = {
    "first_pixel_p90_ms": ("lower", "rel", 0.02),
    "batch_fps": ("higher", "rel", 0.02),
    "sim_mvps": ("higher", "rel", 0.02),
    "degraded_ratio": ("lower", "abs", 0.02),
    "interactive_max_rate_hz": ("higher", "abs", 0.0),
    "failed_ratio": ("lower", "abs", 0.0),
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources at {ROOT}; the suite builds the library from them")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (BUILD / "CMakeCache.txt").is_file():
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", str(BUILD), "--target", "vrmr_suite", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, check=False).returncode != 0:
        fail("build failed")


def run_binary(workload, seed, seconds, trace_dir):
    """Runs one workload process; returns (result dict, notes)."""
    args = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace_dir is not None:
        args += ["--trace-dir", str(trace_dir)]
    notes = []
    deadline = time.monotonic() + BUDGET_S
    attempt = 0
    while True:
        attempt += 1
        timeout = min(2 * healthy_attempt_s(seconds), deadline - time.monotonic())
        try:
            proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout, check=False)
            lines = proc.stdout.splitlines()
            results = [line for line in lines if line.startswith("{")]
            if proc.returncode < 0:
                problem = f"died from signal {-proc.returncode}"
            elif not results:
                problem = f"exited {proc.returncode} without a result"
            else:
                break
        except subprocess.TimeoutExpired:
            problem = f"ran past {timeout:.0f} s and was killed"
        notes.append(f"attempt {attempt} {problem}")
        print(f"note: {workload} seed {seed} {notes[-1]}", file=sys.stderr)
        if deadline - time.monotonic() < healthy_attempt_s(seconds):
            fail(f"{workload} seed {seed}: no attempt finished within {BUDGET_S} s "
                 f"({'; '.join(notes)})")
    for line in lines:
        if not line.startswith("{"):
            print(line)
    result = json.loads(results[-1])
    result["attempts"] = attempt
    return result, notes


def validate_traces(workload, trace_dir):
    """Runs tools/validate_trace.py on both traces; returns the failures."""
    validator = ROOT / "tools" / "validate_trace.py"
    failures = []
    for name, prefixes in (("sim_trace.json", TRACE_REQUIRE + TRACE_REQUIRE_EXTRA.get(workload, [])),
                           ("host_trace.json", TRACE_REQUIRE)):
        flags = [arg for prefix in prefixes for arg in ("--require", prefix)]
        proc = subprocess.run([sys.executable, str(validator), str(trace_dir / name), *flags],
                              stdout=subprocess.PIPE, text=True, check=False)
        print(f"trace {workload}/{name}: {proc.stdout.strip().splitlines()[-1]}")
        if proc.returncode != 0:
            failures.append(f"{name} failed validation")
    return failures


def run_one(workload, seed, seconds, trace):
    """One workload run: prints the metric lines; returns (record, result line)."""
    bench = load_benchmark()
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    trace_dir = None
    if trace:
        trace_dir = ROOT / ".bench_build" / "traces" / f"{workload}-seed{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    result, notes = run_binary(workload, seed, seconds, trace_dir)
    problems = []
    if trace:
        problems += validate_traces(workload, trace_dir)
    # End-to-end metrics never come from the traced run.
    end_to_end = {spec["name"] for spec in bench["end_to_end"]}
    for name, metric in result["metrics"].items():
        if not (trace and name in end_to_end):
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
    metrics = {}
    for spec in declared:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            problems.append(f"metric {spec['name']} missing")
        elif metric["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} in {metric['unit']}, declared {spec['unit']}")
        else:
            metrics[spec["name"]] = {"value": metric["value"], "unit": spec["unit"]}
    for problem in problems:
        print(f"error: {problem}")
    correct = bool(result["correct"]) and not problems
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "attempts": result["attempts"], "notes": notes,
        "wall_s": time.monotonic() - start, "metrics": result["metrics"],
    }
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    return record, line


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_all(args, seconds):
    workloads = [args.workload] if args.workload else WORKLOADS
    runs = []
    for _ in range(args.runs):
        for workload in workloads:
            record, _ = run_one(workload, args.seed, seconds, args.trace)
            runs.append(record)
    if args.out:
        doc = {"meta": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                        "seed": args.seed, "seconds": seconds, "trace": args.trace,
                        "runs_per_workload": args.runs},
               "runs": runs}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    return 0 if all(run["correct"] for run in runs) else 1


def collect(paths):
    """(workload, metric) -> values over every run in the files."""
    values = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        for run in doc["runs"]:
            for name, metric in run["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def compare(parent_paths, change_paths):
    """One row per (workload, metric) with a bound: better, same, worse,
    or unresolved when the parent's own quartile spread exceeds the bound
    (unless every change run beats every parent run)."""
    bounds = dict(EXTRA_BOUNDS)
    for spec in load_benchmark()["end_to_end"]:
        bounds[spec["name"]] = (spec["better"], "rel", spec["bound"])
    parent, change = collect(parent_paths), collect(change_paths)
    worse = 0
    print(f"{'workload':<13} {'metric':<24} {'parent':>12} {'change':>12} "
          f"{'delta':>9} {'spread':>7} {'bound':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in bounds:
            continue
        better, kind, bound = bounds[name]
        p, c = parent[key], change[key]
        p_med, c_med = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (p[0], p[0], p[0])
        scale = abs(p_med) if kind == "rel" else 1.0
        spread = (q3 - q1) / scale if scale > 0 else 0.0
        # Positive = the change is worse, in the bound's units.
        worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
        worse_by = worse_by / scale if scale > 0 else worse_by
        sign = 1 if better == "lower" else -1
        dominates = all(sign * (cv - pv) < 0 for cv in c for pv in p)
        if spread > bound and not dominates:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
            worse += 1
        elif -worse_by > bound:
            verdict = "better"
        else:
            verdict = "same"
        unit = "%" if kind == "rel" else ""
        factor = 100.0 if kind == "rel" else 1.0
        gain = -worse_by * factor + 0.0  # no "-0.00" for identical medians
        print(f"{workload:<13} {name:<24} {p_med:>12.5g} {c_med:>12.5g} "
              f"{gain:>+8.2f}{unit or ' '} {spread * factor:>6.2f}{unit or ' '} "
              f"{bound * factor:>6.2f}{unit or ' '}  {verdict}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds the timed phase measures at least "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload when writing --out")
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    parser.add_argument("--compare", nargs="+", metavar="PARENT.json")
    parser.add_argument("--change", nargs="+", metavar="CHANGE.json")
    args = parser.parse_args()

    if args.compare or args.change:
        if not (args.compare and args.change):
            parser.error("--compare needs --change")
        return compare(args.compare, args.change)

    build()
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    if args.workload and not args.out and args.runs == 1:
        _, line = run_one(args.workload, args.seed, seconds, args.trace)
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    return run_all(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
