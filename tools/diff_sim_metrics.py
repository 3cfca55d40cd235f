#!/usr/bin/env python3
"""Diff the simulated metrics of two bench/suite runs.

Reads two stdout captures of `python3 bench/suite/run.py --workload W ...`
(stdlib only, no third-party deps). Every `workload metric value unit`
line is a metric. Host-clock metrics are skipped, since they vary from
run to run: names starting `host` (host_fps, host.*), `setup_s`,
`peak_rss_mb` and names starting `obs.`. Simulated metrics repeat
exactly for a seed, so any difference is a real move.

Prints every metric whose value differs, or that only one capture has,
with both values and the relative change. Exit code 0 when nothing
differs, 1 when something does, 2 when a capture holds no metric.

Usage:
  python3 tools/diff_sim_metrics.py parent.txt change.txt
"""

import argparse
import math
import sys

HOST_NAMES = {"setup_s", "peak_rss_mb"}
HOST_PREFIXES = ("host", "obs.")


def is_host(name):
    return name in HOST_NAMES or name.startswith(HOST_PREFIXES)


def load_metrics(path):
    """{(workload, metric): value} for every simulated metric line."""
    metrics = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if len(fields) != 4:
                continue
            workload, name, value, _unit = fields
            try:
                number = float(value)
            except ValueError:
                continue
            if not is_host(name):
                metrics[(workload, name)] = number
    return metrics


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def relative(parent, change):
    """(change - parent) / |parent|, in three significant digits."""
    if parent == 0.0:
        return "inf"
    return f"{(change - parent) / abs(parent):+.3g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="run.py stdout of the parent")
    parser.add_argument("change", help="run.py stdout of the change")
    args = parser.parse_args()

    parent = load_metrics(args.parent)
    change = load_metrics(args.change)
    for path, metrics in ((args.parent, parent), (args.change, change)):
        if not metrics:
            print(f"no metric lines in {path}")
            return 2
    moved = 0
    for key in sorted(parent.keys() | change.keys()):
        workload, name = key
        p = parent.get(key)
        c = change.get(key)
        if p is not None and c is not None and same(p, c):
            continue
        moved += 1
        p_text = "missing" if p is None else repr(p)
        c_text = "missing" if c is None else repr(c)
        rel = relative(p, c) if p is not None and c is not None else "-"
        print(f"{workload} {name} {p_text} -> {c_text} ({rel})")
    compared = len(parent.keys() & change.keys())
    print(f"{moved} of {len(parent.keys() | change.keys())} simulated metrics differ "
          f"({compared} in both captures)")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
