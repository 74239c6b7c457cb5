#!/usr/bin/env python3
"""Compares two sets of benchmark runs metric by metric.

    python3 perfbench/layer_diff.py --base RUN... --change RUN...

Each RUN is a file holding the stdout of `perfbench/run.py` (or just its
last line), or a directory of such files. Runs are grouped by the
"# workload" line they print. The metrics are those of the last line's
JSON plus the "# layer NAME VALUE UNIT" lines of traced runs (layers only
some workloads have). For every metric of every workload it prints
each side's median and quartiles, the ratio change/base with its base, and
flags a move when the medians differ by more than the base side's own
quartile spread (q3 - q1). Meant for traced runs (--trace 1), whose metrics
are per layer; untraced runs compare the same way.
"""

import argparse
import json
import os
import re
import statistics
import sys

WORKLOAD_LINE = re.compile(r"^# workload (\S+) seed (\d+)")
LAYER_LINE = re.compile(r"^# layer (\S+) (\S+) (\S+)$")


def run_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                full = os.path.join(path, name)
                if os.path.isfile(full):
                    yield full
        else:
            yield path


def load(paths):
    """{workload: {metric: [values]}} plus the unit of each metric."""
    values, units = {}, {}
    for path in run_files(paths):
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if not isinstance(result, dict) or "metrics" not in result:
            continue
        workload = "all"
        found = {name: (float(m["value"]), m.get("unit", ""))
                 for name, m in result["metrics"].items()}
        for line in lines:
            m = WORKLOAD_LINE.match(line)
            if m and workload == "all":
                workload = m.group(1)
            m = LAYER_LINE.match(line)
            if m:
                found[m.group(1)] = (float(m.group(2)), m.group(3))
        for name, (value, unit) in found.items():
            values.setdefault(workload, {}).setdefault(name, []).append(value)
            units[name] = unit
    return values, units


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    base, units = load(args.base)
    change, more_units = load(args.change)
    units.update(more_units)
    if not base or not change:
        print("no runs found on one side", file=sys.stderr)
        return 1
    for workload in sorted(set(base) | set(change)):
        b_all = base.get(workload, {})
        c_all = change.get(workload, {})
        nb = max((len(v) for v in b_all.values()), default=0)
        nc = max((len(v) for v in c_all.values()), default=0)
        print("== %s: %d base runs, %d change runs" % (workload, nb, nc))
        print("%-34s %-8s %30s %30s %22s" % (
            "metric", "unit", "base median [q1, q3]",
            "change median [q1, q3]", "change/base (base)"))
        for name in sorted(set(b_all) | set(c_all)):
            if name not in b_all or name not in c_all:
                print("%-34s only on the %s side" % (
                    name, "base" if name in b_all else "change"))
                continue
            bq1, bmed, bq3 = quartiles(b_all[name])
            cq1, cmed, cq3 = quartiles(c_all[name])
            ratio = "%.4f (%.5g)" % (cmed / bmed, bmed) if bmed else "n/a (0)"
            moved = abs(cmed - bmed) > (bq3 - bq1) and cmed != bmed
            print("%-34s %-8s %30s %30s %22s%s" % (
                name, units.get(name, ""),
                "%.5g [%.5g, %.5g]" % (bmed, bq1, bq3),
                "%.5g [%.5g, %.5g]" % (cmed, cq1, cq3),
                ratio, "  MOVED" if moved else ""))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
