"""Compare two sets of ARQL-Bench results (parent and change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR          # spread of one set

Each directory holds the captured standard output of untraced runs, one
file per run (``*.out``).  A file's workload comes from its ``# workload:``
line and its metrics from the JSON last line.  Runs pair up in file-name
order within a workload, so name files by seed and alternate which side
runs first.

For every workload and end-to-end metric the tool prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither side) and a verdict:

* ``improved`` — the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
* ``no worse`` — the change's median is within the metric's bound of the
  parent's, and both sides' spreads are within the bound;
* ``unresolved`` — a side's spread (interquartile range over median)
  exceeds the bound, unless every change run beats every parent run;
* ``worse`` — the change's median is worse than the parent's by more than
  the bound.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """``{workload: [metrics, ...]}`` in file-name order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().splitlines()
        named = [line.split()[2] for line in lines if line.startswith("# workload:")]
        if not named or not lines[-1].startswith("{"):
            continue  # an unfinished or failed run
        workload = named[0]
        result = json.loads(lines[-1])
        runs.setdefault(workload, []).append(
            {name: m["value"] for name, m in result["metrics"].items()}
        )
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(parent, change, better, bound):
    """The §8 verdict and the share of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if won >= 0.9 and gain > (p3 - p1):
        return "improved", won
    if min(change) * sign > max(parent) * sign:
        return "improved" if gain > (p3 - p1) else "no worse", won
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved", won
    if -gain > bound * abs(pm):
        return "worse", won
    return "no worse", won


def main(argv):
    spec = json.loads(BENCHMARK.read_text())
    metrics = spec["end_to_end"]
    if len(argv) == 1:
        runs = load(argv[0])
        print(f"{'workload':<12} {'metric':<16} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
        for workload in sorted(runs):
            for m in metrics:
                values = [run[m["name"]] for run in runs[workload]]
                flag = "" if spread(values) <= m["bound"] else "  > bound"
                print(
                    f"{workload:<12} {m['name']:<16} {len(values):>3} "
                    f"{statistics.median(values):>12.4f} {spread(values):>8.3f} "
                    f"{m['bound']:>6}{flag}"
                )
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    print(
        f"{'workload':<12} {'metric':<16} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'won':>5}  verdict"
    )
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            p = [run[m["name"]] for run in parent[workload]]
            c = [run[m["name"]] for run in change[workload]]
            result, won = verdict(p, c, m["better"], m["bound"])
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            print(
                f"{workload:<12} {m['name']:<16} {fmt(p):>32} {fmt(c):>32} "
                f"{won:>5.2f}  {result}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
