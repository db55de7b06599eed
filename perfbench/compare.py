"""A/B comparer for benchmark run records.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT_RECORDS... -- CHANGE_RECORDS...

Each argument is a JSON file written by ``run.py --record`` (one run
record, or a list of them).  Runs are grouped by workload and paired
in the order given, so give the two sides' runs in the order they were
made (alternating which side runs first).  For every workload and
metric it prints each side's median and quartiles and a verdict:

* ``improved`` - the change wins at least 9/10 of the pairs (ties
  count for neither side) and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* ``worse`` - the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` - not worse by the bound, but either side's spread
  (IQR over median) is wider than the bound, and not every change run
  beats every parent run;
* ``no worse`` - otherwise.

Per-layer metrics have no bound; they are reported as ``identical``
when every run on both sides reads the same (exact simulated counts),
else with the same win/IQR rule for ``improved`` and ``changed``
otherwise.
"""

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths: List[str]) -> List[Dict[str, Any]]:
    runs: List[Dict[str, Any]] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        runs.extend(data if isinstance(data, list) else [data])
    return runs


def metric_table() -> Dict[str, Dict[str, Any]]:
    """``better`` and ``bound`` of every metric in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        metric["name"]: metric
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: List[float], change: List[float], better: str,
    bound: Optional[float],
) -> str:
    """Apply the decision rule to one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    if bound is None and len(set(parent + change)) == 1:
        return "identical"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if (
        pairs
        and wins >= 0.9 * pairs
        and sign * (c_med - p_med) > p_q3 - p_q1
    ):
        return "improved"
    if bound is None:
        return "changed"
    scale = abs(p_med) or 1.0
    if -sign * (c_med - p_med) > bound * scale:
        return "worse"
    spread = max((p_q3 - p_q1) / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    all_better = (
        min(change) > max(parent) if sign > 0
        else max(change) < min(parent)
    )
    if spread > bound and not all_better:
        return "unresolved"
    return "no worse"


def compare(
    parent_runs: List[Dict[str, Any]], change_runs: List[Dict[str, Any]]
) -> List[str]:
    table = metric_table()
    lines = ["%-18s %-30s %-26s %-26s %s" % (
        "workload", "metric", "parent q1/med/q3", "change q1/med/q3",
        "verdict",
    )]
    workloads = sorted({run["workload"] for run in parent_runs})
    for workload in workloads:
        p_runs = [r for r in parent_runs if r["workload"] == workload]
        c_runs = [r for r in change_runs if r["workload"] == workload]
        if not c_runs:
            lines.append("%-18s (no change runs)" % workload)
            continue
        for name in p_runs[0]["metrics"]:
            parent = [r["metrics"][name]["value"] for r in p_runs
                      if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in c_runs
                      if name in r["metrics"]]
            if not parent or not change:
                continue
            spec = table.get(name, {"better": "lower"})
            lines.append("%-18s %-30s %-26s %-26s %s" % (
                workload, name,
                "%.4g/%.4g/%.4g" % quartiles(parent),
                "%.4g/%.4g/%.4g" % quartiles(change),
                verdict(parent, change, spec.get("better", "lower"),
                        spec.get("bound")),
            ))
        failed = sum(r["failed"] for r in c_runs) - sum(
            r["failed"] for r in p_runs
        )
        if failed > 0:
            lines.append(
                "%-18s change failed %d more cells than parent"
                % (workload, failed)
            )
    return lines


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_runs = load_runs(argv[:split])
    change_runs = load_runs(argv[split + 1:])
    if not parent_runs or not change_runs:
        print("compare: need runs on both sides", file=sys.stderr)
        return 2
    print("\n".join(compare(parent_runs, change_runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
