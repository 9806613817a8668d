"""Compare two sets of benchmark runs, such as a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends.  Runs are paired by
(workload, trace, seed), so run both sides on the same seeds, alternating
which side goes first; a note is printed when one side always ran first,
because a shared host's speed can drift by several percent over minutes.  For
every workload and metric this prints each side's median and quartiles, the
share of pairs the change wins (ties count for neither) and, for end-to-end
metrics, a verdict against the bound in BENCHMARK.json:

  gain          the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's quartile spread
  regression    the change's median is worse by more than the bound
  unresolved    the parent's run-to-run spread is wider than the bound,
                and not every change run beats every parent run
  within bound  none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: Path) -> dict[tuple, dict]:
    runs = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"], record["seed"])] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int, metric: dict) -> str:
    sign = 1 if metric["better"] == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    improved = sign * (pm - cm) > 0
    if wins >= WIN_SHARE * pairs and improved and abs(cm - pm) > p3 - p1:
        return "gain"
    if "bound" not in metric:
        return ""
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pm and (p3 - p1) / abs(pm) > metric["bound"] and not all_better:
        return "unresolved"
    if pm and sign * (cm - pm) / abs(pm) > metric["bound"]:
        return "regression"
    return "within bound"


def compare(parent: dict[tuple, dict], change: dict[tuple, dict], spec: dict) -> list[str]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    keys = sorted(set(parent) & set(change))
    lines = [
        f"{'workload':<8} {'metric':<40} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
        f"{'wins':>7}  verdict"
    ]
    for workload, trace in sorted({k[:2] for k in keys}):
        group = [k for k in keys if k[:2] == (workload, trace)]
        parent_first = sum(1 for k in group if parent[k]["started_unix"] < change[k]["started_unix"])
        if parent_first in (0, len(group)) and len(group) > 1:
            lines.append(
                f"{workload:<8} note: the same side ran first in all {len(group)} pairs, so drift "
                "in machine speed can read as a difference; alternate which side runs first"
            )
        for name in parent[group[0]]["metrics"]:
            metric = metrics.get(name)
            if metric is None:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            p = [parent[k]["metrics"][name]["value"] for k in group]
            c = [change[k]["metrics"][name]["value"] for k in group]
            wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
            pq = "/".join(f"{v:.4g}" for v in quartiles(p))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            lines.append(
                f"{workload:<8} {name:<40} {pq:>32} {cq:>32} {wins:>3}/{len(group):<3}  "
                f"{verdict(p, c, wins, len(group), metric)}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not set(parent) & set(change):
        print("error: no (workload, trace, seed) run appears in both files", file=sys.stderr)
        return 2
    print("\n".join(compare(parent, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
