"""Compare two sets of benchmark results, workload by workload.

Usage::

    python3 perfbench/report.py BASE_DIR HEAD_DIR

Each directory holds one file per untraced run: the standard output of
``python3 perfbench/run.py …`` (its ``{"metadata": …}`` line names the
workload, the last line is the result).  For every workload and
end-to-end metric of ``BENCHMARK.json`` the report prints both medians,
both quartiles and sample counts, the change of the head median, and
whether the sets agree within the metric's bound.  Exit code 1 when a
metric got worse by more than its bound or an op failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load_results(directory: Path) -> dict:
    """workload -> {"metrics": name -> values, "attempted", "failed"}."""
    results: dict = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        meta = [json.loads(line)["metadata"] for line in lines
                if line.startswith('{"metadata"')]
        if not meta or meta[0]["traced"]:
            continue
        result = json.loads(lines[-1])
        entry = results.setdefault(meta[0]["workload"],
                                   {"metrics": {}, "attempted": 0,
                                    "failed": 0})
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(metric["value"])
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    base, head = (load_results(Path(arg)) for arg in argv)
    worse = False
    print(f"{'workload':<17} {'metric':<12} {'base median [q1, q3] (n)':<34} "
          f"{'head median [q1, q3] (n)':<34} {'change':>8}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in head:
            print(f"{workload:<17} (missing from "
                  f"{'base' if workload not in base else 'head'})")
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = base[workload]["metrics"].get(name)
            b = head[workload]["metrics"].get(name)
            if not a or not b:
                print(f"{workload:<17} {name:<12} (no samples)")
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = qb[1] / qa[1] - 1
            worse_by = change if metric["better"] == "lower" else -change
            verdict = ("agree" if abs(change) <= bound
                       else "worse" if worse_by > 0 else "better")
            worse |= verdict == "worse"
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] ({len(v)})"
                     for q, v in ((qa, a), (qb, b))]
            print(f"{workload:<17} {name:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{change:+8.1%}  {verdict} (bound {bound:.0%}, "
                  f"{metric['unit']})")
        for label, entry in (("base", base[workload]),
                             ("head", head[workload])):
            print(f"{workload:<17} ops {label}: {entry['attempted']} "
                  f"attempted, {entry['failed']} failed")
            worse |= entry["failed"] > 0
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
