#!/usr/bin/env python3
"""Compare two result files of ``run.py`` (two sets of runs).

    python3 benchmarks/perf/compare.py A.json B.json

For every workload x end-to-end metric: both medians and quartiles, B's
change against A as a share of A's median, the metric's bound, and a
verdict.  A is the parent (or the first set), B the change (or the
second set).

* ``worse`` — B's median is worse than A's by more than the bound and
  the runs resolve it;
* ``unresolved`` — the run-to-run spread of either set (inter-quartile
  distance over median) is wider than the bound and the two sets' runs
  overlap, so neither "unchanged" nor "worse" can be said;
* ``ok`` — otherwise (including: every run of B reads better than
  every run of A).

Exit code 1 when any row is ``worse``.  Make sets with
``run.py --runs 10 --out FILE``; a one-run file compares medians only.
"""

from __future__ import annotations

import json
import sys

from harness import quartiles, spread


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, B's change as a share of A's median; > 0 is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if max(spread(a), spread(b)) > bound:
        worse = [sign * v for v in b]
        base = [sign * v for v in a]
        if max(worse) < min(base):
            return "ok", change              # every run of B beats A
        if not (min(worse) > max(base) and change > bound):
            return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for metric, cell in entry["end_to_end"].items():
            if metric not in other["end_to_end"]:
                continue
            values_a = cell["values"]
            values_b = other["end_to_end"][metric]["values"]
            result, change = verdict(values_a, values_b, cell["better"],
                                     cell["bound"])
            rows.append({"workload": workload, "metric": metric,
                         "unit": cell["unit"], "bound": cell["bound"],
                         "a": quartiles(values_a), "b": quartiles(values_b),
                         "n": (len(values_a), len(values_b)),
                         "change": change, "verdict": result})
        for side, label in ((entry, "A"), (other, "B")):
            if side.get("failed"):
                rows.append({"workload": workload, "metric": "failed_share",
                             "unit": "", "bound": 0.0, "a": (0, 0, 0),
                             "b": (0, 0, 0), "n": (0, 0),
                             "change": side["failed"] / side["attempted"],
                             "verdict": "worse",
                             "note": f"{side['failed']} failed in {label}"})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<15}{'metric':<16}{'unit':>5}"
             f"{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
             f"{'runs':>7}{'worse by':>10}{'bound':>7}  verdict"]
    for row in rows:
        a = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["a"])
        b = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["b"])
        lines.append(
            f"{row['workload']:<15}{row['metric']:<16}{row['unit']:>5}"
            f"{a:>34}{b:>34}{'{}/{}'.format(*row['n']):>7}"
            f"{row['change']:>+10.2%}{row['bound']:>7.0%}  "
            f"{row['verdict']}{'  ' + row['note'] if 'note' in row else ''}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle_a, open(argv[1]) as handle_b:
        rows = compare(json.load(handle_a), json.load(handle_b))
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
