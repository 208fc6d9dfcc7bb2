"""Node-selection baselines (paper §VI-A): Greedy, Random, Ratio-based.

All three scan candidate nodes in some priority order and flag each node iff
doing so keeps the peak flagged residency within the Memory Catalog budget
under the *current* execution order. They differ only in the scan order:

* **Greedy** — execution order (the naive "keep it if there is room").
* **Random** — uniformly random order.
* **Ratio** — descending speedup-score / size ratio [Xin et al. 2021].

None of them reasons about *how long* a node will occupy memory, which is
the failure mode the paper demonstrates (§VI-F): a small early node with a
late consumer can blockade the catalog for the whole run.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.problem import ScProblem
from repro.core.residency import add_interval, residency_intervals


def _scan_flag(problem: ScProblem, order: Sequence[str],
               scan_order: Sequence[str]) -> frozenset[str]:
    """Flag nodes in ``scan_order`` whenever the budget still allows.

    Feasibility is tracked incrementally with a per-position usage profile;
    a node with residency ``[start, end]`` fits iff every covered position
    stays within the budget after adding its size.
    """
    import numpy as np

    budget = problem.memory_budget
    intervals = residency_intervals(problem.graph, order)
    profile = np.zeros(len(order))
    flagged: set[str] = set()
    for node in scan_order:
        size = problem.size_of(node)
        if size > budget:
            continue  # can never fit, mirrors V_exclude
        start, end = intervals[node]
        if add_interval(profile, start, end, size, budget + 1e-9):
            flagged.add(node)
    return frozenset(flagged)


def greedy_selection(problem: ScProblem,
                     order: Sequence[str]) -> frozenset[str]:
    """Flag in execution order while the budget holds."""
    return _scan_flag(problem, order, list(order))


def random_selection(problem: ScProblem, order: Sequence[str],
                     rng: random.Random | None = None) -> frozenset[str]:
    """Flag in uniformly random order while the budget holds."""
    rng = rng or random.Random(0)
    scan = list(order)
    rng.shuffle(scan)
    return _scan_flag(problem, order, scan)


def ratio_selection(problem: ScProblem,
                    order: Sequence[str]) -> frozenset[str]:
    """Flag by descending score/size ratio while the budget holds.

    Zero-size nodes sort first (infinite ratio — free speedup); zero-score
    nodes sort last and are only flagged into leftover space, exactly like
    the heuristic the paper compares against.
    """
    def ratio(node: str) -> float:
        size = problem.size_of(node)
        score = problem.score_of(node)
        if size == 0.0:
            return float("inf") if score > 0 else 0.0
        return score / size

    scan = sorted(order, key=ratio, reverse=True)
    return _scan_flag(problem, order, scan)
