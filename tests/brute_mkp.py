"""Exhaustive MKP solver — the test oracle for the MILP solver.

Enumerates all ``2^n`` subsets, so it is only usable for small ``n``; the
test suite uses it to certify the MILP's optimality on small instances.
"""

from __future__ import annotations

from itertools import combinations

from repro.errors import ValidationError
from repro.solver.mkp import MkpInstance, MkpSolution

_MAX_ITEMS = 22


def solve_mkp_brute_force(instance: MkpInstance) -> MkpSolution:
    """Optimal solution by subset enumeration (``n_items`` <= 22)."""
    n = instance.n_items
    if n > _MAX_ITEMS:
        raise ValidationError(
            f"brute force limited to {_MAX_ITEMS} items, got {n}")
    best_profit = 0.0
    best: tuple[int, ...] = ()
    items = list(range(n))
    for size in range(n + 1):
        for subset in combinations(items, size):
            if not instance.is_feasible(subset):
                continue
            profit = instance.objective(subset)
            if profit > best_profit + 1e-12:
                best_profit = profit
                best = subset
    return MkpSolution(selected=best, objective=best_profit)
