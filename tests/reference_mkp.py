"""The branch-and-bound MKP solver as it stood before ISSUE 18 — test-only.

``ReferenceBranchAndBoundSolver`` is the parent commit's
``repro.solver.mkp.BranchAndBoundSolver``, body verbatim: dense rows,
every bound evaluated in full at every node, per-row orders built up
front. ``BranchAndBoundSolver`` must visit the same nodes in the same
order with the same prune verdicts, so on every instance the two return
equal ``MkpSolution`` fields; ``tests/test_mkp_parity.py`` holds it to
that. Everything else (instance type, the root LP) is imported from the
live module — through the module object, so a test that monkeypatches
``mkp._lp_relaxation`` switches the LP stage off for both solvers.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ValidationError
from repro.solver import mkp
from repro.solver.mkp import MkpInstance, MkpSolution

_EPS = mkp._EPS


class ReferenceBranchAndBoundSolver:
    """Configurable BnB solver; see module docstring for the algorithm.

    Attributes:
        node_limit: max search-tree nodes before returning the incumbent
            with ``optimal=False``.
        use_fractional_bound: disable to fall back to the (much weaker)
            remaining-profit-sum bound — exposed for the bound-strength
            ablation in the test suite.
        tolerance: relative optimality gap. Branches that cannot beat the
            incumbent by more than ``tolerance * incumbent`` are pruned,
            which collapses the near-tie plateaus typical of S/C instances.
            The paper achieves the same effect by rounding speedup scores
            to integers for its ILP (footnote 3); ``tolerance=0`` gives
            exact optimality.
    """

    def __init__(self, node_limit: int = 60_000,
                 use_fractional_bound: bool = True,
                 tolerance: float = 0.01):
        if node_limit < 1:
            raise ValidationError("node_limit must be >= 1")
        if tolerance < 0:
            raise ValidationError("tolerance must be >= 0")
        self.node_limit = node_limit
        self.use_fractional_bound = use_fractional_bound
        self.tolerance = tolerance

    # ------------------------------------------------------------------
    def solve(self, instance: MkpInstance) -> MkpSolution:
        n = instance.n_items
        if n == 0:
            return MkpSolution(selected=(), objective=0.0, optimal=True)

        profits = instance.profits
        weights = [list(row) for row in instance.weights]
        capacities = list(instance.capacities)
        n_rows = len(capacities)

        # Surrogate row: all constraints summed (itself a valid relaxation).
        surrogate = [sum(weights[x][i] for x in range(n_rows))
                     for i in range(n)]
        surrogate_cap = sum(capacities)

        # Items violating some constraint alone can never be selected.
        viable = [i for i in range(n)
                  if all(weights[x][i] <= capacities[x] + _EPS
                         for x in range(n_rows))]

        def density(i: int) -> float:
            if surrogate[i] <= 0:
                return float("inf")
            return profits[i] / surrogate[i]

        # Root LP relaxation: certification target and branching guidance.
        lp_bound, lp_values = mkp._lp_relaxation(instance, viable)

        if lp_values is not None:
            # Branch on confidently-included items first: the include-first
            # DFS then reaches an LP-shaped incumbent immediately.
            order = sorted(viable,
                           key=lambda i: (lp_values[i], density(i)),
                           reverse=True)
        else:
            order = sorted(viable, key=density, reverse=True)
        pos_of = {item: pos for pos, item in enumerate(order)}
        n_order = len(order)

        suffix_profit = [0.0] * (n_order + 1)
        for pos in range(n_order - 1, -1, -1):
            suffix_profit[pos] = suffix_profit[pos + 1] + profits[order[pos]]

        # Per row (plus surrogate): items with positive weight sorted by
        # profit ratio, and suffix sums of zero-weight item profits.
        bound_rows = [*range(n_rows), "surrogate"]
        row_weights: dict = {x: weights[x] for x in range(n_rows)}
        row_weights["surrogate"] = surrogate
        row_sorted: dict = {}
        row_zero_suffix: dict = {}
        for key in bound_rows:
            row = row_weights[key]
            weighted = [i for i in order if row[i] > 0]
            weighted.sort(key=lambda i: profits[i] / row[i], reverse=True)
            row_sorted[key] = weighted
            zero_suffix = [0.0] * (n_order + 1)
            for pos in range(n_order - 1, -1, -1):
                item = order[pos]
                extra = profits[item] if row[item] <= 0 else 0.0
                zero_suffix[pos] = zero_suffix[pos + 1] + extra
            row_zero_suffix[key] = zero_suffix

        def row_bound(key, pos: int, residual_value: float) -> float:
            """Dantzig bound of one row over undecided items order[pos:]."""
            total = row_zero_suffix[key][pos]
            remaining = residual_value
            row = row_weights[key]
            for item in row_sorted[key]:
                if pos_of[item] < pos:
                    continue  # already decided
                w = row[item]
                if w <= remaining:
                    remaining -= w
                    total += profits[item]
                else:
                    if remaining > 0:
                        total += profits[item] * (remaining / w)
                    break
            return total

        # Greedy warm start for the incumbent. When LP guidance is present,
        # `order` starts with the items the LP wants, so this doubles as
        # LP rounding.
        best_set = self._greedy(instance, order)
        best_profit = instance.objective(best_set)

        def certified() -> bool:
            return (lp_bound is not None
                    and best_profit >= lp_bound * (1.0 - self.tolerance)
                    - _EPS)

        if certified():
            return MkpSolution(
                selected=tuple(sorted(best_set)),
                objective=best_profit,
                optimal=True,
                nodes_explored=0,
                notes="certified by root LP relaxation within tolerance")

        residual = capacities[:]
        residual_surrogate = surrogate_cap
        nodes_explored = 0
        include_marks: list[int] = []
        current_profit = 0.0

        def prune_margin() -> float:
            return max(_EPS, self.tolerance * abs(best_profit))

        def bound(pos: int) -> float:
            remaining = suffix_profit[pos]
            ub = current_profit + remaining
            if not self.use_fractional_bound or remaining <= 0:
                return ub
            ub = min(ub, current_profit
                     + row_bound("surrogate", pos, residual_surrogate))
            if n_rows:
                tightest_residual = min(residual)
                tightest = residual.index(tightest_residual)
                ub = min(ub, current_profit
                         + row_bound(tightest, pos, tightest_residual))
            return ub

        # Iterative DFS frames: [pos, phase] with phase 0 = try include,
        # 1 = undo include / try exclude, 2 = unwind.
        stack: list[list[int]] = [[0, 0]]
        while stack:
            frame = stack[-1]
            pos, phase = frame
            if pos >= n_order:
                if current_profit > best_profit + _EPS:
                    best_profit = current_profit
                    best_set = [order[p] for p in include_marks]
                    if certified():
                        return MkpSolution(
                            selected=tuple(sorted(best_set)),
                            objective=best_profit,
                            optimal=True,
                            nodes_explored=nodes_explored,
                            notes="reached root-LP target during search")
                stack.pop()
                continue
            if phase == 0:
                nodes_explored += 1
                if nodes_explored > self.node_limit:
                    return MkpSolution(
                        selected=tuple(sorted(best_set)),
                        objective=best_profit,
                        optimal=False,
                        nodes_explored=nodes_explored,
                        notes="node limit reached; incumbent returned")
                if bound(pos) <= best_profit + prune_margin():
                    stack.pop()
                    continue
                item = order[pos]
                frame[1] = 1
                if all(weights[x][item] <= residual[x] + _EPS
                       for x in range(n_rows)):
                    for x in range(n_rows):
                        residual[x] -= weights[x][item]
                    residual_surrogate -= surrogate[item]
                    current_profit += profits[item]
                    include_marks.append(pos)
                    stack.append([pos + 1, 0])
                continue
            if phase == 1:
                if include_marks and include_marks[-1] == pos:
                    item = order[pos]
                    include_marks.pop()
                    current_profit -= profits[item]
                    for x in range(n_rows):
                        residual[x] += weights[x][item]
                    residual_surrogate += surrogate[item]
                frame[1] = 2
                if bound(pos + 1) > best_profit + prune_margin():
                    stack.append([pos + 1, 0])
                continue
            stack.pop()

        return MkpSolution(
            selected=tuple(sorted(best_set)),
            objective=best_profit,
            optimal=True,
            nodes_explored=nodes_explored)

    @staticmethod
    def _greedy(instance: MkpInstance, order: Sequence[int]) -> list[int]:
        residual = list(instance.capacities)
        taken: list[int] = []
        for item in order:
            if all(instance.weights[x][item] <= residual[x] + _EPS
                   for x in range(len(residual))):
                for x in range(len(residual)):
                    residual[x] -= instance.weights[x][item]
                taken.append(item)
        return taken
