"""Alternating optimization for S/C Opt (paper Algorithm 2).

Standard alternating optimization does not apply directly: improving ``τ``
while holding ``U`` fixed cannot increase the total speedup score. Instead
the order subproblem "relaxes the constraints" — it minimizes *average
memory usage*, freeing flagged nodes sooner so the *next* node-selection
round has room to flag more. The loop:

1. ``τ`` ← initial topological order; ``U`` ← ∅.
2. ``U_new`` ← node selection under ``τ`` (default: SimplifiedMKP).
3. If ``U_new`` does not improve on ``U`` (by total flagged **size**, per
   Algorithm 2 line 5; ``convergence="score"`` switches to total speedup
   score), stop and return the previous ``(U, τ)``.
4. ``τ_new`` ← order solver for ``U`` (default: MA-DFS). If ``τ_new``
   violates the budget, stop and return ``(U, τ)``.
5. ``τ`` ← ``τ_new``; go to 2.

Both subproblem solvers are injectable, which is how the paper's Figure 12
ablations (Greedy/Random/Ratio + MA-DFS, MKP + SA/Separator) are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.core.knapsack_select import select_nodes_mkp
from repro.core.madfs import ma_dfs_order
from repro.core.plan import Plan, check_peak
from repro.core.problem import ScProblem
from repro.core.residency import (
    interval_average,
    interval_peak,
    residency_intervals,
)
from repro.errors import ValidationError
from repro.graph.topo import is_topological_order, kahn_topological_order

# A node selector maps (problem, order) -> flagged set.
NodeSelector = Callable[[ScProblem, Sequence[str]], frozenset[str]]
# An order solver maps (problem, flagged) -> execution order.
OrderSolver = Callable[[ScProblem, frozenset[str]], Sequence[str]]


def mkp_node_selector(problem: ScProblem,
                      order: Sequence[str]) -> frozenset[str]:
    """Default node selector: Algorithm 1 (exact MKP)."""
    return select_nodes_mkp(problem, order).flagged


def madfs_order_solver(problem: ScProblem,
                       flagged: frozenset[str]) -> list[str]:
    """Default order solver: MA-DFS."""
    return ma_dfs_order(problem.graph, flagged)


@dataclass(frozen=True)
class IterationRecord:
    """One alternating round, for convergence inspection and tests."""

    iteration: int
    flagged: frozenset[str]
    total_score: float
    total_size: float
    peak_memory: float
    order_changed: bool


@dataclass
class AlternatingResult:
    """Final plan plus the optimization trace."""

    plan: Plan
    total_score: float
    peak_memory: float
    iterations: int
    stop_reason: str
    history: list[IterationRecord] = field(default_factory=list)


@dataclass
class AlternatingOptimizer:
    """Algorithm 2 with injectable subproblem solvers.

    Attributes:
        node_selector: solves S/C Opt Nodes for a fixed order.
        order_solver: solves S/C Opt Order for a fixed flagged set; ``None``
            keeps the initial order throughout (the paper's Figure 9
            baselines, which only select nodes).
        convergence: ``"size"`` (Algorithm 2 line 5) or ``"score"``.
        max_iterations: hard cap; the paper observes convergence in <10
            rounds on 100-node graphs, so the default is generous.
    """

    node_selector: NodeSelector = field(default=mkp_node_selector)
    order_solver: OrderSolver | None = field(default=madfs_order_solver)
    convergence: str = "size"
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if self.convergence not in ("size", "score"):
            raise ValidationError(
                f"convergence must be 'size' or 'score', "
                f"got {self.convergence!r}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")

    # ------------------------------------------------------------------
    def optimize(self, problem: ScProblem,
                 initial_order: Sequence[str] | None = None,
                 ) -> AlternatingResult:
        graph = problem.graph
        if initial_order is None:
            order = kahn_topological_order(graph)
        else:
            order = list(initial_order)
            if not is_topological_order(graph, order):
                raise ValidationError("initial_order is not a valid "
                                      "topological order")

        flagged: frozenset[str] = frozenset()
        # The order under which `flagged` was selected. A reorder exists
        # only to enable *more* flags in the next round; if it fails to, the
        # plan returns this order — equally good for the selected set and
        # free of gratuitous reshuffling.
        selection_order = list(order)
        selection_peak = 0.0
        # Each order's residency intervals are built once and each
        # (order, flagged) peak computed once; a peak iterates
        # set(flagged), as peak_memory_usage does, so its float is the same.
        intervals = None      # of `order`, built when first needed
        history: list[IterationRecord] = []
        stop_reason = "max_iterations"

        for iteration in range(1, self.max_iterations + 1):
            new_flagged = frozenset(self.node_selector(problem, order))
            if not self._improves(problem, new_flagged, flagged):
                stop_reason = "no_improvement"
                break
            flagged = new_flagged
            selection_order = list(order)
            if intervals is None:
                intervals = residency_intervals(graph, order)
            selection_peak = interval_peak(graph, intervals, set(flagged))
            history.append(IterationRecord(
                iteration=iteration,
                flagged=flagged,
                total_score=problem.total_score(flagged),
                total_size=problem.total_size(flagged),
                peak_memory=selection_peak,
                order_changed=False,
            ))
            if self.order_solver is None:
                stop_reason = "selection_only"
                break
            new_order = list(self.order_solver(problem, flagged))
            new_intervals = residency_intervals(graph, new_order)
            peak = interval_peak(graph, new_intervals, set(flagged))
            if peak > problem.memory_budget + 1e-9:
                # The new order cannot host the current flag set; the
                # previous order is our final answer (Algorithm 2 line 8).
                stop_reason = "order_infeasible"
                break
            # Adopt the new order only when it strictly improves the order
            # subproblem's own objective — otherwise the incumbent order is
            # already as good and reshuffling buys nothing.
            if (interval_average(graph, new_intervals, flagged)
                    >= interval_average(graph, intervals, flagged) - 1e-12):
                stop_reason = "order_not_improved"
                break
            order, intervals = new_order, new_intervals
            history[-1] = replace(history[-1], peak_memory=peak,
                                  order_changed=True)

        plan = Plan.make(selection_order, flagged)
        plan.validate_against(graph)
        check_peak(selection_peak, problem.memory_budget)
        return AlternatingResult(
            plan=plan,
            total_score=problem.total_score(flagged),
            peak_memory=selection_peak,
            iterations=len(history),
            stop_reason=stop_reason,
            history=history,
        )

    # ------------------------------------------------------------------
    def _improves(self, problem: ScProblem, new: frozenset[str],
                  old: frozenset[str]) -> bool:
        if self.convergence == "size":
            return problem.total_size(new) > problem.total_size(old)
        return problem.total_score(new) > problem.total_score(old)
