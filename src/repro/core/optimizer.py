"""Optimizer facade: every method from the paper behind one function.

``optimize(problem, method=...)`` wires a node selector and an order solver
into the alternating loop. Method names follow the paper's figures:

========================  ============================  =====================
name                      node selection                execution order
========================  ============================  =====================
``none``                  nothing flagged               initial topological
``sc`` / ``mkp+madfs``    SimplifiedMKP (exact)         MA-DFS  *(ours)*
``mkp``                   SimplifiedMKP                 initial topological
``greedy``                greedy scan                   initial topological
``random``                random scan                   initial topological
``ratio``                 score/size ratio scan         initial topological
``greedy+madfs``          greedy scan                   MA-DFS
``random+madfs``          random scan                   MA-DFS
``ratio+madfs``           ratio scan                    MA-DFS
``mkp+sa``                SimplifiedMKP                 simulated annealing
``mkp+separator``         SimplifiedMKP                 recursive separators
========================  ============================  =====================

The LRU baseline of Figure 9 is not an optimizer (it makes no plan); it
lives in :mod:`repro.exec.lru` and is selected through
:mod:`repro.bench.methods`.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace
from typing import Callable, Sequence

from repro.core.alternating import (
    AlternatingOptimizer,
    AlternatingResult,
    madfs_order_solver,
    mkp_node_selector,
)
from repro.core.order_baselines import (
    sa_order_solver,
    separator_order_solver,
)
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.core.residency import assign_expected_tiers, peak_memory_usage
from repro.core.selection_baselines import (
    greedy_selection,
    random_selection,
    ratio_selection,
)
from repro.errors import ValidationError
from repro.graph.topo import kahn_topological_order


def _random_selector(seed: int):
    """Random-scan selector with a fresh seeded RNG per ``select()`` call.

    Each alternating iteration gets its own RNG derived from ``(seed,
    call index)`` — no RNG state is shared across iterations, so results
    depend only on the seed and the iteration number, not on how many
    rounds the alternating loop happens to run, and different iterations
    explore different scan orders.
    """
    calls = itertools.count()

    def select(problem: ScProblem, order: Sequence[str]) -> frozenset[str]:
        # Knuth-style mix keeps per-iteration streams disjoint and stable
        rng = random.Random(seed * 2_654_435_761 + next(calls))
        return random_selection(problem, order, rng=rng)

    return select


def _build(method: str, seed: int) -> AlternatingOptimizer:
    selectors = {
        "mkp": mkp_node_selector,
        "greedy": greedy_selection,
        "random": _random_selector(seed),
        "ratio": ratio_selection,
    }
    order_solvers = {
        "madfs": madfs_order_solver,
        "sa": sa_order_solver(seed=seed),
        "separator": separator_order_solver(),
        None: None,
    }
    if "+" in method:
        selection_name, order_name = method.split("+", 1)
    else:
        selection_name, order_name = method, None
    if selection_name not in selectors:
        raise ValidationError(f"unknown selection method "
                              f"{selection_name!r} in {method!r}")
    if order_name not in order_solvers:
        raise ValidationError(f"unknown order method "
                              f"{order_name!r} in {method!r}")
    return AlternatingOptimizer(
        node_selector=selectors[selection_name],
        order_solver=order_solvers[order_name],
    )


#: Method names accepted by :func:`optimize`.
OPTIMIZER_METHODS: tuple[str, ...] = (
    "none",
    "sc",
    "mkp",
    "greedy",
    "random",
    "ratio",
    "mkp+madfs",
    "greedy+madfs",
    "random+madfs",
    "ratio+madfs",
    "mkp+sa",
    "mkp+separator",
)


def optimize(problem: ScProblem, method: str = "sc",
             seed: int = 0,
             initial_order: Sequence[str] | None = None,
             ) -> AlternatingResult:
    """Produce a refresh plan with the requested method.

    Args:
        problem: the S/C Opt instance.  When it carries a
            :class:`~repro.core.problem.TierAwareBudget`, node selection
            is priced against the *effective* budget (RAM plus the
            discounted spill tiers) and the returned plan's
            ``expected_tiers`` records which tier each flagged node is
            expected to occupy.
        method: one of :data:`OPTIMIZER_METHODS` (see the module table).
        seed: feeds the stochastic components (random selection, SA);
            exact methods ignore it.
        initial_order: starting topological order for the alternating
            loop (default: Kahn's order).

    Returns:
        An :class:`~repro.core.alternating.AlternatingResult` whose
        ``plan`` holds the execution order and flagged set.

    Raises:
        ValidationError: for an unknown ``method`` or an
            ``initial_order`` that is not a topological order.

    Example:
        >>> from repro.core.problem import ScProblem
        >>> problem = ScProblem.from_tables(
        ...     edges=[("a", "b")], sizes={"a": 1.0, "b": 1.0},
        ...     scores={"a": 5.0, "b": 0.0}, memory_budget=2.0)
        >>> result = optimize(problem, method="sc")
        >>> sorted(result.plan.flagged)
        ['a']
        >>> result.plan.order
        ('a', 'b')
    """
    if method not in OPTIMIZER_METHODS:
        raise ValidationError(
            f"unknown method {method!r}; choose from {OPTIMIZER_METHODS}")
    if problem.tier_budget is not None:
        return _optimize_tier_aware(problem, method, seed, initial_order)
    if method == "none":
        order = (list(initial_order) if initial_order is not None
                 else kahn_topological_order(problem.graph))
        plan = Plan.unoptimized(order)
        return AlternatingResult(
            plan=plan, total_score=0.0,
            peak_memory=peak_memory_usage(problem.graph, plan.order,
                                          plan.flagged),
            iterations=0,
            stop_reason="no_optimization", history=[])
    if method == "sc":
        method = "mkp+madfs"
    optimizer = _build(method, seed)
    return optimizer.optimize(problem, initial_order=initial_order)


def _optimize_tier_aware(problem: ScProblem, method: str, seed: int,
                         initial_order: Sequence[str] | None,
                         ) -> AlternatingResult:
    """Spill-aware planning: solve against the effective budget.

    The existing knapsack/ordering paths run unchanged on a shadow
    problem whose Memory Catalog is the tier-aware *effective* budget —
    RAM plus each spill tier's capacity discounted by its spill-write +
    promote-read cost per byte — so selection flags more aggressively
    exactly when spilling is cheap.  The returned plan is annotated with
    the static tier placement every flagged node is expected to get.
    """
    tier_budget = problem.tier_budget
    solver_problem = ScProblem(graph=problem.graph,
                               memory_budget=problem.effective_budget,
                               size_cap=tier_budget.hostable_limit())
    result = optimize(solver_problem, method=method, seed=seed,
                      initial_order=initial_order)
    clamp = problem.graph.total_size()
    placement = assign_expected_tiers(
        problem.graph, result.plan.order, result.plan.flagged,
        problem.memory_budget,
        [(t.name, min(t.capacity, clamp)) for t in tier_budget.tiers])
    return replace(result, plan=result.plan.with_expected_tiers(placement))


def plan_summary(problem: ScProblem, result: AlternatingResult) -> dict:
    """Small dict of plan quality metrics (used by reports and the CLI)."""
    plan = result.plan
    summary = {
        "n_nodes": problem.n,
        "n_flagged": len(plan.flagged),
        "total_score": problem.total_score(plan.flagged),
        "flagged_size": problem.total_size(plan.flagged),
        "peak_memory": peak_memory_usage(problem.graph, plan.order,
                                         plan.flagged),
        "memory_budget": problem.memory_budget,
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
    }
    if problem.tier_budget is not None:
        summary["effective_budget"] = problem.effective_budget
    if plan.expected_tiers:
        counts = Counter(plan.tier_map().values())
        summary["planned_tiers"] = dict(sorted(counts.items()))
    return summary
