"""Order-solver baselines for S/C Opt Order (paper §VI-A and §VI-F).

* **SA** — simulated annealing over dependency-safe swaps, minimizing
  average memory usage (10,000 iterations in the paper);
* **Separator** — recursive graph-separator ordering.

Each factory returns a callable with the ``OrderSolver`` signature used by
:class:`repro.core.alternating.AlternatingOptimizer`.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.problem import ScProblem
from repro.core.residency import average_memory_usage
from repro.graph.topo import kahn_topological_order
from repro.solver.sa import AnnealingSchedule, anneal_order
from repro.solver.separator import separator_order

OrderSolver = Callable[[ScProblem, frozenset[str]], Sequence[str]]


def sa_order_solver(schedule: AnnealingSchedule | None = None,
                    seed: int = 0) -> OrderSolver:
    """Simulated annealing minimizing average memory usage of ``flagged``."""
    schedule = schedule or AnnealingSchedule(iterations=10_000)

    def solve(problem: ScProblem, flagged: frozenset[str]) -> list[str]:
        graph = problem.graph
        initial = kahn_topological_order(graph)

        def objective(order: Sequence[str]) -> float:
            return average_memory_usage(graph, order, flagged)

        return anneal_order(graph, initial, objective, schedule=schedule,
                            rng=random.Random(seed))

    return solve


def separator_order_solver() -> OrderSolver:
    """Recursive-separator ordering weighted by flagged node sizes.

    As the paper notes (§VI-F), the Memory Catalog budget cannot be folded
    into the cut objective, so this solver frequently emits orders that are
    infeasible for the flag set — the alternating loop then stops early.
    """
    def solve(problem: ScProblem, flagged: frozenset[str]) -> list[str]:
        return separator_order(problem.graph, set(flagged))

    return solve
