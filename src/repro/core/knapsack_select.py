"""``SimplifiedMKP`` — exact node selection for S/C Opt Nodes (Algorithm 1).

Pipeline: compute ``V_exclude`` and the pruned constraint sets
(:func:`repro.core.constraints.get_constraints`); lay the surviving
candidates out as a multidimensional 0-1 knapsack — profits = speedup
scores, one capacity-``M`` constraint per retained set, an item weighing its
size in exactly the sets containing it — and solve with branch-and-bound.
Candidates that appear in no retained constraint set can never contribute to
a violation, so they are flagged unconditionally (line 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.constraints import ConstraintSets, get_constraints
from repro.core.problem import ScProblem
from repro.solver.mkp import MkpInstance, MkpSolution, solve_mkp


@dataclass(frozen=True)
class SelectionResult:
    """Flagged-set choice plus solve diagnostics."""

    flagged: frozenset[str]
    total_score: float
    constraint_sets: ConstraintSets
    mkp_solution: MkpSolution | None
    n_variables: int
    n_constraints: int


def build_mkp_instance(problem: ScProblem,
                       constraints: ConstraintSets,
                       ) -> tuple[MkpInstance, list[str]]:
    """Lay out the MKP of Algorithm 1 lines 4-7.

    Returns the instance and the item-index → node-id mapping.  Profits
    are the scores at full precision: the paper rounds them to integers
    (footnote 3, an artifact of its ILP solver), our BnB handles floats.
    """
    mkp_nodes = sorted(constraints.mkp_nodes)
    profits = [problem.score_of(node) for node in mkp_nodes]
    weights = [
        [problem.size_of(node) if node in cset else 0.0
         for node in mkp_nodes]
        for cset in constraints.sets
    ]
    capacities = [problem.memory_budget] * len(constraints.sets)
    instance = MkpInstance.from_lists(profits, weights, capacities)
    return instance, mkp_nodes


def select_nodes_mkp(problem: ScProblem, order: Sequence[str],
                     tolerance: float = 0.01) -> SelectionResult:
    """Solve S/C Opt Nodes exactly for a fixed execution order.

    ``tolerance`` is the branch-and-bound relative optimality gap; the 1 %
    default mirrors the paper's integer rounding of scores (footnote 3),
    0 is fully exact.
    """
    constraints = get_constraints(problem, order)

    # Free nodes (not in any retained constraint set) are flagged outright —
    # but only when flagging them helps (score > 0 is implied: zero-score
    # nodes sit in V_exclude and never reach candidacy).
    flagged = set(constraints.free_nodes)

    solution: MkpSolution | None = None
    mkp_nodes: list[str] = []
    if constraints.sets:
        instance, mkp_nodes = build_mkp_instance(problem, constraints)
        solution = solve_mkp(instance, tolerance=tolerance)
        flagged.update(mkp_nodes[i] for i in solution.selected)

    return SelectionResult(
        flagged=frozenset(flagged),
        total_score=problem.total_score(flagged),
        constraint_sets=constraints,
        mkp_solution=solution,
        n_variables=len(mkp_nodes),
        n_constraints=len(constraints.sets),
    )
