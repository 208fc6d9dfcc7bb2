"""Plan explanation: why each node was (not) kept in memory.

``explain_plan`` renders the operator-facing story of an S/C plan: the
execution order, each node's flag decision with its *reason*, and the
Memory Catalog occupancy profile over the run (the shaded regions of the
paper's Figures 7 and 8, in ASCII).

Reasons follow the optimizer's own structure:

* ``kept`` — flagged; shows the residency span and per-node score;
* ``oversized`` — ``s_i > M`` (``V_exclude``);
* ``no benefit`` — ``t_i = 0`` (``V_exclude``; e.g. side-effecting loads);
* ``crowded out`` — a feasible candidate the MKP left unflagged because
  the budget was better spent on the listed co-resident winners.
"""

from __future__ import annotations

from repro.core.constraints import get_constraints
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.core.residency import memory_profile, residency_intervals
from repro.errors import ValidationError

_BLOCK = "█"


def memory_profile_chart(problem: ScProblem, plan: Plan) -> str:
    """Occupancy bar per execution position, 40 columns wide, scaled to
    the budget."""
    width = 40
    profile = memory_profile(problem.graph, plan.order, plan.flagged)
    budget = problem.memory_budget
    scale = max(budget, max(profile, default=0.0), 1e-12)
    label_width = max((len(v) for v in plan.order), default=4)
    lines = [f"{'position/node':<{label_width + 6}} Memory Catalog "
             f"occupancy (budget {budget:g})"]
    for position, node in enumerate(plan.order):
        used = profile[position]
        bar = _BLOCK * round(width * used / scale)
        marker = "*" if node in plan.flagged else " "
        lines.append(f"{position:>3} {marker}{node:<{label_width}} "
                     f"|{bar:<{width}}| {used:,.3g}")
    return "\n".join(lines)


def _reason_lines(problem: ScProblem, plan: Plan) -> dict[str, str]:
    """Per-node one-line decision reason."""
    graph = problem.graph
    constraints = get_constraints(problem, plan.order)
    intervals = residency_intervals(graph, plan.order)

    reasons: dict[str, str] = {}
    for node in plan.order:
        size = problem.size_of(node)
        score = problem.score_of(node)
        if node in plan.flagged:
            start, end = intervals[node]
            span = end - start
            reasons[node] = (
                f"kept       score {score:,.2f}; resident for "
                f"{span + 1} step(s), released after "
                f"{plan.order[end]!r}")
        elif size > problem.memory_budget:
            reasons[node] = (
                f"oversized  {size:,.3g} exceeds the {problem.memory_budget:,.3g} "
                "budget (V_exclude)")
        elif score <= 0:
            reasons[node] = "no benefit score is zero (V_exclude)"
        else:
            # the MKP preferred other co-resident nodes
            winners: list[str] = []
            for cset in constraints.sets:
                if node in cset:
                    winners.extend(
                        sorted(v for v in cset
                               if v in plan.flagged and v != node))
            if winners:
                unique = list(dict.fromkeys(winners))[:4]
                reasons[node] = ("crowded out budget spent on "
                                 + ", ".join(unique))
            else:
                reasons[node] = "crowded out infeasible with current order"
    return reasons


def explain_plan(problem: ScProblem, plan: Plan,
                 include_profile: bool = True) -> str:
    """Full human-readable explanation of a plan."""
    if set(plan.order) != set(problem.graph.nodes()):
        raise ValidationError(
            "plan order must cover exactly the problem's nodes")
    total_score = problem.total_score(plan.flagged)
    total_size = problem.total_size(plan.flagged)
    reasons = _reason_lines(problem, plan)
    label_width = max(len(v) for v in plan.order)

    lines = [
        f"S/C plan: {len(plan.flagged)}/{problem.graph.n} nodes kept in "
        f"memory ({total_size:,.3g} flagged bytes, "
        f"score {total_score:,.2f}, budget {problem.memory_budget:,.3g})",
        "",
    ]
    for i, node in enumerate(plan.order):
        mark = "*" if node in plan.flagged else " "
        lines.append(f"{i:>3} {mark} {node:<{label_width}}  "
                     f"size {problem.size_of(node):>9,.3g}  "
                     f"{reasons[node]}")
    if include_profile:
        lines.append("")
        lines.append(memory_profile_chart(problem, plan))
    return "\n".join(lines)
