"""A refresh plan: the execution order ``τ`` plus the flagged set ``U``.

This is the optimizer's output and the Controller's input (Figure 4 right):
run the nodes in ``order``; create each node in ``flagged`` inside the Memory
Catalog (materializing to storage in the background) and every other node
directly on storage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import GraphError, InfeasiblePlanError
from repro.graph.dag import DependencyGraph
from repro.graph.topo import check_topological_order


@dataclass(frozen=True)
class Plan:
    """Immutable (order, flagged) pair, optionally tier-annotated.

    Attributes:
        order: node ids in execution order (a topological order of the DAG).
        flagged: nodes whose outputs are kept in the Memory Catalog.
        expected_tiers: sorted ``(node, tier_name)`` pairs recorded by
            tier-aware planning — which storage tier each flagged node is
            *expected* to occupy at its peak residency (``"ram"`` or a
            spill-tier name).  Empty for tier-blind plans.  This is a
            planning estimate; the runtime's victim policy makes the
            actual placement.
    """

    order: tuple[str, ...]
    flagged: frozenset[str] = field(default_factory=frozenset)
    expected_tiers: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        unknown = self.flagged - set(self.order)
        if unknown:
            raise GraphError(
                f"flagged nodes missing from order: {sorted(unknown)}")
        object.__setattr__(self, "expected_tiers",
                           tuple(self.expected_tiers))
        stray = {v for v, _ in self.expected_tiers} - self.flagged
        if stray:
            raise GraphError(
                f"expected_tiers names unflagged nodes: {sorted(stray)}")

    # ------------------------------------------------------------------
    @classmethod
    def unoptimized(cls, order: Sequence[str]) -> "Plan":
        """The no-optimization baseline: serial execution, nothing flagged."""
        return cls(order=tuple(order), flagged=frozenset())

    @classmethod
    def make(cls, order: Sequence[str],
             flagged: Sequence[str] | set[str] | frozenset[str]) -> "Plan":
        return cls(order=tuple(order), flagged=frozenset(flagged))

    # ------------------------------------------------------------------
    def position(self, node_id: str) -> int:
        """0-based execution position ``τ(i)`` of a node."""
        try:
            return self.order.index(node_id)
        except ValueError:
            raise GraphError(f"node {node_id!r} not in plan order") from None

    def positions(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.order)}

    def is_flagged(self, node_id: str) -> bool:
        return node_id in self.flagged

    # ------------------------------------------------------------------
    def tier_map(self) -> dict[str, str]:
        """``{node: expected tier}`` from :attr:`expected_tiers`."""
        return dict(self.expected_tiers)

    def with_expected_tiers(self, tiers: "dict[str, str]") -> "Plan":
        """Copy of this plan annotated with expected tier placements."""
        return Plan(order=self.order, flagged=self.flagged,
                    expected_tiers=tuple(sorted(tiers.items())))

    def validate_against(self, graph: DependencyGraph) -> None:
        """Raise :class:`GraphError` unless ``order`` is a topological
        order of ``graph``; :func:`check_peak` tests the budget."""
        check_topological_order(graph, self.order)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {"order": list(self.order), "flagged": sorted(self.flagged)}
        if self.expected_tiers:
            payload["tiers"] = dict(self.expected_tiers)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Plan":
        return cls(order=tuple(payload["order"]),
                   flagged=frozenset(payload.get("flagged", [])),
                   expected_tiers=tuple(
                       sorted(payload.get("tiers", {}).items())))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Plan(n={len(self.order)}, "
                f"flagged={len(self.flagged)})")


def check_peak(peak: float, memory_budget: float) -> None:
    """Raise :class:`InfeasiblePlanError` when a plan's peak flagged
    residency exceeds ``memory_budget``."""
    if peak > memory_budget + 1e-9:
        raise InfeasiblePlanError(
            f"plan peak memory {peak:.6g} exceeds budget "
            f"{memory_budget:.6g}", peak=peak, budget=memory_budget)
