"""S/C Opt problem container (paper Problem 1) and the tier-aware budget.

Bundles the four inputs — dependency graph ``G``, node sizes ``S``, speedup
scores ``T`` (both carried on the graph's nodes), and the Memory Catalog
size ``M`` — plus the convenience accessors every solver component needs.

:class:`TierAwareBudget` extends ``M`` with the storage hierarchy below
RAM: each spill tier contributes its capacity *discounted* by how much a
byte parked there is worth relative to a byte in RAM, priced from the
tier's :class:`~repro.metadata.costmodel.DeviceProfile` (spill-write plus
promote-read seconds per GB, cf. the storage-hierarchy cost treatment in
*Optimised Storage for Datalog Reasoning* and the decode-cost accounting
in *Datalog Reasoning over Compressed RDF Knowledge Bases*).  A problem
carrying a tier budget lets the optimizer flag more aggressively when
spilling is cheap — the solver prices candidates against the *effective*
budget instead of RAM alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ValidationError
from repro.graph.dag import DependencyGraph

if TYPE_CHECKING:  # annotation-only; importing repro.metadata here would
    # cycle through its package init back into repro.core
    from repro.feedback import TierObservation
    from repro.metadata.costmodel import DeviceProfile
    from repro.store.config import SpillConfig


@dataclass(frozen=True)
class TierCapacity:
    """One spill tier as the *planner* sees it.

    Attributes:
        name: tier label (matches the runtime's
            :class:`~repro.store.config.TierSpec` name).
        capacity: admissible *logical* GB in this tier — the raw device
            budget scaled by the codec ratio, since a compressing tier
            hosts ``ratio`` logical bytes per stored byte (``math.inf``
            for an unbounded last tier; clamped by the caller before
            use).
        discount: worth of one byte here relative to a byte of RAM, in
            ``[0, 1]`` — ``0`` means parking data in this tier costs as
            much as not flagging it at all, ``1`` means it is as good as
            RAM.
        penalty_seconds_per_gb: modeled spill-write + promote-read
            round-trip cost per logical GB that produced the discount —
            compressed device transfer plus the codec's encode + decode
            stages.
        codec_ratio: the spill codec's compression ratio priced into
            ``capacity`` and ``penalty_seconds_per_gb`` (1.0 = no
            codec).
    """

    name: str
    capacity: float
    discount: float
    penalty_seconds_per_gb: float
    codec_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount <= 1.0:
            raise ValidationError(
                f"tier {self.name!r} discount must be in [0, 1], "
                f"got {self.discount}")
        if not self.capacity >= 0:  # also rejects NaN
            raise ValidationError(
                f"tier {self.name!r} capacity must be >= 0")


@dataclass(frozen=True)
class TierAwareBudget:
    """The Memory Catalog budget extended by discounted spill tiers.

    The effective budget the optimizer may fill is::

        ram + Σ_t min(capacity_t, clamp) * discount_t

    where ``discount_t = max(0, 1 - penalty_t / ram_gain)``:
    ``penalty_t`` is tier *t*'s spill-write + promote-read seconds per
    GB and ``ram_gain`` is what flagging one GB into RAM saves versus
    the warehouse path (blocking write + codec read, minus the in-memory
    create and read).  A tier whose round trip costs as much as the
    warehouse contributes nothing; a near-free tier contributes almost
    its full capacity.  Both figures come from
    :mod:`repro.store.pricing`, the functions the runtime ledger bills
    through, so a plan and its run price a tier alike.

    Attributes:
        ram: the RAM (Memory Catalog) budget, in GB.
        tiers: lower tiers, hottest first.
    """

    ram: float
    tiers: tuple[TierCapacity, ...] = ()

    def __post_init__(self) -> None:
        if not self.ram >= 0:  # also rejects NaN
            raise ValidationError("ram budget must be >= 0")
        object.__setattr__(self, "tiers", tuple(self.tiers))

    # ------------------------------------------------------------------
    @classmethod
    def from_spill(cls, ram: float, spill: "SpillConfig",
                   profile: "DeviceProfile | None" = None,
                   ) -> "TierAwareBudget":
        """Price a runtime :class:`~repro.store.config.SpillConfig`.

        Args:
            ram: RAM budget in GB (the classic ``M``).
            spill: the tier hierarchy the run will execute with.
            profile: warehouse device model used to value a RAM byte
                (defaults to the paper-calibrated
                :class:`~repro.metadata.costmodel.DeviceProfile`).

        Returns:
            A budget whose per-tier discounts reflect each tier's
            spill-write + promote-read cost per byte.  With a spill
            codec armed, each tier's effective capacity scales by the
            codec ratio (compressed bytes occupy the device, logical
            bytes fill the plan) and its penalty gains the encode +
            decode seconds per logical GB — so tier-aware plans flag
            more exactly when compression makes spilling favorable.
        """
        return cls.from_observations(ram, spill, observations=None,
                                     profile=profile)

    @classmethod
    def from_observations(cls, ram: float, spill: "SpillConfig",
                          observations: Sequence[TierObservation] | None,
                          profile: "DeviceProfile | None" = None,
                          ) -> "TierAwareBudget":
        """Price a spill hierarchy from *observed* per-byte costs.

        The feedback-loop counterpart of :meth:`from_spill`: instead of
        trusting the device/codec presets, each tier's write leg, read
        leg, and codec ratio may be overridden with figures measured
        from a previous (or in-flight) run — see
        :meth:`repro.feedback.CostFeedback.tier_budget`, which hands
        over the rows it distilled from a ``RunTrace``.

        Args:
            ram: RAM budget in GB.
            spill: the tier hierarchy the next run will execute with.
            observations: one :class:`~repro.feedback.TierObservation`
                per observed tier, matched to ``spill``'s tiers by
                name.  A missing tier or a ``None`` figure ("no data")
                falls back to the modeled preset, so a partial
                observation never degrades the budget below
                :meth:`from_spill`'s answer.
            profile: warehouse device model valuing a RAM byte.

        Returns:
            A budget whose discounts reflect observed reality where it
            was measured and the model everywhere else.
        """
        # imported here: the packages import repro.core on their way in
        from repro.feedback import TierObservation
        from repro.metadata.costmodel import DeviceProfile
        from repro.store import pricing

        ram_gain = pricing.warehouse_ram_gain(profile or DeviceProfile())
        by_name = {tier.name: tier for tier in observations or ()}
        tiers = []
        for spec in spill.tiers:
            device = spec.resolved_profile()
            codec = spec.resolved_codec(spill.codec)
            observed = by_name.get(spec.name) or TierObservation(spec.name)
            ratio = observed.observed_ratio
            if ratio is None:
                ratio = codec.ratio
            # modeled fallback legs divide the transfer by the best
            # known ratio — the observed one when the run measured it —
            # so a budget never mixes observed capacity with
            # preset-ratio transfer pricing
            write_leg = observed.spill_write_seconds_per_gb
            if write_leg is None:
                write_leg = pricing.write_leg_per_gb(device, codec, ratio)
            read_leg = observed.promote_read_seconds_per_gb
            if read_leg is None:
                read_leg = pricing.read_leg_per_gb(device, codec, ratio)
            penalty = write_leg + read_leg
            discount = (max(0.0, 1.0 - penalty / ram_gain)
                        if ram_gain > 0 else 0.0)
            tiers.append(TierCapacity(
                name=spec.name, capacity=spec.budget * ratio,
                discount=discount, penalty_seconds_per_gb=penalty,
                codec_ratio=ratio))
        return cls(ram=ram, tiers=tuple(tiers))

    # ------------------------------------------------------------------
    def effective_budget(self, clamp: float = math.inf) -> float:
        """RAM plus the discounted tier capacities.

        Args:
            clamp: cap applied to each tier's capacity before
                discounting — pass the graph's total size so an
                unbounded last tier contributes a finite amount (no run
                can park more bytes than the workload produces).
        """
        return self.ram + sum(min(t.capacity, clamp) * t.discount
                              for t in self.tiers)

    def hostable_limit(self) -> float:
        """Largest single entry *some* tier (RAM included) can host.

        The summed effective budget can exceed every individual tier's
        capacity; a node bigger than this limit can never be resident
        anywhere and must stay excluded from flagging.
        """
        return max([self.ram] + [t.capacity for t in self.tiers])


@dataclass
class ScProblem:
    """An S/C Opt instance.

    Attributes:
        graph: the dependency DAG; node ``size``/``score`` attributes supply
            ``S`` and ``T``. Validated acyclic on construction.
        memory_budget: Memory Catalog size ``M`` (same unit as node sizes).
        tier_budget: optional :class:`TierAwareBudget` describing the
            storage hierarchy below RAM; when present the optimizer
            prices flagging candidates against :attr:`effective_budget`
            instead of RAM alone and records each flagged node's
            expected tier on the plan.  ``None`` keeps classic
            (tier-blind) planning.
        size_cap: optional per-node size ceiling applied to flagging
            candidacy on top of the budget — tier-aware optimization
            uses it to carry the hierarchy's
            :meth:`TierAwareBudget.hostable_limit` into the shadow
            problem it hands the solvers, so a node no single tier can
            host stays excluded even though the summed effective budget
            would admit it.
    """

    graph: DependencyGraph
    memory_budget: float
    tier_budget: TierAwareBudget | None = None
    size_cap: float | None = None
    _sizes: dict[str, float] = field(init=False, repr=False)
    _scores: dict[str, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.memory_budget >= 0:  # also rejects NaN
            raise ValidationError(
                f"memory_budget must be >= 0, got {self.memory_budget}")
        if self.size_cap is not None and not self.size_cap >= 0:
            raise ValidationError(
                f"size_cap must be >= 0, got {self.size_cap}")
        if (self.tier_budget is not None
                and abs(self.tier_budget.ram - self.memory_budget) > 1e-9):
            raise ValidationError(
                f"tier_budget.ram ({self.tier_budget.ram:.6g}) must match "
                f"memory_budget ({self.memory_budget:.6g})")
        self.graph.validate()
        self._sizes = self.graph.sizes()
        self._scores = self.graph.scores()

    # ------------------------------------------------------------------
    @classmethod
    def from_tables(cls, edges: list[tuple[str, str]],
                    sizes: Mapping[str, float],
                    scores: Mapping[str, float],
                    memory_budget: float,
                    tier_budget: TierAwareBudget | None = None,
                    ) -> "ScProblem":
        """Build directly from edge/size/score tables (tests, toy examples)."""
        graph = DependencyGraph.from_edges(edges, sizes=sizes, scores=scores)
        return cls(graph=graph, memory_budget=memory_budget,
                   tier_budget=tier_budget)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.graph.n

    def size_of(self, node_id: str) -> float:
        return self._sizes[node_id]

    def score_of(self, node_id: str) -> float:
        return self._scores[node_id]

    @property
    def sizes(self) -> dict[str, float]:
        return dict(self._sizes)

    @property
    def scores(self) -> dict[str, float]:
        return dict(self._scores)

    def total_score(self, flagged: set[str] | frozenset[str]) -> float:
        """Objective of S/C Opt: ``Σ_{v in U} t_v`` — summed exactly, so
        the same set gives the same float in any iteration order."""
        return math.fsum(self._scores[v] for v in flagged)

    def total_size(self, flagged: set[str] | frozenset[str]) -> float:
        """Algorithm 2's convergence metric: ``Σ_{v in U} s_v`` (exact
        sum: a hash-order ulp must not read as an improvement)."""
        return math.fsum(self._sizes[v] for v in flagged)

    @property
    def effective_budget(self) -> float:
        """Budget the optimizer may fill with flagged bytes.

        Equals ``memory_budget`` for tier-blind problems; with a
        :attr:`tier_budget` it is RAM plus the discounted tier
        capacities, each clamped to the graph's total size (an unbounded
        last tier can never absorb more bytes than the workload makes).
        """
        if self.tier_budget is None:
            return self.memory_budget
        return self.tier_budget.effective_budget(
            clamp=self.graph.total_size())

    def excluded_nodes(self) -> set[str]:
        """``V_exclude`` of Algorithm 1: oversized or zero-benefit nodes.

        With a tier-aware budget, "oversized" relaxes to the *effective*
        budget — a node larger than RAM alone can still be flagged
        because the runtime places such outputs directly in a lower
        tier with their flag intact — but the node must still fit in
        *some single* tier: the summed effective budget could otherwise
        admit a node no tier can physically host, and the runtime would
        strip its flag after paying for futile demotions.
        """
        limit = self.effective_budget
        if self.tier_budget is not None:
            limit = min(limit, self.tier_budget.hostable_limit())
        if self.size_cap is not None:
            limit = min(limit, self.size_cap)
        return {
            v for v in self.graph.nodes()
            if self._sizes[v] > limit or self._scores[v] == 0.0
        }
