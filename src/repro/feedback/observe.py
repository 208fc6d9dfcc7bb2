"""Observed-cost feedback: distilling a run's telemetry for the planner.

The S/C optimizer prices spill tiers with *modeled* per-byte costs
(:meth:`~repro.core.problem.TierAwareBudget.from_spill`): device presets
and codec ratios it has to take on faith.  PRs 2-4 gave the runtime
behaviors — spill arbitration, compression, prefetching — that make
those guesses drift from reality: a workload that compresses at 1.2x
instead of the preset 2.6x makes every tier look bigger and cheaper
than it is, and a device that is busier than its profile makes every
demotion dearer.

:class:`CostFeedback` closes that loop.  It reads the per-tier
telemetry a tiered run leaves in ``RunTrace.extras["tiered_store"]`` —
observed spill-write and promote-read seconds per GB and realized codec
ratios (from MiniDB's real spill dumps or the simulator's per-entry
compressibility), the three numbers per tier that planning reads — and
re-derives the planner's tier discounts from *observed* rather than
modeled costs (:meth:`CostFeedback.tier_budget`, backed by
:meth:`~repro.core.problem.TierAwareBudget.from_observations`).  The
next ``optimize()`` call then plans against the hierarchy the run
actually experienced: ``Controller.replan_from_trace(trace)`` /
``Controller.refresh(feedback=...)``, or ``repro-sc simulate --replan``
for the two-pass mode end to end.

Missing observations are never invented: a tier that saw no traffic
keeps its modeled price, and an ``observed_ratio`` of ``None`` means
"no spill reached this tier", which is distinct from ``1.0``
("incompressible").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import TierAwareBudget
from repro.errors import ValidationError


@dataclass(frozen=True)
class TierObservation:
    """What one run measured about one spill tier.

    Every cost field may be ``None`` — "this run produced no such
    traffic" — in which case the planner falls back to the modeled
    preset for that component.

    Attributes:
        name: tier label (matches :class:`~repro.store.config.TierSpec`).
        spill_write_seconds_per_gb: observed demotion cost per logical
            GB encoded into this tier (device write + encode, plus any
            cascade decode), averaged over the run.
        promote_read_seconds_per_gb: observed reload cost per logical GB
            read back out of this tier (device read + decode + promote
            create), averaged over the run.
        observed_ratio: realized codec ratio (logical GB per stored GB)
            of the bytes actually encoded into this tier; ``None`` when
            no spill reached it.
    """

    name: str
    spill_write_seconds_per_gb: float | None = None
    promote_read_seconds_per_gb: float | None = None
    observed_ratio: float | None = None


@dataclass(frozen=True)
class CostFeedback:
    """A run's observed storage costs, distilled for the next plan.

    Build with :meth:`from_trace`; feed to
    :meth:`~repro.engine.controller.Controller.refresh` via
    ``feedback=`` or derive a budget directly with :meth:`tier_budget`.

    Migration counts, arbitration outcomes, prefetch hits and codec
    switches stay in the trace's ``extras["tiered_store"]``: planning
    reads none of them.

    Attributes:
        tiers: per-spill-tier observations (RAM is not listed — the
            feedback loop re-prices the hierarchy *below* RAM).
    """

    tiers: tuple[TierObservation, ...]

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace) -> "CostFeedback":
        """Distill a :class:`~repro.engine.trace.RunTrace`.

        Every run carries per-tier observed seconds in the tier report:
        simulated runs their modeled charges, real-I/O runs
        (``charge_io=False``: MiniDB with a spill directory) the wall
        seconds they measure and record through
        :meth:`~repro.store.tiered.TieredLedger.record_wall_seconds`.
        Only a tier report without any seconds, under a single spill
        tier, has the node-level ``spill_write`` / ``promote_read``
        seconds attributed to that tier instead.

        Raises:
            ValidationError: when the trace carries no tiered-store
                telemetry (the run never armed a tiered store).
        """
        report = trace.extras.get("tiered_store")
        if not report:
            raise ValidationError(
                "trace carries no extras['tiered_store'] telemetry; "
                "run with a spill configuration to collect feedback")
        lower = report.get("tiers", [])[1:]  # skip the RAM rung
        observations = []
        for tier in lower:
            observed = tier.get("observed", {})
            observations.append(TierObservation(
                name=tier["name"],
                spill_write_seconds_per_gb=observed.get(
                    "spill_write_seconds_per_gb"),
                promote_read_seconds_per_gb=cls._read_leg(observed),
                observed_ratio=observed.get("observed_ratio")))
        return cls(tiers=tuple(
            cls._wall_clock_fallback(trace, report, observations)))

    @staticmethod
    def _read_leg(observed: dict) -> float | None:
        """Observed reload cost per GB: device read + decode + create."""
        read = observed.get("read_seconds_per_gb")
        create = observed.get("promote_create_seconds_per_gb")
        if read is None and create is None:
            return None
        return (read or 0.0) + (create or 0.0)

    @staticmethod
    def _wall_clock_fallback(trace, report: dict,
                             observations: list[TierObservation],
                             ) -> list[TierObservation]:
        """Attribute node-trace wall clocks to a single untimed tier.

        Only applies when the hierarchy has exactly one spill tier whose
        report carries no simulated seconds (a ``charge_io=False``
        real-I/O run) — with several tiers the wall clocks cannot be
        attributed and the modeled fallback stands.
        """
        if len(observations) != 1:
            return observations
        tier = observations[0]
        if tier.spill_write_seconds_per_gb is not None or \
                tier.promote_read_seconds_per_gb is not None:
            return observations
        spill_seconds = sum(n.spill_write for n in trace.nodes)
        promote_seconds = sum(n.promote_read for n in trace.nodes)
        spilled = report.get("spill_bytes_gb", 0.0)
        promoted = report.get("promote_bytes_gb", 0.0)
        write = (spill_seconds / spilled
                 if spill_seconds > 0 and spilled > 0 else None)
        read = (promote_seconds / promoted
                if promote_seconds > 0 and promoted > 0 else None)
        if write is None and read is None:
            return observations
        return [TierObservation(
            name=tier.name,
            spill_write_seconds_per_gb=write,
            promote_read_seconds_per_gb=read,
            observed_ratio=tier.observed_ratio)]

    # ------------------------------------------------------------------
    def tier_budget(self, ram: float, spill,
                    profile=None) -> TierAwareBudget:
        """Feedback-derived planner budget for the next run.

        Overrides each tier's write/read leg and codec ratio with this
        feedback's observations where they exist; everything unmeasured
        keeps :meth:`~repro.core.problem.TierAwareBudget.from_spill`'s
        modeled price.
        """
        observations = {
            tier.name: {
                "spill_write_seconds_per_gb":
                    tier.spill_write_seconds_per_gb,
                "promote_read_seconds_per_gb":
                    tier.promote_read_seconds_per_gb,
                "observed_ratio": tier.observed_ratio,
            }
            for tier in self.tiers
        }
        return TierAwareBudget.from_observations(
            ram, spill, observations, profile=profile)
