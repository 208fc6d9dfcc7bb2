"""Observed-cost feedback: distilling a run's telemetry for the planner.

The S/C optimizer prices spill tiers with *modeled* per-byte costs
(:meth:`~repro.core.problem.TierAwareBudget.from_spill`): device presets
and codec ratios it has to take on faith.  PRs 2-4 gave the runtime
behaviors — spill arbitration, compression, prefetching — that make
those guesses drift from reality: a workload that compresses at 1.2x
instead of the preset 2.6x makes every tier look bigger and cheaper
than it is, and a device that is busier than its profile makes every
demotion dearer.

:class:`CostFeedback` closes that loop. It reads the tier report a
tiered run leaves in its trace
(:meth:`~repro.engine.trace.RunTrace.tier_report`, typed in
:mod:`repro.store.report`) — observed spill-write and promote-read
seconds per GB and realized codec ratios (from MiniDB's real spill dumps
or the simulator's per-entry compressibility), the three numbers per
tier that planning reads — and re-derives the planner's tier discounts
from *observed* rather than modeled costs
(:meth:`CostFeedback.tier_budget`, backed by
:meth:`~repro.core.problem.TierAwareBudget.from_observations`). The next
``optimize()`` call then plans against the hierarchy the run actually
experienced: ``Controller.replan_from_trace(trace)`` /
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
from repro.store.report import Observed


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
    switches stay in the trace's tier report: planning reads none of
    them.

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
        :meth:`~repro.store.tiered.TieredLedger.record_wall_seconds`
        against the tier they moved bytes to or from.

        Raises:
            ValidationError: when the trace carries no tiered-store
                telemetry (the run never armed a tiered store).
        """
        report = trace.tier_report()
        if report is None:
            raise ValidationError(
                "trace carries no tier report; run with a spill "
                "configuration to collect feedback")
        return cls(tiers=tuple(TierObservation(
            name=tier.name,
            spill_write_seconds_per_gb=(
                tier.observed.spill_write_seconds_per_gb),
            promote_read_seconds_per_gb=cls._read_leg(tier.observed),
            observed_ratio=tier.observed.observed_ratio)
            for tier in report.tiers[1:]))  # skip the RAM rung

    @staticmethod
    def _read_leg(observed: Observed) -> float | None:
        """Observed reload cost per GB: device read + decode + create."""
        read = observed.read_seconds_per_gb
        create = observed.promote_create_seconds_per_gb
        if read is None and create is None:
            return None
        return (read or 0.0) + (create or 0.0)

    # ------------------------------------------------------------------
    def tier_budget(self, ram: float, spill,
                    profile=None) -> TierAwareBudget:
        """Feedback-derived planner budget for the next run.

        Overrides each tier's write/read leg and codec ratio with this
        feedback's observations where they exist; everything unmeasured
        keeps :meth:`~repro.core.problem.TierAwareBudget.from_spill`'s
        modeled price.
        """
        return TierAwareBudget.from_observations(
            ram, spill, self.tiers, profile=profile)
