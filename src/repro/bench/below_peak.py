"""The below-peak cell: one way to run a DAG under less RAM than it wants.

Every tiered experiment here asks what a refresh costs when the RAM
tier is smaller than the plan's live set and a spill hierarchy takes
the overflow; they differ only in the arms they compare.  A
:class:`Case` is a DAG, its plan at ``0.3 x`` total size and that
plan's no-spill peak — the 100% RAM point a sweep's fractions are
relative to.  :func:`run_cell` plans (one of four ways) and executes
one refresh under a RAM budget and a spill configuration, through
:class:`~repro.engine.controller.Controller` only (``plan`` /
``refresh`` / ``replan_from_trace``), so a sweep point and a
``bench matrix`` cell cannot price tiers or close the feedback loop
differently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.core.plan import Plan
from repro.engine.controller import Controller
from repro.engine.trace import RunTrace
from repro.exec.base import SimulatorOptions
from repro.graph.dag import DependencyGraph
from repro.store.config import SpillConfig, TierSpec
from repro.store.report import TierReport
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

#: How :func:`run_cell` comes by its plan: ``given`` executes the
#: caller's, ``blind`` optimizes as if RAM were the only tier,
#: ``aware`` against the spill tiers' discounted capacities, ``replan``
#: runs ``aware``, distills the trace's observed tier costs and runs
#: the re-planned refresh as a second pass.
PLANNING_ARMS = ("given", "blind", "aware", "replan")


@dataclass(frozen=True)
class Case:
    """A DAG, its full-budget plan and that plan's no-spill peak."""

    graph: DependencyGraph
    plan: Plan
    peak: float


def generated_cases(n_dags: int, n_nodes: int, seed: int,
                    stamp: Callable[[DependencyGraph, int], None]
                    | None = None) -> list[Case]:
    """``n_dags`` generated DAGs (height/width 0.5, seeds ``seed + i``),
    each planned at ``0.3 x`` its total size and run once without tiers
    for its peak.  ``stamp(graph, i)`` may annotate a graph before it
    is planned (the feedback sweep's compressibility mixes)."""
    generator = WorkloadGenerator()
    config = GeneratedWorkloadConfig(n_nodes=n_nodes,
                                     height_width_ratio=0.5)
    controller = Controller()
    cases = []
    for i in range(n_dags):
        graph = generator.generate(config, seed=seed + i)
        if stamp is not None:
            stamp(graph, i)
        budget = 0.3 * graph.total_size()
        plan = controller.plan(graph, budget, method="sc", seed=seed)
        peak = controller.refresh(graph, budget, plan=plan,
                                  method="sc").peak_catalog_usage
        cases.append(Case(graph, plan, peak))
    return cases


def ssd_and_disk(peak: float) -> tuple[TierSpec, TierSpec]:
    """The sweeps' hierarchy: an SSD half the size of the no-spill peak
    over an unbounded disk."""
    return TierSpec("ssd", 0.5 * peak), TierSpec("disk")


@dataclass(frozen=True)
class CellRun:
    """One executed pass: the plan it ran and the trace it left.
    ``first`` is the static tier-aware pass a ``replan`` cell ran
    before the reported one."""

    plan: Plan | None
    trace: RunTrace
    first: CellRun | None = None

    @cached_property
    def report(self) -> TierReport | None:
        """The run's tier report (``None`` untiered)."""
        return self.trace.tier_report()

    def within(self, ram: float) -> bool:
        """The RAM budget held: on the trace's catalog peak and on the
        store's own tier-0 peak, for every pass of the cell."""
        return (self.trace.peak_catalog_usage <= ram + 1e-9
                and (self.report is None
                     or self.report.tiers[0].peak <= ram + 1e-9)
                and (self.first is None or self.first.within(ram)))


def run_cell(graph: DependencyGraph, ram: float, spill: SpillConfig | None,
             planning: str, *, plan: Plan | None = None, method: str = "sc",
             seed: int = 0, backend: str | None = None, workers: int = 1,
             cancel: threading.Event | None = None) -> CellRun:
    """Plan (per ``planning``, see :data:`PLANNING_ARMS`) and execute
    one refresh of ``graph`` under ``ram`` GB of RAM over ``spill``.

    Nothing is validated here that :class:`Controller` already defines:
    ``given`` without a ``plan`` lets ``refresh`` optimize tier-blind
    (or run a plan-free baseline such as ``method="lru"``), ``aware`` /
    ``replan`` without a spill configuration raise its
    ``ValidationError``.
    """
    if planning not in PLANNING_ARMS:
        raise ValueError(f"planning must be one of {PLANNING_ARMS}, "
                         f"not {planning!r}")
    controller = Controller(options=SimulatorOptions(spill=spill),
                            cancel=cancel)

    def execute(plan: Plan | None) -> RunTrace:
        return controller.refresh(graph, ram, method=method, seed=seed,
                                  plan=plan, backend=backend,
                                  workers=workers)

    if planning != "given":
        plan = controller.plan(graph, ram, method=method, seed=seed,
                               tier_aware=planning != "blind")
    run = CellRun(plan, execute(plan))
    if planning == "replan":
        plan = controller.replan_from_trace(graph, run.trace, ram,
                                            method=method, seed=seed)
        run = CellRun(plan, execute(plan), first=run)
    return run
