"""ExecutionBackend protocol and the backend registry.

A backend turns a (graph, plan, budget) triple into a
:class:`~repro.engine.trace.RunTrace` through :meth:`ExecutionBackend.run`;
every backend implements ``run``.  What a modeled node costs is not a
backend's business: that is :class:`repro.exec.kernel.NodeKernel`, and a
caller that steps a run node by node (the adaptive controller, the
service) holds a kernel of its own.

The serial simulator alone inherits the base ``run`` template, which
steps it through three hooks a caller may also drive itself:

* :meth:`ExecutionBackend.prepare` — validate, build the run's kernel and
  return a :class:`SerialRun`;
* :meth:`ExecutionBackend.execute_node` — run one DAG node;
* :meth:`ExecutionBackend.finish` — drain outstanding work and summarize.

The four backends (``"simulator"``, ``"lru"``, ``"parallel"``,
``"minidb"``) are rows of one name → (module, class) table and are
constructed through :func:`create_backend`, which is what
:class:`repro.engine.controller.Controller` dispatches on — no
executor-specific branches remain in the controller.  Naming a backend
imports its module on first use.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.core.plan import Plan
from repro.errors import ValidationError
from repro.graph.dag import DependencyGraph

if TYPE_CHECKING:  # annotation-only: keeps repro.exec importable without
    # triggering repro.engine's package init (which imports back into
    # this module through the Controller) — repro.store's does too
    from repro.engine.trace import RunTrace
    from repro.exec.kernel import NodeKernel
    from repro.store.config import SpillConfig


@dataclass(frozen=True)
class SimulatorOptions:
    """Runtime policy knobs of the modeled backends.

    Attributes:
        compute_penalty: fractional compute slowdown applied to every node,
            modeling a Memory Catalog carved out of *query memory* instead
            of spare memory (Figure 11b); 0 means spare memory.
        spill: optional :class:`~repro.store.config.SpillConfig` enabling
            the tiered store — flagged outputs that do not fit in RAM
            keep their flag by demoting victims to lower tiers (charging
            those tiers' device times, plus encode/decode when a spill
            codec is armed), with stall-vs-spill arbitration weighing
            each demotion against waiting for a pending drain
            (``SpillConfig.arbitrate``) and promote-ahead prefetching of
            soon-to-run consumers' spilled parents during idle device
            time (``SpillConfig.prefetch``).  ``None`` (default) keeps
            the original single-tier behavior exactly.
    """

    compute_penalty: float = 0.0
    spill: SpillConfig | None = None

    def __post_init__(self) -> None:
        if self.compute_penalty < 0:
            raise ValidationError("compute_penalty must be >= 0")
        if self.spill is not None:
            from repro.store.config import SpillConfig

            if not isinstance(self.spill, SpillConfig):
                raise ValidationError("spill must be a SpillConfig or None")


@dataclass
class SerialRun:
    """A serial run between :meth:`ExecutionBackend.prepare` and
    :meth:`~ExecutionBackend.finish`: its kernel (ledger, clock, node
    traces), the plan whose flags the next node follows — a stepping
    caller may swap it between nodes — and the method name the trace
    will carry."""

    kernel: NodeKernel
    plan: Plan
    method: str


class ExecutionBackend:
    """Base class for refresh-run executors.

    Subclasses set ``name`` (their key in :data:`_BACKENDS`) and
    ``requires_plan`` (False for executors like the LRU baseline that
    plan nothing and run in topological order).
    """

    name: ClassVar[str] = ""
    requires_plan: ClassVar[bool] = True

    def __init__(self, profile=None, options=None, workers: int = 1,
                 seed: int = 0, bus=None, cancel=None) -> None:
        from repro.obs.events import resolve_bus

        if workers < 1:
            raise ValidationError("workers must be >= 1")
        self.profile = profile
        self.options = options
        self.workers = workers
        self.seed = seed
        # observability event bus (repro.obs); NULL_BUS unless the run
        # was launched with tracing on, so instrumentation is free
        self.bus = resolve_bus(bus)
        # cooperative cancellation: a threading.Event the caller (the
        # bench orchestrator's trial timeout) sets to stop the run at
        # the next node boundary; backends raise
        # RunCancelledError after unwinding their ledger state
        self.cancel = cancel

    # ------------------------------------------------------------------
    def check_cancelled(self, node_id: str | None = None) -> None:
        """Raise :class:`~repro.errors.RunCancelledError` when the run's
        cancel event is set.  Backends call this between nodes (and the
        parallel scheduler between dispatch rounds), so cancellation is
        cooperative: no node is interrupted mid-execution and the ledger
        is always at a node boundary when the run unwinds."""
        if self.cancel is not None and self.cancel.is_set():
            from repro.errors import RunCancelledError
            raise RunCancelledError(
                "refresh run cancelled"
                + (f" before node {node_id!r}" if node_id else ""),
                node_id=node_id)

    # ------------------------------------------------------------------
    # the serial run template's hooks: only the serial simulator
    # implements them; every other backend overrides run
    def prepare(self, graph: DependencyGraph, plan: Plan | None,
                memory_budget: float, method: str = "") -> SerialRun:
        """Validate inputs and allocate the run state."""
        raise NotImplementedError(f"{self.name} does not run serially")

    def execute_node(self, run: SerialRun, node_id: str) -> None:
        """Execute one node (read inputs, compute, produce output)."""
        raise NotImplementedError(f"{self.name} does not run serially")

    def finish(self, run: SerialRun) -> RunTrace:
        """Drain background work and build the run summary."""
        raise NotImplementedError(f"{self.name} does not run serially")

    # ------------------------------------------------------------------
    def run(self, graph: DependencyGraph, plan: Plan | None,
            memory_budget: float, method: str = "") -> RunTrace:
        """Template method: prepare, execute every node, finish."""
        run = self.prepare(graph, plan, memory_budget, method=method)
        for node_id in run.plan.order:
            self.check_cancelled(node_id)
            self.execute_node(run, node_id)
        return self.finish(run)


# ----------------------------------------------------------------------
# the backend table
# ----------------------------------------------------------------------
#: Every backend: name -> (module, class), imported on first use.
_BACKENDS: dict[str, tuple[str, str]] = {
    "simulator": ("repro.exec.simulator", "SerialSimulatorBackend"),
    "lru": ("repro.exec.lru", "LruBackend"),
    "parallel": ("repro.exec.parallel", "ParallelSimulatorBackend"),
    "minidb": ("repro.exec.minidb", "MiniDbBackend"),
}


def backend_names() -> tuple[str, ...]:
    """Every dispatchable backend name."""
    return tuple(sorted(_BACKENDS))


def create_backend(name: str, *, profile=None, options=None,
                   workers: int = 1, seed: int = 0, bus=None,
                   cancel=None, **kwargs) -> ExecutionBackend:
    """Instantiate a backend with the shared constructor contract plus
    the backend's own keywords (``kwargs``: MiniDB's workload and spill
    settings).

    Raises:
        ValidationError: ``name`` is not a backend.
    """
    if name not in _BACKENDS:
        raise ValidationError(
            f"unknown execution backend {name!r}; "
            f"choose from {backend_names()}")
    module, class_name = _BACKENDS[name]
    cls = getattr(importlib.import_module(module), class_name)
    return cls(profile=profile, options=options, workers=workers,
               seed=seed, bus=bus, cancel=cancel, **kwargs)
