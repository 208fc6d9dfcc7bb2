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

Backends register under a short name (``"simulator"``, ``"lru"``,
``"parallel"``, ``"minidb"``) and are constructed through
:func:`create_backend`, which is what :class:`repro.engine.controller.
Controller` dispatches on — no executor-specific branches remain in the
controller.  Registration is lazy: naming a backend imports its module on
first use.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.core.plan import Plan
from repro.errors import ValidationError
from repro.exec.ledger import NoLock
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
        on_overflow: what to do when a flagged insert cannot fit even after
            stalling for background drains — ``"spill"`` (write to disk,
            keep going) or ``"error"`` (raise :class:`ExecutionError`).
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

    on_overflow: str = "spill"
    compute_penalty: float = 0.0
    spill: SpillConfig | None = None

    def __post_init__(self) -> None:
        if self.on_overflow not in ("spill", "error"):
            raise ValidationError("on_overflow must be 'spill' or 'error'")
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

    Subclasses set ``name`` (the registry key) and ``requires_plan``
    (False for executors like the LRU baseline that plan nothing and run
    in topological order).
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
        # what the run's ledger locks with; create_backend swaps in
        # NoLock for the backends that touch it from one thread only
        self.ledger_lock = threading.RLock

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
# registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, type[ExecutionBackend]] = {}

#: Where each built-in backend lives; imported on first use.
_BACKEND_MODULES: dict[str, str] = {
    "simulator": "repro.exec.simulator",
    "lru": "repro.exec.lru",
    "parallel": "repro.exec.parallel",
    "minidb": "repro.exec.minidb",
}

#: Backends whose ledger only the run's own thread ever touches (the
#: discrete-event simulators): :func:`create_backend` builds their
#: ledgers with :class:`~repro.exec.ledger.NoLock`.  MiniDB's drain
#: threads need the re-entrant lock, so it keeps it.
_ONE_THREAD_BACKENDS = frozenset({"simulator", "parallel", "lru"})


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Class decorator adding a backend to the registry by its ``name``.

    Re-registering the same class — including the fresh class object a
    module reload creates — is a no-op; claiming an already-taken name
    with a genuinely different class is an error, because silent
    replacement would reroute every Controller dispatch on that name.
    """
    if not cls.name:
        raise ValidationError(f"backend {cls.__name__} has no name")
    existing = _BACKENDS.get(cls.name)
    if existing is not None and existing is not cls and (
            (existing.__module__, existing.__qualname__)
            != (cls.__module__, cls.__qualname__)):
        raise ValidationError(
            f"execution backend {cls.name!r} is already registered to "
            f"{existing.__name__}")
    _BACKENDS[cls.name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """Every dispatchable backend name (registered or lazily importable)."""
    return tuple(sorted(set(_BACKENDS) | set(_BACKEND_MODULES)))


def get_backend(name: str) -> type[ExecutionBackend]:
    """Resolve a backend class by name, importing its module if needed.

    Raises :class:`ValidationError` for an unknown name, for a backend
    module that fails to import (missing optional dependency, typo in
    :data:`_BACKEND_MODULES`), and for a module that imports cleanly but
    never registers the promised name.
    """
    if name not in _BACKENDS and name in _BACKEND_MODULES:
        module = _BACKEND_MODULES[name]
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise ValidationError(
                f"execution backend {name!r} could not be loaded: "
                f"importing {module!r} failed ({exc})") from exc
    if name not in _BACKENDS:
        raise ValidationError(
            f"unknown execution backend {name!r}; "
            f"choose from {backend_names()}")
    return _BACKENDS[name]


def create_backend(name: str, *, profile=None, options=None,
                   workers: int = 1, seed: int = 0, bus=None,
                   cancel=None, **kwargs) -> ExecutionBackend:
    """Instantiate a backend with the shared constructor contract plus
    the backend's own keywords (``kwargs``: MiniDB's workload and spill
    settings), and choose its ledger's lock (not an option: see
    :data:`_ONE_THREAD_BACKENDS`)."""
    cls = get_backend(name)
    backend = cls(profile=profile, options=options, workers=workers,
                  seed=seed, bus=bus, cancel=cancel, **kwargs)
    if name in _ONE_THREAD_BACKENDS:
        backend.ledger_lock = NoLock
    return backend
