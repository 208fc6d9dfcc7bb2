"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure. Subsystems raise
the most specific subclass that applies; constructors accept a plain message
plus optional structured context kept on the instance for programmatic
inspection.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Structural problem with a dependency graph (duplicate node, bad edge)."""


class CycleError(GraphError):
    """The supplied dependency graph contains a cycle.

    Attributes:
        cycle: a list of node ids forming the offending cycle, when known.
    """

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class ValidationError(ReproError):
    """An input value failed validation (negative size, bad budget, ...)."""


class InfeasiblePlanError(ReproError):
    """A plan violates the Memory Catalog budget or dependency order.

    Attributes:
        peak: observed peak memory usage, when the violation is a budget one.
        budget: the configured Memory Catalog size.
    """

    def __init__(self, message: str, peak: float | None = None,
                 budget: float | None = None):
        super().__init__(message)
        self.peak = peak
        self.budget = budget


class SolverError(ReproError):
    """The optimization solver failed to produce a solution."""


class ExecutionError(ReproError):
    """A refresh run failed while executing on an engine backend."""


class RunCancelledError(ExecutionError):
    """A refresh run was cancelled cooperatively between nodes.

    Raised when a run's cancel event (a ``threading.Event`` shared with
    the caller — the bench orchestrator's trial timeout or the serve
    layer's per-request cancellation/deadline) is set.  The backend
    unwinds its ledger state before raising, so a cancelled run leaks no
    holds, reservations, or consumer counts.

    Attributes:
        node_id: the node about to execute when the cancel was observed,
            when known.
    """

    def __init__(self, message: str, node_id: str | None = None):
        super().__init__(message)
        self.node_id = node_id


class ServiceOverloadError(ExecutionError):
    """The refresh service's bounded request queue is full.

    Open-loop clients treat this as backpressure: the request was
    rejected at submission, before taking any ledger or queue state.
    """


class CatalogError(ExecutionError):
    """Memory/physical catalog misuse (unknown table, double free, ...)."""


class BudgetExceededError(CatalogError):
    """An insert would push the Memory Catalog above its configured size.

    ``charges`` holds the demotions a tiered ledger made trying to find
    the room before it gave up — they happened, so callers bill them.
    """

    def __init__(self, message: str, requested: float, available: float):
        super().__init__(message)
        self.requested = requested
        self.available = available
        self.charges: list = []


class SqlError(ReproError):
    """SQL text could not be tokenized, parsed, or bound to a schema."""

    def __init__(self, message: str, sql: str | None = None,
                 position: int | None = None):
        super().__init__(message)
        self.sql = sql
        self.position = position


class PlanningError(ReproError):
    """A logical query plan could not be constructed or bound."""


class WorkloadError(ReproError):
    """A workload specification is malformed or cannot be generated."""
