"""repro-lint: the project's own AST-based invariant checker.

The runtime guarantees this codebase advertises — logical-clock
determinism, seeded tie-breaks, zero-overhead-when-off observability,
a stable ``tiered_store`` telemetry schema, and a closed error
taxonomy — are enforced
dynamically by the fuzz harness and the golden traces.  This package
enforces them *statically*, in seconds, on every PR, and keeps code
that no run path reaches from growing back:

====== ============================ =========================================
code   name                         protects
====== ============================ =========================================
REP001 wall-clock-in-logical-path   golden-trace determinism (logical clocks)
REP002 unseeded-rng                 seeded tie-breaks, reproducible runs
REP004 bus-guard                    <2% observability overhead when off
REP005 extras-schema                ``extras["tiered_store"]`` key stability
REP006 error-taxonomy               ``repro.errors``-only public failures
REP007 unreachable-module           no module only tests or examples import
====== ============================ =========================================

Run ``python -m repro.analysis src/repro`` (see ``--help``), or
``--explain REP004`` for the rationale and fix-it guidance of a rule.
No third-party dependencies; stdlib ``ast`` + ``tokenize`` only.
"""

from .engine import AnalysisResult, Violation, analyze

__all__ = ["AnalysisResult", "Violation", "analyze"]
