"""Lint configuration: built-in project defaults plus the optional
``[tool.repro-lint]`` table in ``pyproject.toml``.

The defaults below *are* the project policy — the pyproject table
exists so the policy is visible next to the mypy config and so tests
can point the engine at fixture trees without monkeypatching.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path


class LintConfigError(Exception):
    """Bad lint configuration (unknown key, unreadable pyproject,
    missing schema module).  The CLI maps this to exit code 2."""


#: Keys of the per-rule schema constants in the report-schema module.
DEFAULT_SCHEMA_CONSTANTS = (
    "TIER_REPORT_KEYS",
    "TIER_KEYS",
    "OBSERVED_KEYS",
    "ARBITRATION_KEYS",
    "PREFETCH_KEYS",
    "CODEC_ADAPT_KEYS",
    "CODEC_ADAPT_RECORD_KEYS",
    "TENANT_KEYS",
)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Everything the rules need to know about the project layout."""

    #: Default scan roots (repo-relative) when the CLI gets no paths.
    paths: tuple[str, ...] = ("src/repro",)
    #: Baseline file (repo-relative) holding ratcheted violations.
    baseline: str = "repro-lint-baseline.json"
    #: REP001 — files/dirs where real wall-clock reads are legitimate.
    #: (``repro/serve/`` is not one: it reads only its event loop's
    #: clock, which a virtual-time loop makes deterministic)
    wallclock_allow: tuple[str, ...] = (
        "repro/exec/minidb.py",
        "repro/bench/orchestrator.py",
        "benchmarks/",
    )
    #: REP004 — helper modules that are NULL_BUS-safe by construction.
    bus_helper_files: tuple[str, ...] = ("repro/obs/events.py",)
    #: REP003 — root classes whose underscore state is lock-protected.
    lock_classes: tuple[str, ...] = ("MemoryLedger", "TieredLedger")
    #: REP003 — the lock attribute that must be held for writes.
    lock_attr: str = "_lock"
    #: REP006 — public entry-point files with a closed error taxonomy.
    error_taxonomy_files: tuple[str, ...] = (
        "repro/cli.py",
        "repro/engine/controller.py",
    )
    #: REP006 — the module whose exception types are allowed.
    error_module: str = "repro.errors"
    #: REP005 — repo-relative module declaring the telemetry schema
    #: (``None`` or ``""`` disables REP005 entirely).
    schema_module: str | None = "src/repro/store/report_schema.py"
    #: REP005 — names of the declared key-set constants in that module.
    schema_constants: tuple[str, ...] = DEFAULT_SCHEMA_CONSTANTS
    #: REP005 — ``file::function`` producers whose dict-literal keys
    #: must all be declared.
    schema_producers: tuple[str, ...] = (
        "repro/store/tiered.py::tier_report",
        "repro/store/tiered.py::_observed_report",
        "repro/store/tiered.py::_maybe_adapt",
        "repro/store/tiered.py::_tenant_report",
    )


_LIST_KEYS = {
    "paths", "wallclock_allow", "bus_helper_files", "lock_classes",
    "error_taxonomy_files", "schema_constants", "schema_producers",
}
_STR_KEYS = {"baseline", "lock_attr", "error_module", "schema_module"}


def parse_pyproject(text: str, name: str) -> dict:
    """Parse pyproject TOML with :mod:`tomllib`, falling back to the
    TOML-subset parser the bench matrix already ships for 3.10."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - version dependent
        tomllib = None
    if tomllib is not None:
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise LintConfigError(f"cannot parse {name}: {exc}") from exc
    from repro.bench.experiment import parse_toml  # pragma: no cover
    try:  # pragma: no cover - version dependent
        return parse_toml(text, name=name)
    except Exception as exc:  # pragma: no cover
        raise LintConfigError(f"cannot parse {name}: {exc}") from exc


def load_config(root: Path) -> LintConfig:
    """Build the effective config for ``root``: defaults overridden by
    ``[tool.repro-lint]`` in ``<root>/pyproject.toml`` when present."""
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return LintConfig()
    payload = parse_pyproject(
        pyproject.read_text(encoding="utf-8"), str(pyproject))
    table = payload.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise LintConfigError("[tool.repro-lint] must be a table")
    overrides: dict = {}
    for key, value in table.items():
        field = key.replace("-", "_")
        if field in _LIST_KEYS:
            if (not isinstance(value, list)
                    or not all(isinstance(v, str) for v in value)):
                raise LintConfigError(
                    f"[tool.repro-lint] {key} must be a list of strings")
            overrides[field] = tuple(value)
        elif field in _STR_KEYS:
            if not isinstance(value, str):
                raise LintConfigError(
                    f"[tool.repro-lint] {key} must be a string")
            overrides[field] = value
        else:
            raise LintConfigError(f"[tool.repro-lint] unknown key {key!r}")
    return LintConfig(**overrides)


def path_matches(rel: str, patterns: tuple[str, ...]) -> bool:
    """True when repo-relative posix path ``rel`` matches any pattern.

    A pattern ending in ``/`` matches a directory component anywhere in
    the path; other patterns match on a whole path suffix, so the short
    forms used in config (``repro/exec/minidb.py``) match files under
    ``src/`` without hard-coding the layout.
    """
    for pattern in patterns:
        if pattern.endswith("/"):
            if ("/" + rel).find("/" + pattern) != -1 or rel.startswith(pattern):
                return True
        elif rel == pattern or rel.endswith("/" + pattern):
            return True
    return False
