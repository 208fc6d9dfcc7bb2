"""Declarative experiment matrices: config in, trial specs out.

A matrix config (TOML or JSON) declares *axes* — lists of values for
backend, workload, RAM fraction, spill codec, feedback arm, the
compressed-in-RAM rung, and seed — plus fixed knobs shared by every
cell.  :func:`expand_matrix` takes their cartesian product and prunes
the structurally impossible cells (the LRU baseline supports no tiers,
MiniDB runs only the SQL demo workload), leaving the list of
:class:`TrialSpec` cells the orchestrator executes.

The config format (``benchmarks/matrix_smoke.toml`` is the committed
example)::

    [experiment]
    name = "matrix-smoke"
    title = "..."

    [axes]
    backend = ["simulator", "parallel", "lru", "minidb"]
    workload = ["io1", "demo"]
    ram_fraction = [0.5]
    codec = ["none", "zlib"]
    feedback = ["off", "replan"]
    rung = [false, true]
    seed = [0]

    [fixed]
    scale_gb = 2.0
    workers = 1

    [run]
    jobs = 2
    trial_timeout_s = 120

Configs parse with the standard library's :mod:`tomllib`, so the
orchestrator needs nothing outside it.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import tomllib
from dataclasses import dataclass, fields

from repro.errors import ValidationError
from repro.store.config import SPILL_CODECS
from repro.workloads.five_workloads import WORKLOAD_NAMES

#: The SQL workload name routing a cell to the real MiniDB backend.
DEMO_WORKLOAD = "demo"

#: Allowed values of the ``feedback`` axis: ``off`` executes the
#: tier-aware plan once; ``replan`` runs the two-pass loop (execute,
#: distill observed tier costs, re-plan, execute again — the second
#: pass is the reported one).
FEEDBACK_ARMS = ("off", "replan")

#: Backends whose workloads are dependency-graph JSON (vs MiniDB SQL).
GRAPH_BACKENDS = ("simulator", "parallel", "lru")


@dataclass(frozen=True)
class TrialSpec:
    """One cell of the matrix — everything a trial needs to run.

    ``trial_id`` is a stable slug of the knobs; it names the cell's
    result file, so a resumed run recognizes completed cells across
    processes.
    """

    backend: str
    workload: str
    ram_fraction: float
    codec: str
    feedback: str
    rung: bool
    seed: int
    workers: int = 1
    method: str = "sc"

    @property
    def trial_id(self) -> str:
        rung = "-rung" if self.rung else ""
        return (f"{self.backend}-{self.workload}-f{self.ram_fraction:g}"
                f"-{self.codec}-fb{self.feedback}{rung}-s{self.seed}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialSpec":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass(frozen=True)
class MatrixConfig:
    """A parsed experiment config: axes + fixed knobs + run policy."""

    name: str
    title: str
    backends: tuple[str, ...]
    workloads: tuple[str, ...]
    ram_fractions: tuple[float, ...]
    codecs: tuple[str, ...] = ("none",)
    feedback: tuple[str, ...] = ("off",)
    rung: tuple[bool, ...] = (False,)
    seeds: tuple[int, ...] = (0,)
    # fixed knobs shared by every cell
    scale_gb: float = 2.0
    workers: int = 1
    method: str = "sc"
    policy: str = "cost"
    ssd_fraction: float = 0.5
    rung_fraction: float = 0.25
    minidb_rows: int = 4000
    # run policy
    jobs: int = 2
    trial_timeout_s: float | None = 120.0

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in payload.items()}

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: dict) -> "MatrixConfig":
        """Build from the nested ``experiment``/``axes``/``fixed``/
        ``run`` table layout (unknown keys rejected loudly)."""
        experiment = dict(payload.get("experiment", {}))
        axes = dict(payload.get("axes", {}))
        fixed = dict(payload.get("fixed", {}))
        run = dict(payload.get("run", {}))
        extra = set(payload) - {"experiment", "axes", "fixed", "run"}
        if extra:
            raise ValidationError(
                f"unknown config sections {sorted(extra)}; expected "
                f"[experiment], [axes], [fixed], [run]")

        def take(table, table_name, key, default=None, required=False):
            if required and key not in table:
                raise ValidationError(
                    f"config [{table_name}] is missing {key!r}")
            return table.pop(key, default)

        name = take(experiment, "experiment", "name", required=True)
        title = take(experiment, "experiment", "title", default=name)
        kwargs = dict(
            name=name, title=title,
            backends=tuple(take(axes, "axes", "backend", required=True)),
            workloads=tuple(take(axes, "axes", "workload", required=True)),
            ram_fractions=tuple(take(axes, "axes", "ram_fraction",
                                     required=True)),
            codecs=tuple(take(axes, "axes", "codec", ["none"])),
            feedback=tuple(take(axes, "axes", "feedback", ["off"])),
            rung=tuple(bool(v) for v in take(axes, "axes", "rung",
                                             [False])),
            seeds=tuple(take(axes, "axes", "seed", [0])),
        )
        for key in ("scale_gb", "workers", "method", "policy",
                    "ssd_fraction", "rung_fraction", "minidb_rows"):
            if key in fixed:
                kwargs[key] = fixed.pop(key)
        for key in ("jobs", "trial_timeout_s"):
            if key in run:
                kwargs[key] = run.pop(key)
        for table_name, table in (("experiment", experiment),
                                  ("axes", axes), ("fixed", fixed),
                                  ("run", run)):
            if table:
                raise ValidationError(
                    f"unknown keys in config [{table_name}]: "
                    f"{sorted(table)}")
        config = cls(**kwargs)
        config.validate()
        return config

    def validate(self) -> None:
        known_backends = set(GRAPH_BACKENDS) | {"minidb"}
        for backend in self.backends:
            if backend not in known_backends:
                raise ValidationError(
                    f"unknown backend {backend!r}; choose from "
                    f"{sorted(known_backends)}")
        known_workloads = set(WORKLOAD_NAMES) | {DEMO_WORKLOAD}
        for workload in self.workloads:
            if workload not in known_workloads:
                raise ValidationError(
                    f"unknown workload {workload!r}; choose from "
                    f"{sorted(known_workloads)}")
        for codec in self.codecs:
            if codec not in SPILL_CODECS:
                raise ValidationError(
                    f"unknown codec {codec!r}; choose from "
                    f"{sorted(SPILL_CODECS)}")
        for arm in self.feedback:
            if arm not in FEEDBACK_ARMS:
                raise ValidationError(
                    f"unknown feedback arm {arm!r}; choose from "
                    f"{FEEDBACK_ARMS}")
        for fraction in self.ram_fractions:
            if not 0 < fraction <= 1:
                raise ValidationError(
                    f"ram_fraction {fraction!r} must be in (0, 1]")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if self.jobs < 1:
            raise ValidationError("jobs must be >= 1")
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ValidationError("trial_timeout_s must be positive")


@dataclass(frozen=True)
class PrunedCell:
    """A cartesian-product cell dropped as structurally impossible."""

    spec: TrialSpec
    reason: str


def _incompatibility(spec: TrialSpec) -> str | None:
    """Why this cell cannot exist, or None when it can run."""
    if spec.backend == "lru":
        # the plan-free baseline supports neither tiers nor feedback,
        # so exactly one (codec=none, feedback=off, rung=off) cell
        # survives per (workload, fraction, seed)
        if spec.codec != "none":
            return "lru baseline has no tiers to compress"
        if spec.feedback != "off":
            return "lru baseline plans nothing to replan"
        if spec.rung:
            return "lru baseline has no tiers for a rung"
        if spec.workload == DEMO_WORKLOAD:
            return "lru baseline runs graph workloads, not MiniDB SQL"
        return None
    if spec.backend == "minidb":
        if spec.workload != DEMO_WORKLOAD:
            return ("minidb runs the SQL demo workload, not graph "
                    "workloads")
        if spec.feedback != "off":
            return "minidb cells run single-pass (wall-clock replans " \
                   "are not comparable across passes)"
        return None
    # simulated graph backends
    if spec.workload == DEMO_WORKLOAD:
        return f"{spec.backend} runs graph workloads, not MiniDB SQL"
    return None


def expand_matrix(config: MatrixConfig
                  ) -> tuple[list[TrialSpec], list[PrunedCell]]:
    """Cartesian product of the axes, split into runnable trials and
    pruned (structurally impossible) cells.

    Returns ``(trials, pruned)`` with trials in deterministic
    ``trial_id`` order.
    """
    trials: list[TrialSpec] = []
    pruned: list[PrunedCell] = []
    for (backend, workload, fraction, codec, feedback, rung,
         seed) in itertools.product(
            config.backends, config.workloads, config.ram_fractions,
            config.codecs, config.feedback, config.rung, config.seeds):
        spec = TrialSpec(
            backend=backend, workload=workload, ram_fraction=fraction,
            codec=codec, feedback=feedback, rung=rung, seed=seed,
            workers=config.workers,
            method="lru" if backend == "lru" else config.method)
        reason = _incompatibility(spec)
        if reason is None:
            trials.append(spec)
        else:
            pruned.append(PrunedCell(spec, reason))
    trials.sort(key=lambda spec: spec.trial_id)
    pruned.sort(key=lambda cell: cell.spec.trial_id)
    seen: dict[str, TrialSpec] = {}
    for spec in trials:
        if spec.trial_id in seen:
            raise ValidationError(
                f"duplicate trial id {spec.trial_id!r}: axes contain "
                f"repeated values")
        seen[spec.trial_id] = spec
    return trials, pruned


# ----------------------------------------------------------------------
# config file loading
# ----------------------------------------------------------------------
def load_config(path: str) -> MatrixConfig:
    """Parse a matrix config file (``.toml`` or ``.json``)."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".json"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"cannot parse {path}: {exc}") from exc
    else:
        payload = parse_toml(text, name=str(path))
    return MatrixConfig.from_dict(payload)


def parse_toml(text: str, name: str = "config") -> dict:
    """Parse TOML via :mod:`tomllib`; a malformed text raises
    :class:`~repro.errors.ValidationError` naming ``name``."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ValidationError(f"cannot parse {name}: {exc}") from exc
