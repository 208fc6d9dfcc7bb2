"""The multidimensional 0-1 knapsack problem and its MILP solve.

S/C Opt Nodes reduces to an MKP (paper §V-A): one binary variable per
candidate node, one capacity constraint per (pruned) residency set ``V_i``,
all capacities equal to the Memory Catalog size. The paper hands it to
OR-Tools; :func:`solve_mkp` hands it to scipy's ``milp`` (HiGHS). scipy is
imported inside that call, so importing ``repro`` loads no scipy and the
paths that never select nodes do not pay its ~60 MB.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import SolverError, ValidationError

_EPS = 1e-9

# HiGHS accepts a row up to its feasibility tolerance (1e-6 by default)
# past its bound; below _EPS, what it returns passes is_feasible.
_HIGHS_FEASIBILITY = 1e-10

_SOLVE_LOCK = threading.Lock()  # held by one solve at a time


@dataclass(frozen=True)
class MkpInstance:
    """A multidimensional 0-1 knapsack instance.

    ``weights[x][y]`` is the weight of item ``y`` in constraint ``x``; any
    weight may be zero (the item does not occupy that constraint).
    """

    profits: tuple[float, ...]
    weights: tuple[tuple[float, ...], ...]
    capacities: tuple[float, ...]

    def __post_init__(self) -> None:
        n_items = len(self.profits)
        if len(self.weights) != len(self.capacities):
            raise ValidationError(
                f"{len(self.weights)} weight rows vs "
                f"{len(self.capacities)} capacities")
        for row_idx, row in enumerate(self.weights):
            if len(row) != n_items:
                raise ValidationError(
                    f"weight row {row_idx} has {len(row)} entries for "
                    f"{n_items} items")
            if not all(w >= 0 for w in row):  # also rejects NaN
                raise ValidationError("weights must be >= 0")
        if not all(p >= 0 for p in self.profits):
            raise ValidationError("profits must be >= 0")
        if not all(c >= 0 for c in self.capacities):
            raise ValidationError("capacities must be >= 0")

    @property
    def n_items(self) -> int:
        return len(self.profits)

    @property
    def n_constraints(self) -> int:
        return len(self.capacities)

    @classmethod
    def from_lists(cls, profits: Sequence[float],
                   weights: Sequence[Sequence[float]],
                   capacities: Sequence[float]) -> "MkpInstance":
        return cls(
            profits=tuple(float(p) for p in profits),
            weights=tuple(tuple(float(w) for w in row) for row in weights),
            capacities=tuple(float(c) for c in capacities),
        )

    def is_feasible(self, selected: Sequence[int]) -> bool:
        chosen = set(selected)
        return all(sum(row[i] for i in chosen) <= capacity + _EPS
                   for row, capacity in zip(self.weights, self.capacities))

    def objective(self, selected: Sequence[int]) -> float:
        return sum(self.profits[i] for i in set(selected))


@dataclass
class MkpSolution:
    """Selected item indices and their profit."""

    selected: tuple[int, ...]
    objective: float


@contextmanager
def _stdout_silenced() -> Iterator[None]:
    """Point fd 1 at the null device: HiGHS's MIP solver writes some
    lines straight to it even with console logging off. Callers hold
    ``_SOLVE_LOCK``: fd 1 and the warnings filters are the whole
    process's, and two overlapping redirects would leave fd 1 on the
    null device."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def solve_mkp(instance: MkpInstance,
              tolerance: float = 0.01) -> MkpSolution:
    """Solve ``instance`` with HiGHS's MILP to a relative gap of
    ``tolerance`` (its ``mip_rel_gap``). The 1 % default stands in for
    the paper's integer rounding of scores (footnote 3); 0 is exact.
    """
    if not tolerance >= 0:
        raise ValidationError("tolerance must be >= 0")
    if not instance.n_items:
        return MkpSolution(selected=(), objective=0.0)
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, milp

    constraints = None
    if instance.n_constraints:  # milp stores the matrix sparse (CSC)
        constraints = LinearConstraint(np.array(instance.weights), -np.inf,
                                       np.array(instance.capacities))
    # Feasibility jump is one of HiGHS's root heuristics (1.10 on). On
    # the benchmark's knapsacks its incumbent is always replaced before
    # the root node ends, yet it costs 30-49 % of the solve.
    options = {"mip_rel_gap": tolerance,
               "mip_feasibility_tolerance": _HIGHS_FEASIBILITY,
               "primal_feasibility_tolerance": _HIGHS_FEASIBILITY,
               "mip_heuristic_run_feasibility_jump": False}
    with _SOLVE_LOCK, warnings.catch_warnings(), _stdout_silenced():
        # milp passes the last three options on to HiGHS, warning that it
        # does not know them; a HiGHS older than 1.10 does not know the
        # last one either, and solves as before.
        warnings.filterwarnings("ignore", message="Unrecognized options",
                                category=RuntimeWarning)
        warnings.filterwarnings(
            "ignore", category=OptimizeWarning,
            message="Unrecognized options detected: "
                    ".*'mip_heuristic_run_feasibility_jump'")
        result = milp(-np.array(instance.profits), integrality=1,
                      bounds=Bounds(0, 1), constraints=constraints,
                      options=options)
    if result.x is None:  # pragma: no cover - defensive
        raise SolverError(f"MILP solve failed: {result.message}")
    selected = tuple(int(i) for i in np.flatnonzero(result.x > 0.5))
    if not instance.is_feasible(selected):  # defensive invariant
        raise SolverError("MILP produced an infeasible solution "
                          f"(selected={selected})")
    return MkpSolution(selected=selected,
                       objective=instance.objective(selected))
