"""Method registry shared by the experiment drivers.

Two method sets mirror the paper's comparisons:

* **Figure 9** — S/C against off-the-shelf alternatives: no optimization,
  a bigger LRU cache, and Random/Greedy/Ratio node selection without
  reordering.
* **Figure 12** — the ablation grid: each subproblem solution swapped for
  a baseline inside the full alternating loop.
"""

from __future__ import annotations

from repro.engine.controller import Controller
from repro.engine.trace import RunTrace
from repro.exec.base import SimulatorOptions
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile

#: (method key, display label) in the order Figure 9 plots them.
FIGURE9_METHODS: tuple[tuple[str, str], ...] = (
    ("none", "No optimization"),
    ("lru", "LRU Cache"),
    ("random", "Random"),
    ("greedy", "Greedy"),
    ("ratio", "Ratio-based selection"),
    ("sc", "S/C (Ours)"),
)

#: (method key, display label) in the order Figure 12 plots them.
FIGURE12_METHODS: tuple[tuple[str, str], ...] = (
    ("none", "No Opt"),
    ("random+madfs", "Random + MA-DFS"),
    ("greedy+madfs", "Greedy + MA-DFS"),
    ("ratio+madfs", "Ratio + MA-DFS"),
    ("mkp+sa", "MKP + SA"),
    ("mkp+separator", "MKP + Separator"),
    ("mkp+madfs", "MKP + MA-DFS (Ours)"),
)


def run_method(graph: DependencyGraph, memory_budget: float, method: str,
               profile: DeviceProfile | None = None, seed: int = 0,
               options: SimulatorOptions | None = None) -> RunTrace:
    """Optimize (when applicable) and execute one refresh run on the
    serial simulator (``method="lru"`` on the plan-free LRU baseline)."""
    controller = Controller(profile=profile or DeviceProfile(),
                            options=options or SimulatorOptions())
    return controller.refresh(graph, memory_budget, method=method,
                              seed=seed)
