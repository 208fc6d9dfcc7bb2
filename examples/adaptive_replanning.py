"""Adaptive re-planning when observed sizes drift from estimates.

A nightly pipeline was profiled when its tables were small; the business
grew and every intermediate is now ~2.5x the recorded estimate. The
stale plan flags MVs that no longer fit; the adaptive controller notices
the drift after its first epoch, rescales the remaining estimates, and
re-plans — recovering most of the oracle's (true-size-aware) advantage.

Run:  python examples/adaptive_replanning.py
"""

from repro.core.speedup import compute_speedup_scores
from repro.engine.adaptive import AdaptiveController
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile


def profiled_graph() -> DependencyGraph:
    """Estimates as recorded by last quarter's runs."""
    graph = DependencyGraph()
    layers = [("extract", 1.2), ("clean", 0.9), ("join_dims", 1.1),
              ("sessionize", 0.8), ("features", 0.7), ("daily_agg", 0.1),
              ("weekly_agg", 0.05), ("report", 0.02)]
    previous = None
    for name, size in layers:
        graph.add_node(name, size=size, compute_time=2.0)
        if previous:
            graph.add_edge(previous, name)
        previous = name
    compute_speedup_scores(graph, DeviceProfile())
    return graph


def main() -> None:
    graph = profiled_graph()
    growth = 2.5
    truth = {v: growth * graph.size_of(v) for v in graph.nodes()}
    budget = 2.0

    controller = AdaptiveController(drift_threshold=0.25, check_window=2)
    stale = controller.stale_time(graph, truth, budget)
    oracle = controller.oracle_time(graph, truth, budget)
    adaptive = controller.refresh(graph, truth, budget)

    print(f"data grew {growth}x past the profiled estimates "
          f"(budget {budget:g} GB)\n")
    print(f"  stale plan (never adapts):   {stale:8.2f} s")
    print(f"  adaptive ({adaptive.n_replans} re-plans):"
          f"        {adaptive.total_time:8.2f} s")
    print(f"  oracle (knew true sizes):    {oracle:8.2f} s")
    recovered = (stale - adaptive.total_time) / max(stale - oracle, 1e-9)
    print(f"\nadaptive recovered {100 * recovered:.0f}% of the "
          "oracle's advantage")

    print("\nsegments:")
    for i, seg in enumerate(adaptive.segments):
        mark = " -> re-planned" if seg.replanned_after else ""
        print(f"  {i + 1}. {', '.join(seg.nodes):<40} "
              f"{seg.duration:7.2f} s  drift={seg.drift_ratio:.2f}{mark}")


if __name__ == "__main__":
    main()
