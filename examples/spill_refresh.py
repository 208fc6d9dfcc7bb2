"""Spill-to-disk refresh: running an S/C plan on less RAM than it needs.

Generates a workload DAG, plans it with S/C, and measures the plan's
peak Memory Catalog residency.  Then it re-executes the *same plan* at
RAM budgets swept below that peak with the tiered store armed
(RAM -> SSD -> unbounded disk): instead of stalling or giving up flags,
cold intermediates are demoted to lower tiers (and promoted back on
read), so every run completes — with a measurable slowdown instead of a
failure.  Three things to watch:

* the RAM-tier peak never exceeds its budget, on any run;
* the runtime penalty grows smoothly as the budget shrinks, tracking
  the spill volume;
* the same sweep works on the parallel backend, where admission-time
  reservations trigger the demotions instead of output-time inserts.

Run:  python examples/spill_refresh.py
"""

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine import Controller, SimulatorOptions
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.1)


def main() -> None:
    generator = WorkloadGenerator()
    config = GeneratedWorkloadConfig(n_nodes=32, height_width_ratio=0.5)
    graph = generator.generate(config, seed=7)
    budget = 0.3 * graph.total_size()
    problem = ScProblem(graph=graph, memory_budget=budget)
    plan = optimize(problem, method="sc", seed=7).plan

    baseline = Controller().refresh(graph, budget, plan=plan, method="sc")
    peak = baseline.peak_catalog_usage
    print(f"DAG: {graph.n} nodes, plan flags {len(plan.flagged)} MVs, "
          f"peak residency {peak:.2f} GB "
          f"(baseline {baseline.end_to_end_time:.2f} s)")

    for backend in ("simulator", "parallel"):
        print(f"\n== {backend} backend, RAM swept below the plan's peak ==")
        print(f"{'RAM':>12s} {'time (s)':>10s} {'penalty':>8s} "
              f"{'spills':>7s} {'promotes':>9s} {'ram peak':>9s}")
        for fraction in FRACTIONS:
            ram = fraction * peak
            spill = SpillConfig(
                tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
                policy="cost")
            controller = Controller(options=SimulatorOptions(spill=spill))
            trace = controller.refresh(graph, ram, plan=plan, method="sc",
                                       backend=backend, workers=4)
            report = trace.tier_report()
            # the RAM tier never exceeds its budget, on every run
            assert trace.peak_catalog_usage <= ram + 1e-9
            assert report.tiers[0].peak <= ram + 1e-9
            assert len(trace.nodes) == graph.n
            print(f"{100 * fraction:10.0f} % "
                  f"{trace.end_to_end_time:10.2f} "
                  f"{trace.end_to_end_time / baseline.end_to_end_time:7.2f}x "
                  f"{report.spill_count:7d} "
                  f"{report.promote_count:9d} "
                  f"{trace.peak_catalog_usage:8.2f}")


if __name__ == "__main__":
    main()
