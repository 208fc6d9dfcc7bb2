"""Parallel refresh: the memory-bounded scheduler on a wide DAG.

Generates a wide workload DAG (many independent MVs per level), plans it
with S/C, then executes the same plan on the serial simulator and on the
``"parallel"`` backend with growing worker counts.  Three things to watch:

* ``workers=1`` reproduces the serial simulator's makespan exactly
  (serial-equivalent mode);
* more workers shrink the makespan — independent DAG nodes run
  concurrently on logical workers;
* the Memory Catalog peak stays within budget on every run: the shared
  MemoryLedger's admission control blocks a flagged node until its
  output fits, no matter how many workers race for space.

Run:  python examples/parallel_refresh.py
"""

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine import Controller
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)


def main() -> None:
    generator = WorkloadGenerator()
    config = GeneratedWorkloadConfig(n_nodes=48, height_width_ratio=0.25)
    graph = generator.generate(config, seed=7)
    budget = 0.25 * graph.total_size()
    problem = ScProblem(graph=graph, memory_budget=budget)
    plan = optimize(problem, method="sc", seed=7).plan

    print(f"wide DAG: {graph.n} nodes, {graph.m} edges, "
          f"budget {budget:.1f} GB, {len(plan.flagged)} flagged")

    controller = Controller()
    serial = controller.refresh(graph, budget, plan=plan, method="sc")
    print(f"\n== simulated makespan ==")
    print(f"  serial simulator   {serial.end_to_end_time:9.2f} s "
          f"(peak {serial.peak_catalog_usage:6.2f} GB)")
    for workers in (1, 2, 4, 8):
        trace = controller.refresh(graph, budget, plan=plan, method="sc",
                                   backend="parallel", workers=workers)
        assert trace.peak_catalog_usage <= budget + 1e-9
        print(f"  parallel x{workers:<2d}       {trace.end_to_end_time:9.2f} s "
              f"(peak {trace.peak_catalog_usage:6.2f} GB, "
              f"speedup {serial.end_to_end_time / trace.end_to_end_time:4.2f}x)")


if __name__ == "__main__":
    main()
