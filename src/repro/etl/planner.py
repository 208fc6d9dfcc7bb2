"""Bridge from a pipeline spec to an S/C plan and back to a schedule.

``plan_pipeline`` converts a :class:`~repro.etl.spec.PipelineSpec` into a
dependency graph (jobs → nodes, inputs → edges, external bytes → base
I/O), computes speedup scores under the device model — zeroing the score
of non-cacheable jobs so the MKP never flags them — runs the S/C
optimizer, and wraps the result in a :class:`PipelineSchedule` the
coordinator can execute: an ordered list of steps, each saying where to
write the job's output and when earlier outputs can be dropped from
memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.core.residency import residency_intervals
from repro.core.speedup import compute_speedup_scores
from repro.engine.trace import RunTrace
from repro.etl.spec import PipelineSpec
from repro.exec.base import create_backend
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile


@dataclass(frozen=True)
class ScheduleStep:
    """One executable step of the optimized pipeline."""

    job_id: str
    destination: str              # "memory" | "storage"
    release_after: str | None     # job after which the memory copy drops

    @property
    def kept_in_memory(self) -> bool:
        return self.destination == "memory"


@dataclass(frozen=True)
class PipelineSchedule:
    """Optimized execution schedule for one pipeline run."""

    pipeline: str
    steps: tuple[ScheduleStep, ...]
    total_score: float
    memory_budget_gb: float

    @property
    def order(self) -> list[str]:
        return [step.job_id for step in self.steps]

    @property
    def flagged(self) -> frozenset[str]:
        return frozenset(s.job_id for s in self.steps if s.kept_in_memory)

    def step(self, job_id: str) -> ScheduleStep:
        for candidate in self.steps:
            if candidate.job_id == job_id:
                return candidate
        raise KeyError(job_id)

    def render(self) -> str:
        """Human-readable schedule listing."""
        lines = [f"pipeline {self.pipeline!r} "
                 f"(budget {self.memory_budget_gb:g} GB, "
                 f"score {self.total_score:.2f})"]
        for i, step in enumerate(self.steps):
            where = "MEMORY " if step.kept_in_memory else "storage"
            release = (f", release after {step.release_after}"
                       if step.kept_in_memory and step.release_after
                       else "")
            lines.append(f"  {i + 1:>3}. {step.job_id:<24} -> "
                         f"{where}{release}")
        return "\n".join(lines)


def spec_to_graph(spec: PipelineSpec,
                  cost_model: DeviceProfile | None = None,
                  ) -> DependencyGraph:
    """Dependency graph with sizes, compute times, and speedup scores.

    Non-cacheable jobs (loads) get score 0, which lands them in
    ``V_exclude`` — never flagged, always scheduled.
    """
    cost_model = cost_model or DeviceProfile()
    graph = DependencyGraph()
    for job in spec.jobs:
        graph.add_node(job.job_id, size=job.output_gb,
                       op=job.kind.upper(),
                       compute_time=job.compute_s,
                       meta={"base_input_gb": job.external_input_gb,
                             "cacheable": job.cacheable})
    for job in spec.jobs:
        for upstream in job.inputs:
            graph.add_edge(upstream, job.job_id)
    compute_speedup_scores(graph, cost_model)
    for job in spec.jobs:
        if not job.cacheable:
            graph.node(job.job_id).score = 0.0
    return graph


def plan_pipeline(spec: PipelineSpec, memory_budget_gb: float,
                  cost_model: DeviceProfile | None = None,
                  method: str = "sc", seed: int = 0) -> PipelineSchedule:
    """Optimize one pipeline run under a memory budget."""
    graph = spec_to_graph(spec, cost_model=cost_model)
    problem = ScProblem(graph=graph, memory_budget=memory_budget_gb)
    result = optimize(problem, method=method, seed=seed)
    order = list(result.plan.order)
    intervals = residency_intervals(graph, order)

    steps = []
    for job_id in order:
        flagged = result.plan.is_flagged(job_id)
        release_after = None
        if flagged:
            _, end = intervals[job_id]
            release_after = order[end]
            if release_after == job_id:
                release_after = None
        steps.append(ScheduleStep(
            job_id=job_id,
            destination="memory" if flagged else "storage",
            release_after=release_after))
    return PipelineSchedule(
        pipeline=spec.name, steps=tuple(steps),
        total_score=result.total_score,
        memory_budget_gb=memory_budget_gb)


def simulate_schedule(spec: PipelineSpec, schedule: PipelineSchedule,
                      cost_model: DeviceProfile | None = None) -> RunTrace:
    """Run the optimized schedule through the refresh simulator."""
    graph = spec_to_graph(spec, cost_model=cost_model)
    problem = ScProblem(graph=graph,
                        memory_budget=schedule.memory_budget_gb)
    from repro.core.plan import Plan

    plan = Plan.make(schedule.order, set(schedule.flagged))
    backend = create_backend("simulator", profile=cost_model)
    return backend.run(problem.graph, plan, schedule.memory_budget_gb)
