"""Benchmark harness: every experiment is a driver plus its claims.

A *driver* (:mod:`repro.bench.experiments` for the paper's §VI figures
and tables and the repo's own sweeps, :mod:`repro.bench.extensions` for
the design ablations) regenerates one artifact and returns an
:class:`~repro.bench.experiments.ExperimentResult`;
:mod:`repro.bench.report` renders it.  :data:`EXPERIMENTS` names every
driver once: ``repro-sc bench <id>`` takes its choices (and, from the
drivers' docstrings, its help) from it, and
``benchmarks/bench_experiments.py`` runs each entry and applies the
claims function of the same id.  Declared matrices (``bench matrix``)
are :mod:`repro.bench.orchestrator`'s.
"""

from typing import Callable

from repro.bench.methods import FIGURE9_METHODS, FIGURE12_METHODS, run_method
from repro.bench.report import (
    emit_result_json,
    format_table,
    result_payload,
)
from repro.bench import experiments, extensions

#: Experiment id -> driver.  Called with no arguments a driver runs at
#: the size ``bench <id>`` prints and CI gates; its result's
#: ``experiment_id`` is the key it is filed under, and the first line
#: of its docstring is what ``bench --help`` says about it.
EXPERIMENTS: dict[str, Callable[[], experiments.ExperimentResult]] = {
    "fig2": experiments.fig2_query_type_breakdown,
    "fig3": experiments.fig3_io_breakdown,
    "table3": experiments.table3_workload_summary,
    "fig9": experiments.fig9_end_to_end,
    "fig10": experiments.fig10_scales,
    "fig11": experiments.fig11_memory_sweep,
    "table4": experiments.table4_latency_breakdown,
    "fig12": experiments.fig12_ablation,
    "table5": experiments.table5_cluster_scaling,
    "fig13": experiments.fig13_optimization_time,
    "fig14": experiments.fig14_parameter_sweep,
    "parallel": experiments.parallel_scaling,
    "spill": experiments.spill_tier_sweep,
    "spillplan": experiments.spill_planning_sweep,
    "spillcodec": experiments.compressed_spill_sweep,
    "feedback": experiments.feedback_loop_sweep,
    "ramcodec": experiments.ram_compression_sweep,
    "ablation_convergence": extensions.ablation_convergence,
    "ablation_tolerance": extensions.ablation_tolerance,
    "sensitivity_background": extensions.sensitivity_background,
    "adaptive_drift": extensions.adaptive_drift,
    "ivm_integration": extensions.ivm_integration,
}

__all__ = [
    "EXPERIMENTS",
    "FIGURE9_METHODS",
    "FIGURE12_METHODS",
    "run_method",
    "format_table",
    "result_payload",
    "emit_result_json",
    "experiments",
    "extensions",
]
