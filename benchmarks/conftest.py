"""Shared configuration for the benchmark suite.

``bench_experiments.py`` runs every experiment of
:data:`repro.bench.EXPERIMENTS` — the paper's §VI figures and tables,
the repo's own sweeps, the design ablations — once and holds it to its
claims; ``bench_obs_overhead.py`` and ``bench_service_latency.py`` are
wall-clock harnesses with CI steps of their own; ``perf/`` is the
``BENCHMARK.json`` gate.  Every test prints its reproduction table
through :func:`show` (no ``-s`` needed)::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -q
"""

import pytest


@pytest.fixture
def show(capsys):
    """Print a report table so it survives pytest's capture."""
    def _show(result) -> None:
        with capsys.disabled():
            print()
            print(result.render())

    return _show
