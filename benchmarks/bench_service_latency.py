"""Service latency under open-loop load — the serve layer's acceptance.

Not a paper figure: the paper measures refresh latency one run at a
time; this harness measures what the ROADMAP's serving story needs —
latency *percentiles* when many tenants' refresh requests arrive
concurrently against one shared :class:`~repro.store.tiered.
TieredLedger`.  Open-loop protocol: request arrivals are a seeded
Poisson process that does NOT wait for completions (the arrival clock
keeps ticking while the service queues), which is the protocol that
actually exposes queueing delay — closed loops self-throttle and hide
the knee.

The claims under test (the PR's acceptance bar):

* the service sustains **>= 8 concurrent in-flight requests across
  >= 2 tenants** — genuinely overlapping wall-clock intervals, not
  just queued — with **zero shared-ledger invariant violations**
  (``RefreshService.audit()`` after the drain);
* per-tenant p50/p99 latencies are reported, and the higher-priority
  tenant's median queue wait never falls behind the lower-priority
  tenant's under overload;
* pushing the arrival rate well past service capacity moves the
  latency distribution onto the **saturation knee**: mean queue wait
  under ~3x-capacity load is a large multiple of the lightly-loaded
  wait (self-calibrated against this machine's measured capacity, so
  the assertion is load-shape, not wall-clock, dependent).

When ``SERVICE_BENCH_JSON`` is set, the sweep's data is written there
as JSON — committed under ``benchmarks/baselines/service/`` as the
serve layer's ``BENCH_<date>.json`` trajectory artifact.  Tracked
totals hold only machine-independent counts (violations, completed
requests), never latencies.
"""

import os

import pytest

from repro.bench import emit_result_json
from repro.bench.experiments import ExperimentResult
from repro.engine.controller import Controller
from repro.serve.service import (
    RefreshService,
    ServiceConfig,
    TenantSpec,
    percentile,
    run_open_loop,
)
from repro.store.config import SpillConfig, TierSpec
from repro.workloads.five_workloads import build_workload

_SPILL = SpillConfig(tiers=(TierSpec("disk"),))
_TIME_SCALE = 2e-4
_SCALE_GB = 20.0
_RAM_FRACTION = 0.25
_TENANTS = (TenantSpec("alpha", 0.5, priority=1),
            TenantSpec("beta", 0.5, priority=0))


def _workload():
    graph = build_workload("io1", scale_gb=_SCALE_GB)
    budget = _RAM_FRACTION * graph.total_size()
    plan = Controller().plan(graph, budget, method="sc", seed=0)
    return graph, plan, budget


def _run_open_loop(graph, plan, budget, n_requests, arrival_rate,
                   seed=0, max_concurrent=8):
    """One open-loop trial.  Returns (service, results)."""
    config = ServiceConfig(
        ram_budget_gb=budget, spill=_SPILL,
        queue_limit=max(n_requests, 1),
        max_concurrent=max_concurrent, time_scale=_TIME_SCALE)
    service = RefreshService(config, list(_TENANTS))
    return service, run_open_loop(service, graph, plan, n_requests,
                                  arrival_rate, seed=seed)


def _peak_overlap(results) -> int:
    """High-water mark of genuinely overlapping running requests."""
    events = []
    for result in results:
        if result.started_s is None:
            continue
        events.append((result.started_s, 1))
        events.append((result.finished_s, -1))
    events.sort()
    peak = level = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def _capacity(graph, plan, budget, max_concurrent=8) -> float:
    """Requests/second this machine serves at full concurrency,
    measured from one solo request."""
    service, results = _run_open_loop(graph, plan, budget,
                                      n_requests=1, arrival_rate=1e9)
    assert results[0].status == "ok"
    solo = results[0].finished_s - results[0].started_s
    return max_concurrent / solo


def test_service_sustains_concurrency_with_zero_violations(show):
    """ACCEPTANCE: >= 8 concurrent requests across 2 tenants, zero
    invariant violations, p50/p99 per tenant."""
    graph, plan, budget = _workload()
    capacity = _capacity(graph, plan, budget)
    # arrive just past capacity so the 8 slots genuinely fill
    service, results = _run_open_loop(
        graph, plan, budget, n_requests=32,
        arrival_rate=1.5 * capacity, seed=0)

    assert [r.status for r in results] == ["ok"] * len(results)
    peak = _peak_overlap(results)
    assert peak >= 8, (
        f"only {peak} requests ever ran concurrently; the harness "
        f"never filled the service's 8 slots")
    violations = service.audit()
    assert all(not value for value in violations.values()), violations

    by_tenant = service.latencies_by_tenant()
    rows = []
    for name in sorted(by_tenant):
        latencies = by_tenant[name]
        assert len(latencies) == len(results) // 2
        rows.append([name, len(latencies),
                     f"{percentile(latencies, 50) * 1e3:.1f}",
                     f"{percentile(latencies, 99) * 1e3:.1f}"])
    show(ExperimentResult(
        experiment_id="service-latency",
        title=f"open-loop serving: {len(results)} requests, "
              f"2 tenants, peak overlap {peak}",
        headers=["tenant", "ok", "p50 (ms)", "p99 (ms)"],
        rows=rows))


def test_saturation_knee_and_priority_under_overload(show):
    """Past capacity, queue wait explodes (the knee); the
    higher-priority tenant keeps the shorter median queue wait."""
    graph, plan, budget = _workload()
    capacity = _capacity(graph, plan, budget)

    def mean_queue_wait(results):
        waits = [r.queue_wait_s for r in results
                 if r.queue_wait_s is not None]
        return sum(waits) / len(waits)

    arms = []
    for label, rate_factor, n_requests in (
            ("light", 0.25, 16), ("at-capacity", 1.0, 24),
            ("overload", 3.0, 32)):
        service, results = _run_open_loop(
            graph, plan, budget, n_requests=n_requests,
            arrival_rate=rate_factor * capacity, seed=1)
        assert all(r.status == "ok" for r in results)
        assert not any(service.audit().values())
        arms.append((label, rate_factor, results,
                     mean_queue_wait(results)))

    show(ExperimentResult(
        experiment_id="service-latency",
        title="saturation knee: mean queue wait vs arrival rate "
              f"(capacity ~{capacity:.0f} req/s on this machine)",
        headers=["arm", "rate (x capacity)", "requests",
                 "mean queue wait (ms)"],
        rows=[[label, f"{factor:g}", len(results), f"{wait * 1e3:.2f}"]
              for label, factor, results, wait in arms]))

    light_wait = arms[0][3]
    overload_wait = arms[2][3]
    # the knee: open-loop overload queues grow with every arrival, so
    # the mean wait is a large multiple of the lightly-loaded wait
    assert overload_wait > 5.0 * max(light_wait, 1e-6), (
        f"no saturation knee: overload wait {overload_wait:.4f}s vs "
        f"light {light_wait:.4f}s")

    # under overload the priority queue must favor the alpha tenant:
    # its median queue wait never exceeds beta's
    overload_results = arms[2][2]
    waits = {name: sorted(r.queue_wait_s for r in overload_results
                          if r.tenant == name) for name in
             ("alpha", "beta")}
    assert percentile(waits["alpha"], 50) <= \
        percentile(waits["beta"], 50), (
        "the high-priority tenant queued longer than the low-priority "
        "one under overload")


def test_emit_bench_artifact(show):
    """Write the serve-layer trajectory JSON when SERVICE_BENCH_JSON is
    set (committed under benchmarks/baselines/service/).  Tracked
    totals are machine-independent counts only."""
    if not os.environ.get("SERVICE_BENCH_JSON"):
        pytest.skip("SERVICE_BENCH_JSON not set")
    graph, plan, budget = _workload()
    capacity = _capacity(graph, plan, budget)
    service, results = _run_open_loop(
        graph, plan, budget, n_requests=32,
        arrival_rate=1.5 * capacity, seed=0)
    violations = service.audit()
    by_tenant = service.latencies_by_tenant()
    rows = [[name, len(by_tenant[name]),
             f"{percentile(by_tenant[name], 50) * 1e3:.1f}",
             f"{percentile(by_tenant[name], 99) * 1e3:.1f}"]
            for name in sorted(by_tenant)]
    result = ExperimentResult(
        experiment_id="service-latency",
        title="open-loop multi-tenant serving over one shared ledger",
        headers=["tenant", "ok", "p50 (ms)", "p99 (ms)"],
        rows=rows,
        data={
            "config": {
                "workload": "io1", "scale_gb": _SCALE_GB,
                "ram_fraction": _RAM_FRACTION,
                "tenants": [spec.name for spec in _TENANTS],
                "requests": len(results), "max_concurrent": 8,
                "time_scale": _TIME_SCALE,
            },
            # gate-tracked: deterministic, machine-independent, and
            # lower-is-better (violation/failure counts), never
            # wall-clock latencies
            "totals": {
                "invariants": {
                    "violations": sum(len(v) for v in
                                      violations.values()),
                },
                "requests": {
                    "failed": sum(1 for r in results
                                  if r.status != "ok"),
                },
            },
            "peak_overlap": _peak_overlap(results),
        })
    show(result)
    emit_result_json(result, path=os.environ["SERVICE_BENCH_JSON"])
