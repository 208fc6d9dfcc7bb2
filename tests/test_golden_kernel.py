"""Golden traces for the paths the node-execution kernel rewrote.

``golden_pr4_trace.json`` / ``golden_pr5_trace.json`` pin the serial
simulator only.  Three of these files pin what nothing else did — the
``workers > 1`` scheduler, the adaptive controller's segment-wise runs
and the LRU baseline — each generated from the code *before* the kernel
existed (commit ``bf6d44f``), so passing proves the one-kernel refactor
left every modeled number bit-equal.  ``golden_service_trace.json``
pins a two-tenant ``RefreshService`` session, run on the virtual-time
loop of ``tests/virtual_clock.py`` so that it is repeatable; it was
generated once the service ran ``NodeKernel.run_node`` on its event
loop's clock.

Regenerate (``python tests/test_golden_kernel.py --write``) only when a
PR deliberately changes these pipelines' numbers — and say so in the
commit.
"""

import asyncio
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.plan import Plan
from repro.engine import AdaptiveController, Controller, SimulatorOptions
from repro.exec import create_backend
from repro.graph.topo import kahn_topological_order
from repro.serve import RefreshService, ServiceConfig, TenantSpec
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

from tests.virtual_clock import run_virtual

DATA = pathlib.Path(__file__).parent / "data"
FIXED_PLANS = json.loads((DATA / "fixed_case_plans.json").read_text())


def _fixed_case(n_nodes, seed):
    """A generated DAG, its 0.3 budget, a fixed plan and that plan's peak.

    The plan is read from ``fixed_case_plans.json``, written once by the
    planner of commit ``cd585ec``, so the goldens built on these cases pin
    the scheduler, not the node selector.
    """
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=0.5),
        seed=seed)
    budget = 0.3 * graph.total_size()
    plan = Plan.from_dict(FIXED_PLANS[f"n{n_nodes}-s{seed}"])
    peak = Controller().refresh(
        graph, budget, plan=plan, method="sc").peak_catalog_usage
    return graph, plan, budget, peak


def parallel4_payload() -> dict:
    """``workers=4`` over ssd+disk tiers with zlib, prefetch and
    arbitration on."""
    graph, plan, _, peak = _fixed_case(n_nodes=40, seed=2)
    options = SimulatorOptions(spill=SpillConfig(
        tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
        codec="zlib", prefetch=True, arbitrate=True))
    backend = create_backend("parallel", options=options, workers=4)
    return {"plan": backend.run(graph, plan, 0.3 * peak,
                                method="sc").to_dict()}


def adaptive_payload() -> dict:
    """Estimates that drift twice (x2.5, then x6 further down the DAG),
    so the controller re-plans the suffix at least twice — on the plain
    ledger and on the tiered store."""
    graph, _, budget, _ = _fixed_case(n_nodes=24, seed=4)
    order = kahn_topological_order(graph)
    truth = {}
    for index, node_id in enumerate(order):
        factor = (1.0 if index < len(order) // 4
                  else 2.5 if index < len(order) // 2 else 6.0)
        truth[node_id] = factor * graph.size_of(node_id)
    tiered = SimulatorOptions(spill=SpillConfig(
        tiers=(TierSpec("ssd", budget), TierSpec("disk")), codec="zlib",
        prefetch=True))
    out = {}
    for label, options in (("plain", SimulatorOptions()),
                           ("tiered", tiered)):
        report = AdaptiveController(
            drift_threshold=0.25, options=options).refresh(
                graph, truth, memory_budget=budget)
        out[label] = {
            "n_replans": report.n_replans,
            "segments": [list(seg.nodes) for seg in report.segments],
            "trace": report.trace.to_dict(),
        }
    return out


def lru_payload() -> dict:
    graph, _, budget, _ = _fixed_case(n_nodes=28, seed=0)
    return {"lru": Controller().refresh(graph, budget,
                                        method="lru").to_dict()}


def service_payload() -> dict:
    """Two tenants (priorities 1 and 0) share one ssd+disk ledger at
    ``max_concurrent=2`` on the virtual loop: five requests queued at
    once, three more arriving while others run, one cancelled mid-run
    and one past its deadline mid-run."""
    graph, plan, _, peak = _fixed_case(n_nodes=24, seed=4)
    spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                               TierSpec("disk")),
                        codec="zlib", prefetch=True)
    service = RefreshService(
        ServiceConfig(ram_budget_gb=0.5 * peak, spill=spill,
                      max_concurrent=2, time_scale=1.0),
        [TenantSpec("hi", 0.5, priority=1), TenantSpec("lo", 0.5)])

    async def session():
        async with service as svc:
            handles = [await svc.submit(graph, plan, tenant=tenant)
                       for tenant in ("lo", "hi", "lo", "hi")]
            handles.append(await svc.submit(graph, plan, tenant="lo",
                                            deadline_s=5000.0))
            await asyncio.sleep(5.0)
            handles[1].cancel()
            for tenant in ("hi", "lo", "hi"):
                await asyncio.sleep(5.0)
                handles.append(await svc.submit(graph, plan, tenant=tenant))
            return [await handle for handle in handles]

    requests = [{
        "request_id": result.request_id, "tenant": result.tenant,
        "status": result.status, "error": result.error,
        "queued_s": result.queued_s, "started_s": result.started_s,
        "finished_s": result.finished_s,
        "trace": None if result.trace is None else result.trace.to_dict(),
    } for result in run_virtual(session())]
    return {"requests": requests,
            "tiered_store": service.ledger.tier_report().to_dict(),
            "audit": service.audit()}


PAYLOADS = {
    "golden_parallel4_trace.json": parallel4_payload,
    "golden_adaptive_trace.json": adaptive_payload,
    "golden_lru_trace.json": lru_payload,
    "golden_service_trace.json": service_payload,
}


def _golden(name: str) -> dict:
    return json.loads((DATA / name).read_text())


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_reproduces_parent_trace_bit_for_bit(name):
    assert PAYLOADS[name]() == _golden(name)


def test_goldens_still_exercise_their_paths():
    """The files are only anchors while the scenarios do the work."""
    for run in _golden("golden_parallel4_trace.json").values():
        report = run["extras"]["tiered_store"]
        assert report["spill_count"] > 0
        assert report["prefetch"]["count"] > 0
        decisions = report["arbitration"]
        assert decisions["stall_wins"] > 0 and decisions["spill_wins"] > 0
        starts = [node["start"] for node in run["nodes"]]
        assert len(set(starts)) < len(starts), "nothing ran concurrently"
    adaptive = _golden("golden_adaptive_trace.json")
    assert all(run["n_replans"] >= 2 for run in adaptive.values())
    assert adaptive["tiered"]["trace"]["extras"]["tiered_store"][
        "spill_count"] > 0
    lru = _golden("golden_lru_trace.json")["lru"]
    assert sum(node["cache_hits"] for node in lru["nodes"]) > 0
    assert sum(node["cache_misses"] for node in lru["nodes"]) > 0
    service = _golden("golden_service_trace.json")
    requests = service["requests"]
    assert len(requests) >= 6
    assert {"ok", "cancelled", "timeout"} <= {r["status"] for r in requests}
    ran = sorted((r["started_s"], r["finished_s"]) for r in requests
                 if r["status"] == "ok")
    assert any(later[0] < earlier[1]
               for earlier, later in zip(ran, ran[1:])), "no overlap"
    assert service["tiered_store"]["spill_count"] > 0
    assert not any(service["audit"].values())


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_stable_under_pythonhashseed(hashseed):
    """No set/dict iteration order leaks into a modeled number."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, __file__], env=env, check=True, timeout=120,
        capture_output=True, text=True).stdout
    assert json.loads(out) == {name: _golden(name) for name in PAYLOADS}


if __name__ == "__main__":
    fresh = {name: build() for name, build in PAYLOADS.items()}
    if "--write" in sys.argv[1:]:
        for name, payload in fresh.items():
            (DATA / name).write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n")
    else:
        json.dump(fresh, sys.stdout, sort_keys=True)
