"""A one-tenant service request is the serial simulator, bit for bit.

Every node of a service request runs ``NodeKernel.run_node`` — the
serial simulator's lifecycle — on the kernel's clock, and the request
then waits on its event loop until that clock.  On the virtual-time
loop of ``tests/virtual_clock.py`` at ``time_scale=1`` the loop's clock
never drifts from the kernel's, and a tenant holding the whole budget
is never shed below what RAM admission demotes, so a solo request must
reproduce ``Controller(spill=...).refresh(...)``: every ``NodeTrace``
field and the run's end-to-end, compute-finished, drained and peak
figures.  The serial simulator is pinned by ``golden_pr4`` /
``golden_pr5``, so this pins the service too.

Documented differences, which these cells avoid: the service installs
no per-node ``meta["compressibility"]``, has no ``compute_penalty``,
and its ``RunTrace`` carries ``extras["service"]``
instead of ``extras["tiered_store"]``.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import optimize
from repro.core.plan import Plan
from repro.core.problem import ScProblem
from repro.engine import Controller
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile
from repro.serve import RefreshService, ServiceConfig, TenantSpec
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

from tests.test_golden_kernel import _fixed_case
from tests.virtual_clock import run_virtual

_RUN_FIELDS = ("end_to_end_time", "compute_finished_at",
               "background_drained_at", "peak_catalog_usage")


def run_solo(graph, plan, budget, spill,
             profile: DeviceProfile | None = None):
    """One request of a one-tenant service on the virtual loop at
    ``time_scale=1``: ``(service, result)``."""
    service = RefreshService(
        ServiceConfig(ram_budget_gb=budget, spill=spill, time_scale=1.0),
        [TenantSpec("solo", 1.0)], profile=profile)

    async def main():
        async with service as svc:
            return await (await svc.submit(graph, plan, tenant="solo"))

    return service, run_virtual(main())


def assert_solo_is_serial(graph, plan, budget, spill,
                          profile: DeviceProfile | None = None) -> dict:
    """Run both; assert they agree; return the serial tier report."""
    serial = Controller(spill=spill, profile=profile or DeviceProfile()
                        ).refresh(graph, budget, plan=plan)
    service, result = run_solo(graph, plan, budget, spill, profile)
    assert result.status == "ok", result.error
    assert [node.to_dict() for node in result.trace.nodes] == \
        [node.to_dict() for node in serial.nodes]
    for name in _RUN_FIELDS:
        assert getattr(result.trace, name) == getattr(serial, name), name
    assert not any(service.audit().values())
    report = serial.extras["tiered_store"]
    assert service.ledger.stats.spill_count == report["spill_count"]
    return report


def test_stall_win_fixture():
    # test_tier_aware_planning's two 1.9 GB outputs in 2 GB of RAM
    graph = DependencyGraph()
    for node_id in ("a", "b"):
        graph.add_node(node_id, size=1.9, score=1.9, compute_time=0.1)
    plan = Plan(order=("a", "b"), flagged=frozenset({"a", "b"}))
    report = assert_solo_is_serial(
        graph, plan, 2.0, SpillConfig(tiers=(TierSpec("disk"),)))
    assert report["arbitration"]["stall_wins"] == 1


def test_spill_win_fixture():
    # ... and its fast SSD spill against a far-off drain
    graph = DependencyGraph()
    for node_id, size in (("a", 1.5), ("b", 1.5), ("c", 0.1)):
        graph.add_node(node_id, size=size, score=1.0, compute_time=0.01)
    graph.add_edge("a", "c")
    graph.add_edge("b", "c")
    plan = Plan(order=("a", "b", "c"), flagged=frozenset({"a", "b"}))
    report = assert_solo_is_serial(
        graph, plan, 2.0, SpillConfig(tiers=(TierSpec("ssd"),)),
        profile=DeviceProfile(background_parallelism=0.01))
    assert report["arbitration"]["spill_wins"] == 1


def test_an_output_bigger_than_ram_sheds_nothing():
    # `big` cannot fit 1 GB of RAM whatever is shed, so it goes straight
    # to disk and `a` stays resident: one spill, as in the serial run —
    # not a demotion of `a` first, then `big` below RAM anyway
    graph = DependencyGraph()
    for node_id, size in (("a", 0.6), ("big", 2.0), ("c", 0.1)):
        graph.add_node(node_id, size=size, compute_time=1.0)
    for parent, child in (("a", "big"), ("a", "c"), ("big", "c")):
        graph.add_edge(parent, child)
    plan = Plan.make(["a", "big", "c"], {"a", "big"})
    report = assert_solo_is_serial(graph, plan, 1.0,
                                   SpillConfig(tiers=(TierSpec("disk"),)))
    assert report["spill_count"] == 1


@pytest.mark.parametrize("fraction", [0.3, 1.0])
def test_parallel4_golden_case(fraction):
    graph, plan, _, peak = _fixed_case(n_nodes=40, seed=2)
    spill = SpillConfig(
        tiers=(TierSpec("ssd", 0.5 * peak), TierSpec("disk")),
        codec="zlib", prefetch=True, arbitrate=True)
    report = assert_solo_is_serial(graph, plan, fraction * peak, spill)
    assert (report["spill_count"] > 0) == (fraction < 1.0)


#: seeded generated cells per DAG size: 17 seeds x 2 RAM fractions x 2
#: spill configurations, 204 over the three sizes
_SEEDS = range(17)


@pytest.mark.parametrize("n_nodes", [24, 40, 80])
def test_generated_cells(n_nodes):
    spills = 0
    for seed in _SEEDS:
        graph = WorkloadGenerator().generate(
            GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=0.5),
            seed=seed)
        planned = 0.3 * graph.total_size()
        plan = optimize(ScProblem(graph=graph, memory_budget=planned),
                        method="sc", seed=seed).plan
        peak = Controller().refresh(graph, planned,
                                    plan=plan).peak_catalog_usage
        for spill in (SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                                         TierSpec("disk")),
                                  codec="zlib", prefetch=True),
                      SpillConfig(tiers=(TierSpec("disk"),))):
            for fraction in (0.25, 0.5):
                report = assert_solo_is_serial(graph, plan,
                                               fraction * peak, spill)
                spills += report["spill_count"]
    assert spills > 0
