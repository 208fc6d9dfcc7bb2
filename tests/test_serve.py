"""Service layer (repro.serve): multi-tenant concurrent refreshes.

Deterministic tier-1 coverage of the serve layer's contracts — tenant
validation, priority dispatch, open-loop backpressure, cooperative
cancellation/deadlines with clean ledger unwind, owner records, the
shared storage device, and the Controller entry points.  Tests that
wait on the service's clock run on the virtual-time loop of
``tests/virtual_clock.py``, so they do not depend on host speed.  A
solo request's equivalence with the serial simulator is
``tests/test_serve_solo.py``; the randomized concurrency fuzz (many
requests x random cancellations x checked ledger) lives in
``tests/test_invariants_random.py``.
"""

from __future__ import annotations

import asyncio
import math
import threading

import pytest

from repro.core.plan import Plan
from repro.engine.controller import Controller
from repro.errors import ServiceOverloadError, ValidationError
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import DeviceProfile
from repro.obs.events import EventBus
from repro.serve import RefreshService, ServiceConfig, TenantSpec
from repro.serve.service import percentile
from repro.store.config import SpillConfig, TierSpec
from repro.workloads.five_workloads import build_workload

from tests.test_serve_solo import assert_solo_is_serial, run_solo
from tests.virtual_clock import run_virtual

_SPILL = SpillConfig(tiers=(TierSpec("disk"),))


def _case(scale_gb: float = 20.0, ram_fraction: float = 0.25,
          workload: str = "io1"):
    graph = build_workload(workload, scale_gb=scale_gb)
    budget = ram_fraction * graph.total_size()
    plan = Controller().plan(graph, budget, method="sc", seed=0)
    return graph, plan, budget


def _config(budget: float, **overrides) -> ServiceConfig:
    defaults = dict(ram_budget_gb=budget, spill=_SPILL,
                    time_scale=1e-4, max_concurrent=4)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _assert_clean(service: RefreshService) -> None:
    violations = service.audit()
    assert all(not value for value in violations.values()), violations


# ----------------------------------------------------------------------
# construction / validation
# ----------------------------------------------------------------------

def test_tenant_shares_must_partition_the_budget():
    config = _config(4.0)
    with pytest.raises(ValidationError):
        RefreshService(config, [TenantSpec("a", 0.7),
                                TenantSpec("b", 0.7)])
    with pytest.raises(ValidationError):
        RefreshService(config, [TenantSpec("a", 0.0)])
    with pytest.raises(ValidationError):
        RefreshService(config, [])
    with pytest.raises(ValidationError):
        RefreshService(config, [TenantSpec("a", 0.4),
                                TenantSpec("a", 0.4)])


def test_tenant_shares_register_on_the_shared_ledger():
    service = RefreshService(_config(8.0), [TenantSpec("a", 0.75),
                                            TenantSpec("b", 0.25)])
    assert sorted(service.ledger.tenant_names()) == ["a", "b"]
    for name, budget in (("a", 6.0), ("b", 2.0)):
        assert service.ledger.tenants.account(name).budget == \
            pytest.approx(budget)
        assert service.ledger.tenant_usage(name) == 0.0


@pytest.mark.parametrize("setting", [
    {"max_concurrent": 0}, {"queue_limit": 0}, {"time_scale": 0.0},
    {"time_scale": -1e-4}, {"time_scale": math.inf},
    {"time_scale": math.nan}, {"deadline_s": 0.0}, {"deadline_s": -1.0},
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_config_rejects_settings_under_which_no_request_ends(setting):
    # max_concurrent=0 never starts a request; time_scale=0 divides by
    # zero as a request starts; a deadline <= 0 expires every request
    with pytest.raises(ValidationError):
        _config(1.0, **setting)


class _AdmissionFails(EventBus):
    """A bus whose ``admitted`` instant raises: the first statement of
    a request's start-up fails."""

    def instant(self, name, *args, **kwargs):
        if name == "admitted":
            raise RuntimeError("admission hook failed")
        super().instant(name, *args, **kwargs)


def test_a_request_whose_start_up_raises_ends_failed_and_frees_its_slot():
    graph, plan, budget = _case()

    async def main():
        service = RefreshService(_config(budget, max_concurrent=1),
                                 [TenantSpec("a", 1.0)],
                                 bus=_AdmissionFails())
        async with service as svc:
            handles = [await svc.submit(graph, plan, tenant="a")
                       for _ in range(2)]
            # the second request starts only once the first freed the
            # one slot; a hang times out in virtual seconds instead
            results = [await asyncio.wait_for(handle, timeout=60.0)
                       for handle in handles]
        return service, results

    service, results = run_virtual(main())
    assert [r.status for r in results] == ["failed"] * 2
    assert all("admission hook failed" in r.error for r in results)
    _assert_clean(service)


def test_submit_rejects_unknown_tenant():
    graph, plan, budget = _case()

    async def main():
        async with RefreshService(_config(budget),
                                  [TenantSpec("a", 1.0)]) as svc:
            with pytest.raises(ValidationError):
                await svc.submit(graph, plan, tenant="nobody")

    asyncio.run(main())


# ----------------------------------------------------------------------
# happy path
# ----------------------------------------------------------------------

def test_concurrent_requests_share_one_ledger_cleanly():
    graph, plan, budget = _case()

    async def main():
        service = RefreshService(
            _config(budget), [TenantSpec("a", 0.5, priority=1),
                              TenantSpec("b", 0.5)])
        async with service as svc:
            handles = [await svc.submit(graph, plan,
                                        tenant="ab"[i % 2])
                       for i in range(6)]
            results = [await handle for handle in handles]
        return service, results

    service, results = asyncio.run(main())
    assert [r.status for r in results] == ["ok"] * 6
    assert {r.tenant for r in results} == {"a", "b"}
    for result in results:
        assert result.trace is not None
        assert result.trace.extras["service"]["tenant"] == result.tenant
        assert result.latency_s > 0
        assert result.queue_wait_s is not None
    _assert_clean(service)
    latencies = service.latencies_by_tenant()
    assert len(latencies["a"]) == 3 and len(latencies["b"]) == 3


def test_plan_none_runs_in_topological_order_nothing_flagged():
    graph, _, budget = _case()

    async def main():
        service = RefreshService(_config(budget), [TenantSpec("a", 1.0)])
        async with service as svc:
            result = await (await svc.submit(graph, None, tenant="a"))
        return service, result

    service, result = asyncio.run(main())
    assert result.status == "ok"
    assert not any(trace.flagged for trace in result.trace.nodes)
    _assert_clean(service)


def test_higher_priority_tenant_dispatches_first():
    graph, plan, budget = _case()

    async def main():
        service = RefreshService(
            _config(budget, max_concurrent=1),
            [TenantSpec("low", 0.5, priority=0),
             TenantSpec("high", 0.5, priority=9)])
        async with service as svc:
            first = await svc.submit(graph, plan, tenant="low")
            # both queued while `first` occupies the only slot:
            # the high-priority tenant must overtake FIFO order
            second = await svc.submit(graph, plan, tenant="low")
            third = await svc.submit(graph, plan, tenant="high")
            results = [await h for h in (first, second, third)]
        return service, {r.request_id: r for r in results}

    service, by_id = asyncio.run(main())
    assert all(r.status == "ok" for r in by_id.values())
    assert by_id["r2"].started_s < by_id["r1"].started_s
    _assert_clean(service)


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------

def test_full_queue_rejects_with_overload_error():
    graph, plan, budget = _case()

    async def main():
        service = RefreshService(
            _config(budget, max_concurrent=1, queue_limit=2),
            [TenantSpec("a", 1.0)])
        async with service as svc:
            # back-to-back submissions never yield to the dispatcher,
            # so both sit in the pending queue and the third submission
            # must bounce off the queue_limit
            handles = [await svc.submit(graph, plan, tenant="a"),
                       await svc.submit(graph, plan, tenant="a")]
            with pytest.raises(ServiceOverloadError):
                await svc.submit(graph, plan, tenant="a")
            results = [await handle for handle in handles]
        return service, results

    service, results = asyncio.run(main())
    assert [r.status for r in results] == ["ok"] * 2
    _assert_clean(service)


# ----------------------------------------------------------------------
# cancellation / deadlines: clean unwind of the shared ledger
# ----------------------------------------------------------------------

def test_cancelled_request_unwinds_without_leaks():
    # a big spilling workload cancelled mid-flight must leave zero
    # residue: no holds, no reservations, no consumer counts
    graph, plan, budget = _case(scale_gb=50.0, workload="io2")

    async def main():
        service = RefreshService(_config(budget, time_scale=1e-3),
                                 [TenantSpec("a", 1.0)])
        async with service as svc:
            victim = await svc.submit(graph, plan, tenant="a")
            survivor = await svc.submit(graph, plan, tenant="a")
            await asyncio.sleep(0.01)  # let it reach mid-run
            victim.cancel()
            results = [await victim, await survivor]
        return service, results

    service, (cancelled, ok) = run_virtual(main())
    assert cancelled.status == "cancelled"
    assert cancelled.trace is None
    assert 0.01 < cancelled.finished_s < ok.finished_s  # mid-run
    assert ok.status == "ok"  # the survivor is unaffected
    _assert_clean(service)
    assert service.ledger.resident() == []
    assert service.ledger.tenant_usage("a") == pytest.approx(0.0, abs=1e-9)


def test_deadline_expires_as_timeout_and_unwinds():
    graph, plan, budget = _case(scale_gb=50.0, workload="io2")

    async def main():
        service = RefreshService(_config(budget, time_scale=1e-3),
                                 [TenantSpec("a", 1.0)])
        async with service as svc:
            handle = await svc.submit(graph, plan, tenant="a",
                                      deadline_s=0.02)
            return service, await handle

    service, result = run_virtual(main())
    assert result.status == "timeout"
    assert "deadline" in result.error
    # checked at the first node boundary past the deadline
    assert result.started_s == 0.0 and result.finished_s > 0.02
    _assert_clean(service)


def test_caller_supplied_cancel_event_is_honored():
    graph, plan, budget = _case()
    cancel = threading.Event()
    cancel.set()  # cancelled before the first node boundary

    async def main():
        service = RefreshService(_config(budget), [TenantSpec("a", 1.0)])
        async with service as svc:
            handle = await svc.submit(graph, plan, tenant="a",
                                      cancel=cancel)
            return service, await handle

    service, result = asyncio.run(main())
    assert result.status == "cancelled"
    _assert_clean(service)


def test_audit_lists_a_leaked_spilled_entry_once():
    # an entry leaked *below* RAM must be reported, and exactly once
    graph, plan, budget = _case()
    service = RefreshService(_config(budget), [TenantSpec("a", 1.0)])
    tier, _ = service.ledger.spill_insert("leak", 2.0 * budget,
                                          n_consumers=1)
    assert tier > 0
    assert service.audit()["leaked_entries"] == ["leak"]


def test_audit_lists_an_owner_record_without_an_entry():
    service = RefreshService(_config(1.0), [TenantSpec("a", 1.0)])
    service.ledger.set_owner("ghost", "a")
    assert service.audit()["orphan_owners"] == ["ghost"]


def test_an_output_no_tier_can_host_leaves_no_owner_record():
    # a flagged output bigger than every tier of a finite hierarchy
    # loses its flag to a blocking write; the owner record the service
    # tagged it with before admission must go with it
    graph = DependencyGraph()
    graph.add_node("a", size=0.5, compute_time=1.0)
    graph.add_node("huge", size=3.0, compute_time=1.0)
    graph.add_edge("a", "huge")
    plan = Plan.make(["a", "huge"], {"a", "huge"})
    service = RefreshService(
        _config(1.0, spill=SpillConfig(tiers=(TierSpec("ssd", 1.0),))),
        [TenantSpec("a", 1.0)])

    async def main():
        async with service as svc:
            handles = [await svc.submit(graph, plan, tenant="a")
                       for _ in range(3)]
            return [await handle for handle in handles]

    results = run_virtual(main())
    assert [r.status for r in results] == ["ok"] * 3
    assert all(r.trace.nodes[1].write > 0 for r in results)  # lost flag
    assert service.ledger.tenants.owners == {}
    _assert_clean(service)


# ----------------------------------------------------------------------
# tenant isolation
# ----------------------------------------------------------------------

def test_spill_insert_sheds_only_the_owners_entries():
    # tenant a is at its 1 GB share: its next output fits RAM but not
    # the share, so admission demotes a's own entry and leaves b's
    service = RefreshService(_config(2.0), [TenantSpec("a", 0.5),
                                            TenantSpec("b", 0.5)])
    ledger = service.ledger
    for key, owner in (("b/old", "b"), ("a/old", "a"), ("a/new", "a")):
        ledger.set_owner(key, owner)
    ledger.spill_insert("b/old", 0.5, n_consumers=1)
    ledger.spill_insert("a/old", 1.0, n_consumers=1)
    tier, charges = ledger.spill_insert("a/new", 0.5, n_consumers=1)
    assert tier == 0
    assert [charge.node_id for charge in charges] == ["a/old"]
    assert ledger.tier_of("b/old") == 0 and ledger.tier_of("a/old") == 1
    assert ledger.tenant_usage("a") == pytest.approx(0.5)
    # RAM has room for a/old again, a's share has not: no promote
    assert ledger.promote("a/old") is None
    assert ledger.prefetch(["a/old"]) == 0.0
    assert ledger.tier_of("a/old") == 1
    ledger.force_release("a/new")
    assert ledger.promote("a/old") is not None


def test_tenant_share_is_enforced_by_shedding_own_entries():
    # shares are enforced at every RAM admission: a flagged output
    # first sheds the owner's own RAM entries until it fits the share,
    # and a promote that would not fit the share is not made, so a
    # tenant's peak can exceed its slice by at most one over-share
    # output, in every interleaving of the concurrent requests
    graph, plan, budget = _case(scale_gb=50.0, workload="io2",
                                ram_fraction=0.5)
    largest = max(graph.size_of(node) for node in graph.nodes())

    async def main():
        service = RefreshService(
            _config(budget), [TenantSpec("a", 0.5), TenantSpec("b", 0.5)])
        async with service as svc:
            handles = [await svc.submit(graph, plan, tenant="ab"[i % 2])
                       for i in range(4)]
            results = [await handle for handle in handles]
        return service, results

    service, results = asyncio.run(main())
    assert all(r.status == "ok" for r in results)
    report = service.ledger.tier_report()
    for name in ("a", "b"):
        tenant = report["tenants"][name]
        assert tenant["peak"] > 0  # both tenants actually used RAM
        assert tenant["peak"] <= tenant["budget"] + largest + 1e-6, (
            f"tenant {name} peak {tenant['peak']} burst more than one "
            f"entry past its share {tenant['budget']}")
    _assert_clean(service)


# ----------------------------------------------------------------------
# one lifecycle: the serial simulator's, over the shared state
# ----------------------------------------------------------------------

def test_solo_request_charges_match_the_serial_simulator():
    # one kernel lifecycle bills both: on the virtual loop a solo
    # service request bills every node exactly what the serial
    # simulator bills it (tests/test_serve_solo.py runs 200+ cells)
    graph, plan, _ = _case()
    assert_solo_is_serial(graph, plan, graph.total_size(), _SPILL)


def test_service_reads_contend_on_the_shared_storage_device():
    # a foreground read issued while a background materialization is in
    # flight pays the device's interference, as on every backend
    graph = DependencyGraph()
    graph.add_node("a", size=10.0, compute_time=0.1)
    graph.add_node("b", size=0.1, compute_time=0.1,
                   meta={"base_input_gb": 1.0})
    graph.add_edge("a", "b")
    profile = DeviceProfile()
    _, result = run_solo(graph, Plan.make(["a", "b"], {"a"}), 20.0, _SPILL,
                         profile)
    reader = result.trace.nodes[1]
    assert result.trace.extras["service"]["tenant"] == "solo"
    assert reader.read_memory > 0  # parent served from the catalog
    assert reader.read_disk == pytest.approx(
        profile.read_time_disk(1.0)
        * (1.0 + profile.background_interference))


def test_refresh_concurrent_convenience_wrapper():
    graph, plan, budget = _case()
    controller = Controller(spill=_SPILL)
    requests = [(graph, plan, "a"), (graph, plan, "b"),
                (graph, None, "a")]
    results, service = controller.refresh_concurrent(
        requests, budget,
        [TenantSpec("a", 0.5, priority=1), TenantSpec("b", 0.5)],
        time_scale=1e-4)
    assert [r.status for r in results] == ["ok"] * 3
    assert [r.tenant for r in results] == ["a", "b", "a"]
    _assert_clean(service)


# ----------------------------------------------------------------------
# cli + helpers
# ----------------------------------------------------------------------

def test_cli_serve_smoke_exits_zero(capsys):
    from repro.cli import main

    status = main(["serve", "--requests", "6", "--tenants", "2",
                   "--scale-gb", "10", "--time-scale", "1e-4"])
    out = capsys.readouterr().out
    assert status == 0
    assert "audit: clean" in out
    assert "tenant-0" in out and "tenant-1" in out


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    with pytest.raises(ValidationError):
        percentile([], 50)
