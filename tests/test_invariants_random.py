"""Randomized invariant harness for the tiered ledger (fuzz-style).

Seeded generator of random DAGs x tier configs x codecs x policies x
feedback knobs, executed on the serial simulator *and* the parallel
backend at ``workers=1``.  A checking subclass of ``TieredLedger`` is
monkeypatched into both backends so that after **every public
mutation** the core accounting invariants are re-verified in place:

* RAM is charged logical bytes (``size_of == stored_size_of`` in RAM)
  and each tier's usage equals the sum of its entries' stored bytes;
* no ledger exceeds its budget and no balance ever goes negative;
* ``size_of`` / ``stored_size_of`` stay consistent (stored never
  exceeds logical — realized ratios are clamped to >= 1);
* spill / promote counters match the demotion / promotion episodes the
  harness independently tallies;
* an entry is resident in exactly one tier;
* every tier's victim index, marks resolved, equals the ranking rebuilt
  from scratch (``tests.conftest.assert_victim_index_current``).

On top of the per-step checks, the two backends' traces must be
bit-equal (full ``to_dict`` equality, extras included) and JSON
round-trip losslessly.

Runs under the ``random_invariants`` marker; CI gives it a dedicated
job with a fixed seed matrix (``REPRO_INVARIANT_SEEDS``, default
``0,1,2``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.core.residency import peak_memory_usage
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.engine.trace import RunTrace
from repro.store.config import (
    RAM_COMPRESSED,
    CodecAdaptConfig,
    SpillConfig,
    TierSpec,
)
from repro.store.stats import Traffic
from repro.store.tiered import TieredLedger
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

from tests.conftest import assert_victim_index_current

SEEDS = [int(text) for text in
         os.environ.get("REPRO_INVARIANT_SEEDS", "0,1,2").split(",")]

#: random DAG/config cases drawn per seed
CASES_PER_SEED = 5

_EPS = 1e-6


class LedgerInvariantError(AssertionError):
    """A core accounting invariant broke mid-run."""


class CheckedLedger(TieredLedger):
    """TieredLedger that re-verifies the ledger invariants after every
    public mutation, and independently tallies migration episodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.observed_demotions = 0
        self.observed_promotions = 0
        self.checks_run = 0

    # -- independent episode tallies ----------------------------------
    def _demote(self, node_id, now, mover=None, exclude=frozenset()):
        moved, charges = super()._demote(node_id, now, mover, exclude)
        if moved:
            self.observed_demotions += 1
        return moved, charges

    def _promote(self, node_id, now):
        charge = super()._promote(node_id, now)
        if charge is not None:
            self.observed_promotions += 1
        return charge

    # -- per-step verification ----------------------------------------
    def _check(self) -> None:
        self.checks_run += 1
        seen: dict[str, int] = {}
        # RAM: usage equals the sum of entry sizes, logical == stored
        ram_sum = sum(e.size for e in self._entries.values())
        self._expect(abs(self.usage - ram_sum - self._charged) <= _EPS,
                     f"RAM usage {self.usage} != entry sum {ram_sum}")
        for node_id in self._entries:
            seen[node_id] = seen.get(node_id, 0) + 1
            self._expect(
                self.size_of(node_id) == self.stored_size_of(node_id),
                f"RAM entry {node_id} logical != stored")
        for index, tier in enumerate(self.tiers):
            ledger = tier.ledger
            self._expect(ledger.usage >= -_EPS,
                         f"tier {tier.name} usage negative")
            self._expect(ledger.usage <= ledger.budget + _EPS,
                         f"tier {tier.name} over budget: "
                         f"{ledger.usage} > {ledger.budget}")
            if index == 0:
                continue
            # the routing table's view of the tier must be the
            # tier ledger's own (and, below, the victim index's)
            entries = [n for n, spilled in self._below.items()
                       if spilled.tier == index]
            self._expect(set(entries) == set(ledger._entries),
                         f"tier {tier.name}: routing table and "
                         f"tier ledger disagree on its residents")
            tier_sum = sum(ledger.size_of(n) for n in entries)
            self._expect(abs(ledger.usage - tier_sum) <= _EPS,
                         f"tier {tier.name} usage {ledger.usage} != "
                         f"stored sum {tier_sum}")
            for node_id in entries:
                seen[node_id] = seen.get(node_id, 0) + 1
                logical = self.size_of(node_id)
                stored = self.stored_size_of(node_id)
                self._expect(
                    stored <= logical + _EPS,
                    f"{node_id}: stored {stored} > logical {logical}")
                self._expect(stored >= 0.0 and logical >= 0.0,
                             f"{node_id}: negative size")
        for node_id, count in seen.items():
            self._expect(count == 1,
                         f"{node_id} resident in {count} tiers")
        # victim ranking: the lazily synced index equals a rebuild
        # from scratch — members, order, every cached field
        assert_victim_index_current(self)
        # tenant accounting (multi-tenant serving): every balance
        # non-negative, and the sum of tenant usages equals the sum
        # of owned RAM entries — tenant books never drift from the
        # ledger's own tier-0 accounting
        owned_sum = sum(
            entry.size for node_id, entry in self._entries.items()
            if self.tenants.owners.get(node_id) is not None)
        tenant_sum = 0.0
        for name, account in self.tenants.accounts.items():
            self._expect(account.usage >= -_EPS,
                         f"tenant {name} usage negative: "
                         f"{account.usage}")
            tenant_sum += account.usage
        self._expect(abs(tenant_sum - owned_sum) <= _EPS,
                     f"tenant usage sum {tenant_sum} != owned RAM "
                     f"entry sum {owned_sum}")
        # counters: monotone, non-negative, episode-consistent
        # (prefetch promotions count on the prefetch counter, not
        # promote_count — together they cover every up-move)
        stats = self.stats
        self._expect(
            stats.spill_count == self.observed_demotions,
            f"spill_count {stats.spill_count} != observed demotion "
            f"episodes {self.observed_demotions}")
        self._expect(
            stats.promote_count + stats.prefetch_count
            == self.observed_promotions,
            f"promote_count {stats.promote_count} + prefetch_count "
            f"{stats.prefetch_count} != observed promotion episodes "
            f"{self.observed_promotions}")
        for name in ("spill_bytes", "promote_bytes",
                     "spill_stored_bytes", "prefetch_bytes",
                     "prefetch_hidden_seconds", "stall_seconds",
                     "avoided_spill_seconds"):
            self._expect(getattr(stats, name) >= 0.0,
                         f"{name} went negative")
        self._expect(
            0 <= stats.demote_bypass_count <= stats.spill_count,
            "demote_bypass_count out of range")
        # per-tier telemetry (spill-in/read/promote episodes, the
        # decode-aware read counters included) never goes negative
        for index, telemetry in enumerate(stats.tiers):
            flat = {name: value for name, value in
                    vars(telemetry).items()
                    if not isinstance(value, Traffic)}
            for leg in ("spill_in", "read", "promote"):
                flat.update(
                    (f"{leg}.{name}", value) for name, value in
                    vars(getattr(telemetry, leg)).items())
            for field, value in flat.items():
                self._expect(value >= 0,
                             f"tier {index} telemetry {field} "
                             f"went negative")

    @staticmethod
    def _expect(condition: bool, message: str) -> None:
        if not condition:
            raise LedgerInvariantError(message)


def _checked(method_name):
    """Wrap a public mutator so every call ends in a full check."""
    original = getattr(TieredLedger, method_name)

    def wrapper(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        self._check()
        return result

    wrapper.__name__ = method_name
    return wrapper


for _name in ("demote", "promote", "prefetch", "try_make_room",
              "insert", "consumer_done", "materialized",
              "force_release", "adopt", "demote_victim", "set_owner",
              "note_read"):
    setattr(CheckedLedger, _name, _checked(_name))


# spill_insert's direct-placement path increments spill_count without a
# _demote call; observe it by diffing around the original body
_original_spill_insert = TieredLedger.spill_insert


def _spill_insert_checked(self, *args, **kwargs):
    before = self.stats.spill_count - self.observed_demotions
    result = _original_spill_insert(self, *args, **kwargs)
    tier_idx, _ = result
    if tier_idx > 0:
        self.observed_demotions += 1  # direct placement episode
    drift = (self.stats.spill_count - self.observed_demotions) - before
    if drift:
        raise LedgerInvariantError(
            f"spill_insert changed spill_count by an unobserved "
            f"{drift} episodes")
    self._check()
    return result


CheckedLedger.spill_insert = _spill_insert_checked


def _random_case(rng: random.Random):
    """One random (graph, plan, ram, SpillConfig) scenario."""
    n_nodes = rng.choice([12, 18, 24])
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(
            n_nodes=n_nodes,
            height_width_ratio=rng.choice([0.5, 1.0, 2.0])),
        seed=rng.randrange(10_000))
    codec = rng.choice(["none", "zlib"])
    if codec != "none" and rng.random() < 0.7:
        for node_id in graph.nodes():
            graph.node(node_id).meta["compressibility"] = rng.choice(
                [0.0, 0.3, 1.0, 2.0])
    budget = rng.uniform(0.2, 0.4) * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=rng.randrange(100)).plan
    peak = Controller().refresh(
        graph, budget, plan=plan, method="sc").peak_catalog_usage
    if peak <= 0:
        return None
    ram = rng.uniform(0.25, 0.8) * peak
    tiers = [TierSpec("ssd", rng.uniform(0.3, 0.8) * peak)]
    if rng.random() < 0.8:
        tiers.append(TierSpec(
            "disk",
            codec=rng.choice([None, "none", "zlib"])))
    else:
        tiers[0] = TierSpec("ssd")  # single unbounded tier
    if rng.random() < 0.5:
        # compressed-in-RAM rung above the device tiers: finite stored
        # budget, its own codec half the time (else the zlib1 default)
        tiers.insert(0, TierSpec(
            RAM_COMPRESSED, rng.uniform(0.1, 0.4) * peak,
            codec=rng.choice([None, "zlib1", "columnar"])))
    spill = SpillConfig(
        tiers=tuple(tiers),
        policy=rng.choice(["cost", "lru", "largest"]),
        promote=rng.random() < 0.8,
        arbitrate=rng.random() < 0.8,
        codec=codec,
        prefetch=rng.random() < 0.5,
        adapt=(CodecAdaptConfig(samples=rng.choice([1, 2, 4]))
               if rng.random() < 0.5 else None))
    return graph, plan, ram, spill


@pytest.mark.random_invariants
@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_ledger_invariants(seed, monkeypatch):
    """Random scenarios: per-step ledger invariants hold on both
    backends and the serial / ``workers=1`` traces stay bit-equal."""
    monkeypatch.setattr("repro.store.tiered.TieredLedger", CheckedLedger)
    rng = random.Random(seed)
    cases = spills = 0
    while cases < CASES_PER_SEED:
        case = _random_case(rng)
        if case is None:
            continue
        graph, plan, ram, spill = case
        cases += 1
        controller = Controller(options=SimulatorOptions(spill=spill))
        serial = controller.refresh(graph, ram, plan=plan, method="sc")
        workers1 = controller.refresh(graph, ram, plan=plan, method="sc",
                                      backend="parallel", workers=1)
        # zero invariant violations is implicit (a violation raises);
        # make sure the checker actually ran, and ran on both backends
        assert serial.extras["tiered_store"] is not None
        spills += serial.extras["tiered_store"]["spill_count"]
        # bit-equal traces, every field and every extras key
        assert serial.to_dict() == workers1.to_dict()
        # lossless JSON round-trip on a randomized trace
        assert RunTrace.from_json(serial.to_json()).to_dict() \
            == serial.to_dict()
    assert cases == CASES_PER_SEED
    assert spills > 0, "random scenarios never spilled; harness too weak"


@pytest.mark.random_invariants
@pytest.mark.parametrize("seed", SEEDS)
def test_checked_ledger_actually_checks(seed, monkeypatch):
    """Meta-test: the harness's checker runs and can fail.

    Guards against the monkeypatch silently stopping to bite (e.g. a
    backend importing the ledger differently), which would turn the
    whole harness into a vacuous pass.
    """
    monkeypatch.setattr("repro.store.tiered.TieredLedger", CheckedLedger)
    rng = random.Random(seed)
    case = None
    while case is None:
        case = _random_case(rng)
    graph, plan, ram, spill = case
    from repro.exec import create_backend

    ledger = create_backend(
        "simulator", options=SimulatorOptions(spill=spill)).prepare(
            graph, plan, ram).kernel.ledger
    assert isinstance(ledger, CheckedLedger)
    ledger.insert("probe", min(ram, 1.0), n_consumers=1)
    assert ledger.checks_run > 0
    # corrupt the accounting behind the checker's back: must raise
    ledger._usage += 17.0
    with pytest.raises(LedgerInvariantError):
        ledger._check()


# -- interleaved admitters: one select-and-demote call per victim -----

@pytest.mark.random_invariants
@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_admitters_never_double_demote(seed):
    """Admitters draining RAM through :meth:`TieredLedger.demote_victim`
    in a seeded interleaving — service requests taking turns on the
    event loop's one thread — demote every entry exactly once: the
    victims they get back partition the entries.  Invariants re-verify
    after every step (the ``CheckedLedger`` wrappers)."""
    rng = random.Random(seed)
    n_entries = rng.choice([40, 60])
    n_admitters = 4
    ledger = CheckedLedger(
        budget=float(n_entries),
        config=SpillConfig(tiers=(TierSpec("ssd"),)),
        charge_io=False)
    for i in range(n_entries):
        ledger.insert(f"n{i}", rng.uniform(0.5, 1.0), n_consumers=1)

    demoted: list[list[str]] = [[] for _ in range(n_admitters)]
    live = list(range(n_admitters))
    while live:
        admitter = rng.choice(live)
        shed = ledger.demote_victim(now=0.0)
        if shed is None:
            live.remove(admitter)
            continue
        victim, charges = shed
        assert charges is not None
        demoted[admitter].append(victim)

    flat = [victim for per_admitter in demoted for victim in per_admitter]
    assert len(flat) == n_entries, (
        f"{n_entries - len(flat)} entries never demoted")
    assert len(set(flat)) == len(flat), "a victim was demoted twice"
    assert ledger.usage == pytest.approx(0.0, abs=_EPS)
    assert ledger.checks_run > 0


@pytest.mark.random_invariants
@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_owner_filtered_demotion_respects_tenants(seed):
    """Interleaved per-tenant shedders (``demote_victim(owner=...)``)
    only ever demote their own tenant's entries, exactly once each, and
    the tenant balances drain to zero in lockstep."""
    rng = random.Random(seed)
    per_tenant = rng.choice([15, 25])
    ledger = CheckedLedger(
        budget=float(4 * per_tenant),
        config=SpillConfig(tiers=(TierSpec("ssd"),)),
        charge_io=False)
    tenants = ("a", "b")
    for tenant in tenants:
        ledger.register_tenant(tenant, budget=2.0 * per_tenant)
    for i in range(per_tenant):
        for tenant in tenants:
            node = f"{tenant}{i}"
            ledger.set_owner(node, tenant)
            ledger.insert(node, rng.uniform(0.5, 1.0), n_consumers=1)

    demoted: dict[str, list[str]] = {tenant: [] for tenant in tenants}
    live = [tenant for tenant in tenants for _ in range(2)]
    while live:
        tenant = rng.choice(live)
        shed = ledger.demote_victim(now=0.0, owner=tenant)
        if shed is None:
            live.remove(tenant)
            continue
        demoted[tenant].append(shed[0])

    for tenant in tenants:
        assert len(demoted[tenant]) == per_tenant
        assert len(set(demoted[tenant])) == per_tenant
        assert all(victim.startswith(tenant)
                   for victim in demoted[tenant]), (
            f"tenant {tenant} demoted another tenant's entry")
        assert ledger.tenant_usage(tenant) == pytest.approx(0.0,
                                                           abs=_EPS)


# -- service-layer fuzz: concurrent requests x random cancellations ---

@pytest.mark.random_invariants
@pytest.mark.parametrize("seed", SEEDS)
def test_service_requests_with_random_cancellations_leave_no_residue(
        seed):
    """N concurrent refresh requests over one shared CheckedLedger,
    a random subset cancelled mid-flight: every ledger invariant holds
    after every mutation, and after the drain the shared ledger is
    empty — no negative balances, no leaked consumer counts after a
    cancel, and per-tenant usage summing to ledger usage throughout
    (the tenant-sum check inside ``CheckedLedger._check``)."""
    import asyncio

    from repro.serve.service import (
        RefreshService,
        ServiceConfig,
        TenantSpec,
    )

    rng = random.Random(seed)
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=rng.choice([12, 18])),
        seed=rng.randrange(10_000))
    fraction = rng.uniform(0.25, 0.4)
    plan = optimize(ScProblem(graph=graph,
                              memory_budget=fraction * graph.total_size()),
                    method="sc", seed=rng.randrange(100)).plan
    # RAM below one request's no-spill peak, so every seed spills
    budget = fraction * peak_memory_usage(graph, plan.order, plan.flagged)
    config = ServiceConfig(
        ram_budget_gb=budget,
        spill=SpillConfig(tiers=(TierSpec("ssd"),)),
        queue_limit=64, max_concurrent=rng.choice([4, 8]),
        time_scale=1e-4)
    tenants = [TenantSpec("a", 0.5, priority=1), TenantSpec("b", 0.5)]
    ledger = CheckedLedger(budget, config.spill)
    service = RefreshService(config, tenants, ledger=ledger)
    n_requests = 12

    async def run_fuzz():
        async with service as svc:
            handles = []
            for i in range(n_requests):
                handles.append(await svc.submit(
                    graph, plan, tenant="ab"[i % 2],
                    deadline_s=(0.05 if rng.random() < 0.15 else None)))
                await asyncio.sleep(rng.uniform(0.0, 0.004))
            for handle in handles:
                if rng.random() < 0.3:
                    handle.cancel()
            return [await handle for handle in handles]

    results = asyncio.run(run_fuzz())

    statuses = {result.status for result in results}
    assert statuses <= {"ok", "cancelled", "timeout"}, statuses
    assert "ok" in statuses, "every request died; fuzz too aggressive"
    # the run exercised the checker (every mutation re-verified the
    # invariants, tenant-sum included) and actually spilled
    assert ledger.checks_run > 0
    assert ledger.stats.spill_count > 0, "service fuzz never spilled"
    # drained service: zero residue anywhere in the hierarchy
    violations = service.audit()
    assert all(not value for value in violations.values()), violations
    assert ledger.resident() == []
    for tenant in ("a", "b"):
        assert ledger.tenant_usage(tenant) == pytest.approx(0.0,
                                                            abs=_EPS)
