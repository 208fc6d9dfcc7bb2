"""A stall-vs-spill verdict, and the victim prices it adds up.

``TieredLedger.estimate_spill_seconds(size, at_least=wait)`` stops
pricing victims once the running cost reaches ``wait``.  A caller that
only compares ``wait <= estimate`` must get the same answer as from the
whole estimate, over random tiered ledgers and thresholds — including
the ``fits -> 0.0`` case and the not-enough-victims ``None`` case.

The estimate adds prices each ``VictimInfo`` carries (``demote_cost``,
``create_cost``).  They are cached in the victim index, so every input
they read must invalidate them: after ``set_compressibility`` and after
an adaptive codec decision, each ranked price is what a fresh
``_move_seconds`` says.

Whole serial and ``workers=4`` runs are trace-equal to runs that price
every estimate whole: the first arbitration of a node, whose estimate a
stall win records, never asks for a verdict.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.store.config import (
    LOCAL_DISK_PROFILE,
    RAM_COMPRESSED,
    SSD_PROFILE,
    ZLIB_CODEC,
    CodecAdaptConfig,
    NONE_CODEC,
    SpillConfig,
    TierSpec,
)
from repro.store.tiered import TieredLedger
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

from tests.conftest import assert_victim_index_current

_HIERARCHIES = [
    (TierSpec("disk"),),
    (TierSpec("ssd", 2.0, profile=SSD_PROFILE), TierSpec("disk")),
    (TierSpec(RAM_COMPRESSED, 1.0),
     TierSpec("disk", profile=LOCAL_DISK_PROFILE)),
]


@st.composite
def tiered_ledgers(draw):
    """A RAM + spill-tier ledger with residents in RAM and below it,
    some bytes reserved and, sometimes, bytes charged without an entry
    (which no demotion can free)."""
    spill = SpillConfig(
        tiers=draw(st.sampled_from(_HIERARCHIES)),
        policy=draw(st.sampled_from(["cost", "lru", "largest"])),
        promote=draw(st.booleans()),
        codec=draw(st.sampled_from(["none", "zlib", "columnar"])))
    budget = draw(st.floats(1.0, 8.0))
    ledger = TieredLedger(budget, spill,
                          charge_io=draw(st.booleans()))
    n = draw(st.integers(0, 8))
    ledger.set_compressibility({
        f"n{i}": mult for i in range(n)
        if (mult := draw(st.one_of(st.none(), st.floats(0.0, 3.0))))
        is not None})
    for i in range(n):
        size = draw(st.floats(0.0, budget / 2))
        ledger.spill_insert(f"n{i}", size,
                            n_consumers=draw(st.integers(0, 3)),
                            materialization_pending=draw(st.booleans()))
        if draw(st.booleans()):
            ledger.note_read(f"n{i}")
    if draw(st.booleans()) and ledger.fits(0.25):
        ledger.reserve("reserved", draw(st.floats(0.0, 0.25)))
    if draw(st.booleans()) and ledger.fits(0.25):
        ledger.charge(draw(st.floats(0.0, 0.25)))
    return ledger


@settings(deadline=None)
@given(ledger=tiered_ledgers(), data=st.data())
def test_verdict_equals_the_full_estimate_compared(ledger, data):
    size = data.draw(st.floats(0.0, 1.5 * ledger.budget))
    full = ledger.estimate_spill_seconds(size)
    # thresholds at, just around and well inside the full figure, where
    # a stop-early bug would flip the answer
    near = [] if full is None else [
        full, math.nextafter(full, -math.inf),
        math.nextafter(full, math.inf), full / 2]
    wait = data.draw(st.one_of(st.sampled_from([0.0, *near]),
                               st.floats(0.0, 100.0)))
    part = ledger.estimate_spill_seconds(size, at_least=wait)
    assert (part is None) == (full is None)
    assert (part is not None and wait <= part) == (
        full is not None and wait <= full)
    if full is not None:
        assert part <= full
        if part < wait:  # no early stop: the whole number came back
            assert part == full


def _ledger(budget=4.0, **spill):
    return TieredLedger(budget, SpillConfig(**spill))


def test_verdict_when_the_size_already_fits():
    ledger = _ledger()
    ledger.insert("a", 1.0, n_consumers=1)
    assert ledger.estimate_spill_seconds(2.0) == 0.0
    assert ledger.estimate_spill_seconds(2.0, at_least=0.0) == 0.0
    assert ledger.estimate_spill_seconds(2.0, at_least=5.0) == 0.0


def test_verdict_when_victims_cannot_free_enough():
    # charged bytes count as usage but belong to no entry: RAM could
    # admit 3 GB in principle, yet demoting every entry frees only 1
    ledger = _ledger()
    ledger.insert("a", 1.0, n_consumers=1)
    ledger.charge(2.5)
    assert ledger.estimate_spill_seconds(3.0) is None
    for wait in (0.0, 1e-9, 10.0):
        assert ledger.estimate_spill_seconds(3.0, at_least=wait) is None


def test_verdict_stops_pricing_but_keeps_counting_sizes():
    ledger = _ledger(promote=False)
    for i in range(4):
        ledger.insert(f"n{i}", 1.0, n_consumers=2)
    full = ledger.estimate_spill_seconds(3.0)
    first = next(iter(ledger._victim_index.ranked(0)))
    price = first.demote_cost + 2 * first.reload_cost
    assert 0.0 < price < full
    # reached after the first victim: the rest go unpriced
    assert ledger.estimate_spill_seconds(3.0, at_least=price) == price


# ----------------------------------------------------------------------
# cached prices
# ----------------------------------------------------------------------
def _assert_prices_fresh(ledger):
    ram, dst = ledger.tiers[0], ledger.tiers[1]
    ranked = list(ledger._victim_index.ranked(0))
    assert ranked
    for victim in ranked:
        logical = ledger.size_of(victim.node_id)
        assert victim.demote_cost == ledger._move_seconds(
            ram, logical, NONE_CODEC, dst,
            logical / ledger._entry_ratio(1, victim.node_id), logical)
        assert victim.create_cost == ledger.profile.create_time_memory(
            logical)
    assert_victim_index_current(ledger)
    return {victim.node_id: victim.demote_cost for victim in ranked}


def test_prices_follow_set_compressibility():
    ledger = _ledger(budget=8.0, codec="zlib")
    for i in range(4):
        ledger.insert(f"n{i}", 1.0 + i / 2, n_consumers=1)
    before = _assert_prices_fresh(ledger)
    ledger.set_compressibility({"n0": 0.0, "n2": 3.0})
    after = _assert_prices_fresh(ledger)
    assert after["n0"] != before["n0"] and after["n2"] != before["n2"]
    assert after["n1"] == before["n1"]


def test_prices_follow_an_adaptive_codec_decision():
    # two incompressible spills into the zlib tier: observed ratio 1.0
    # against the 2.6 preset re-prices the tier, which moves the demote
    # price of every RAM entry without a multiplier of its own
    ledger = TieredLedger(4.0, SpillConfig(
        tiers=(TierSpec("ssd", 100.0, profile=SSD_PROFILE,
                        codec=ZLIB_CODEC), TierSpec("disk")),
        adapt=CodecAdaptConfig(samples=2, allow_switch=False)))
    ledger.set_compressibility({"s0": 0.0, "s1": 0.0})
    for name in ("s0", "s1"):
        ledger.insert(name, 1.0, n_consumers=1)
    ledger.insert("keep", 1.0, n_consumers=1)
    before = _assert_prices_fresh(ledger)
    for name in ("s0", "s1"):
        ledger.demote(name)
    assert "ssd" in ledger.stats.codec_adapt
    assert ledger.tiers[1].priced_ratio == 1.0
    after = _assert_prices_fresh(ledger)
    assert after["keep"] > before["keep"]


# ----------------------------------------------------------------------
# whole runs: a verdict never changes a trace
# ----------------------------------------------------------------------
def _spilling_cell():
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=1600), seed=1)
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="greedy+madfs", seed=0).plan
    peak = Controller().refresh(graph, budget, plan=plan,
                                method="sc").peak_catalog_usage
    spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                               TierSpec("disk")),
                        codec="zlib", prefetch=True)
    return graph, plan, 0.25 * peak, spill


# the cell of benchmarks/perf's sim_spill; its serial run stalls at
# most once per node, so only the scheduler's repeat arbitrations are
# sure to ask for verdicts
@pytest.mark.parametrize("backend,workers,repeats", [
    ("simulator", 1, False), ("parallel", 4, True)])
def test_runs_are_trace_equal_to_pricing_every_estimate_whole(
        backend, workers, repeats, monkeypatch):
    graph, plan, ram, spill = _spilling_cell()

    def run():
        return Controller(spill=spill).refresh(
            graph, ram, plan=plan, method="sc", backend=backend,
            workers=workers).to_dict()

    asked = []
    whole = TieredLedger.estimate_spill_seconds

    def counting(self, size, now=0.0, at_least=None):
        asked.append(at_least)
        return whole(self, size, now, at_least=at_least)

    monkeypatch.setattr(TieredLedger, "estimate_spill_seconds", counting)
    fast = run()
    verdicts = sum(at_least is not None for at_least in asked)
    assert asked and (verdicts > 0) == repeats
    monkeypatch.setattr(
        TieredLedger, "estimate_spill_seconds",
        lambda self, size, now=0.0, at_least=None: whole(self, size, now))
    assert run() == fast
