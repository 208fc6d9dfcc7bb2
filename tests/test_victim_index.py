"""The victim index ranks exactly like a rebuild-and-sort, and costs
what an index should.

Two halves:

* **Equivalence** — a Hypothesis state machine drives the public
  ``TieredLedger`` API on a ram -> ssd -> disk hierarchy with a codec
  and armed adaptation, once per policy; after every rule each tier's
  index (marks resolved) must equal the reference ranking over a
  fresh ``VictimInfo`` per resident (``tests.conftest``).
* **Complexity, without a clock** — the policy's key calls are counted:
  a demotion must not re-key the residents it does not touch, a
  repeated estimate must not re-key anything, and a run that never
  spills must never compute a key at all.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.errors import BudgetExceededError
from repro.store.config import CodecAdaptConfig, SpillConfig, TierSpec
from repro.store.policy import POLICIES
from repro.store.tiered import TieredLedger
from repro.workloads import GeneratedWorkloadConfig, generate_workload

from tests.conftest import assert_victim_index_current

NODES = [f"n{i}" for i in range(12)]
nodes = st.sampled_from(NODES)
# zero-size entries rank last under the cost policy (an infinite key)
sizes = st.sampled_from([0.0, 0.4, 1.0, 1.5, 2.5])


class VictimIndexMachine(RuleBasedStateMachine):
    """Random walks over the ledger API; the index must track them."""

    policy = "cost"

    @initialize(disk=st.sampled_from([math.inf, 9.0]))
    def build(self, disk):
        # a bounded last tier makes cascades fail half-way, which is
        # where a ranking walks past its first candidate
        self.ledger = TieredLedger(6.0, SpillConfig(
            tiers=(TierSpec("ssd", 4.0), TierSpec("disk", disk)),
            policy=self.policy, codec="zlib", prefetch=True,
            adapt=CodecAdaptConfig(samples=2)))
        self.reserved: set[str] = set()
        self.pending: set[str] = set()
        self.detached: dict[str, tuple] = {}

    def _new(self, node):
        return (node not in self.ledger and node not in self.reserved
                and node not in self.detached)

    def _admitted(self, node, pending):
        self.pending.discard(node)
        if pending:
            self.pending.add(node)

    # -- admissions -----------------------------------------------------
    @rule(node=nodes, size=sizes, consumers=st.integers(0, 3),
          pending=st.booleans())
    def insert(self, node, size, consumers, pending):
        if not self._new(node):
            return
        try:
            self.ledger.insert(node, size, consumers, pending)
        except BudgetExceededError:
            return  # RAM is full: plain inserts never demote
        self._admitted(node, pending)

    @rule(node=nodes, size=sizes, consumers=st.integers(0, 3),
          pending=st.booleans())
    def spill_insert(self, node, size, consumers, pending):
        if not self._new(node):
            return
        try:
            self.ledger.spill_insert(node, size, consumers, pending)
        except BudgetExceededError:
            return  # bounded disk: nowhere to put it (demotions stand)
        self._admitted(node, pending)

    @rule(node=nodes, size=sizes)
    def reserve(self, node, size):
        if self._new(node) and self.ledger.reserve(node, size):
            self.reserved.add(node)

    @rule(node=nodes, consumers=st.integers(0, 3), pending=st.booleans())
    def commit_reservation(self, node, consumers, pending):
        if node in self.reserved:
            self.reserved.discard(node)
            self.ledger.commit_reservation(node, consumers, pending)
            self._admitted(node, pending)

    # -- the release protocol and accesses ------------------------------
    @rule(node=nodes)
    def note_read(self, node):
        self.ledger.note_read(node)

    @rule(node=nodes)
    def consumer_done(self, node):
        if node in self.ledger and self.ledger.consumers_left(node) > 0:
            self.ledger.consumer_done(node)

    @rule(node=nodes)
    def materialized(self, node):
        if node in self.ledger and node in self.pending:
            self.pending.discard(node)
            self.ledger.materialized(node)

    @rule(node=nodes)
    def force_release(self, node):
        if node in self.ledger:
            self.ledger.force_release(node)

    # -- migrations -----------------------------------------------------
    @rule(exclude=st.frozensets(nodes, max_size=3))
    def demote_victim(self, exclude):
        self.ledger.demote_victim(exclude=exclude)

    @rule(node=nodes)
    def demote(self, node):
        if node in self.ledger:
            try:
                self.ledger.demote(node)
            except BudgetExceededError:
                pass  # already in the last tier, or nothing below fits

    @rule(size=sizes)
    def try_make_room(self, size):
        self.ledger.try_make_room(size)

    @rule(node=nodes)
    def detach(self, node):
        # the raw migration primitive, RAM side, as a caller outside
        # the ledger may use it
        if self.ledger.tier_of(node) == 0:
            self.detached[node] = self.ledger.detach(node)

    @rule(node=nodes)
    def adopt(self, node):
        if node in self.detached and self.ledger.fits(
                self.detached[node][0]):
            self.ledger.adopt(node, *self.detached.pop(node))

    @rule(node=nodes)
    def promote(self, node):
        if node in self.ledger:
            self.ledger.promote(node)

    @rule(parents=st.lists(nodes, max_size=4))
    def prefetch(self, parents):
        self.ledger.prefetch(parents)

    # -- what invalidates every key -------------------------------------
    @rule(mapping=st.dictionaries(
        nodes, st.sampled_from([0.0, 0.3, 1.0, 2.0]), max_size=6))
    def set_compressibility(self, mapping):
        self.ledger.set_compressibility(mapping)

    # -- the queries that resolve marks ---------------------------------
    @rule(size=sizes)
    def estimate(self, size):
        self.ledger.estimate_spill_seconds(size)

    @rule(tier=st.integers(0, 2))
    def rank(self, tier):
        next(self.ledger._victim_index.ranked(tier), None)

    @invariant()
    def index_equals_rebuild(self):
        assert_victim_index_current(self.ledger)


class LruMachine(VictimIndexMachine):
    policy = "lru"


class LargestMachine(VictimIndexMachine):
    policy = "largest"


TestIndexTracksCostPolicy = VictimIndexMachine.TestCase
TestIndexTracksLruPolicy = LruMachine.TestCase
TestIndexTracksLargestPolicy = LargestMachine.TestCase
TestIndexTracksCostPolicy.settings = TestIndexTracksLruPolicy.settings = \
    TestIndexTracksLargestPolicy.settings = settings(
        max_examples=60, stateful_step_count=50, deadline=None)


def test_machine_reaches_adaptation_and_lower_tiers():
    """The walk above is only a test of the index if the state machine
    can get where the index is at risk; replay one such path by hand."""
    machine = VictimIndexMachine()
    machine.build(disk=9.0)
    ledger = machine.ledger
    ledger.set_compressibility({node: 0.0 for node in NODES})
    for node in NODES[:6]:
        machine.spill_insert(node, 2.5, 2, False)
        machine.index_equals_rebuild()
    report = ledger.tier_report()
    assert report["codec_adapt"]["tiers"], "adaptation never decided"
    assert [tier["resident"] for tier in report["tiers"]] == [2, 1, 3]


# ----------------------------------------------------------------------
# complexity guards: counted key() calls, no clock
# ----------------------------------------------------------------------
@pytest.fixture
def key_calls(monkeypatch):
    """Count the ``cost`` policy's key calls (the default policy)."""
    calls = []
    original, summary = POLICIES["cost"]

    def counting_key(victim):
        calls.append(victim.node_id)
        return original(victim)

    monkeypatch.setitem(POLICIES, "cost", (counting_key, summary))
    return calls


def _full_ledger(residents: int) -> TieredLedger:
    ledger = TieredLedger(float(residents),
                          SpillConfig(tiers=(TierSpec("ssd"),)))
    for i in range(residents):
        ledger.insert(f"e{i}", 1.0, 1 + i % 3,
                      materialization_pending=False)
    return ledger


def test_demotions_do_not_rekey_untouched_residents(key_calls):
    residents = 2000
    ledger = _full_ledger(residents)
    assert not key_calls, "inserting must only mark"
    for _ in range(10):
        assert ledger.demote_victim() is not None
    # one lazy build of the tier, then nothing per demotion but the
    # moved entry (a rebuild-and-sort pays `residents` keys each time)
    assert residents <= len(key_calls) <= residents + 50


def test_repeated_estimate_computes_no_key(key_calls):
    ledger = _full_ledger(200)
    first = ledger.estimate_spill_seconds(8.0)
    built = len(key_calls)
    assert built == 200
    assert ledger.estimate_spill_seconds(8.0) == first
    assert len(key_calls) == built
    ledger.consumer_done("e7")          # one mark ...
    ledger.estimate_spill_seconds(8.0)
    assert len(key_calls) == built + 1  # ... one key


def test_no_spill_refresh_never_computes_a_key(key_calls):
    graph = generate_workload(GeneratedWorkloadConfig(n_nodes=1600), seed=1)
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="greedy+madfs", seed=0).plan
    peak = Controller().refresh(graph, budget, plan=plan,
                                method="sc").peak_catalog_usage
    spill = SpillConfig(tiers=(TierSpec("ssd", 0.5 * peak),
                               TierSpec("disk")),
                        codec="zlib", prefetch=True)
    trace = Controller(spill=spill).refresh(graph, peak, plan=plan,
                                            method="sc")
    assert trace.extras["tiered_store"]["spill_count"] == 0
    assert not key_calls
