"""Unit tests for the tiered storage subsystem (repro/store/)."""

import math

import pytest

from repro.errors import BudgetExceededError, CatalogError, ValidationError
from repro.exec.ledger import MemoryLedger
from repro.store import (
    SpillConfig,
    TierSpec,
    TieredLedger,
    VictimInfo,
    parse_tier,
)
from repro.store.policy import POLICIES
from tests.conftest import reference_order


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
class TestTierConfig:
    def test_parse_tier_with_budget(self):
        spec = parse_tier("ssd:8.5")
        assert spec.name == "ssd" and spec.budget == 8.5

    def test_parse_tier_unbounded(self):
        assert parse_tier("disk").budget == math.inf
        assert parse_tier("disk:inf").budget == math.inf
        assert parse_tier("disk:unbounded").budget == math.inf

    def test_parse_tier_bad_budget(self):
        with pytest.raises(ValidationError, match="bad tier budget"):
            parse_tier("ssd:lots")

    def test_bad_tier_name(self):
        with pytest.raises(ValidationError, match="bad tier name"):
            TierSpec(name="")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError, match="must be >= 0"):
            TierSpec(name="ssd", budget=-1.0)

    def test_known_names_resolve_default_profiles(self):
        assert parse_tier("ssd").resolved_profile().disk_read_bandwidth > \
            parse_tier("hdd").resolved_profile().disk_read_bandwidth

    def test_spill_config_rejects_duplicates_and_ram(self):
        with pytest.raises(ValidationError, match="duplicate tier"):
            SpillConfig(tiers=(TierSpec("ssd"), TierSpec("ssd")))
        with pytest.raises(ValidationError, match="'ram'"):
            SpillConfig(tiers=(TierSpec("ram", 4.0),))
        with pytest.raises(ValidationError, match="at least one tier"):
            SpillConfig(tiers=())


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
def _victim(node_id, size=1.0, consumers=1, last_access=0, reload=1.0):
    return VictimInfo(node_id=node_id, size=size, consumers_left=consumers,
                      last_access=last_access, reload_cost=reload)


class TestPolicies:
    def test_builtins_registered(self):
        for name in ("cost", "lru", "largest"):
            assert name in POLICIES

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="unknown spill policy"):
            TieredLedger(1.0, SpillConfig(policy="magic"))

    def test_cost_policy_prefers_cheap_reload_per_byte(self):
        ranked = reference_order("cost", [
            _victim("dead", size=5.0, consumers=0),   # nobody reads again
            _victim("hot", size=1.0, consumers=4),
            _victim("warm", size=4.0, consumers=1),
        ])
        assert [v.node_id for v in ranked] == ["dead", "warm", "hot"]

    def test_lru_policy_orders_by_recency(self):
        ranked = reference_order("lru", [
            _victim("new", last_access=9),
            _victim("old", last_access=1),
        ])
        assert [v.node_id for v in ranked] == ["old", "new"]

    def test_largest_policy_orders_by_size(self):
        ranked = reference_order("largest", [
            _victim("small", size=1.0),
            _victim("big", size=9.0),
        ])
        assert [v.node_id for v in ranked] == ["big", "small"]

    def test_node_id_breaks_ties_deterministically(self):
        ranked = reference_order(
            "largest", [_victim("b"), _victim("a"), _victim("c")])
        assert [v.node_id for v in ranked] == ["a", "b", "c"]

    def test_cost_policy_ranks_zero_size_victims_last(self):
        """Regression: a zero-size entry scored 0.0 — the *best*
        victim — although demoting it frees no bytes; it must rank
        after every real victim."""
        ranked = reference_order("cost", [
            _victim("empty", size=0.0, consumers=0, reload=0.0),
            _victim("busy", size=2.0, consumers=3, reload=5.0),
            _victim("cold", size=4.0, consumers=1, reload=1.0),
        ])
        assert [v.node_id for v in ranked] == ["cold", "busy", "empty"]


# ----------------------------------------------------------------------
# ledger migration primitive
# ----------------------------------------------------------------------
class TestDetachAdopt:
    def test_roundtrip_preserves_protocol_state(self):
        src, dst = MemoryLedger(budget=10.0), MemoryLedger(budget=10.0)
        src.insert("t", 4.0, n_consumers=2, materialization_pending=True)
        src.consumer_done("t")
        dst.adopt("t", *src.detach("t"))
        assert "t" not in src and src.usage == 0.0
        assert dst.usage == 4.0
        assert dst.consumers_left("t") == 1
        assert not dst.consumer_done("t")   # materialization still pending
        assert dst.materialized("t")        # now releasable
        assert dst.usage == 0.0

    def test_adopt_respects_budget(self):
        src, dst = MemoryLedger(budget=10.0), MemoryLedger(budget=2.0)
        src.insert("t", 4.0, n_consumers=1)
        with pytest.raises(BudgetExceededError):
            dst.adopt("t", *src.detach("t"))


# ----------------------------------------------------------------------
# TieredLedger
# ----------------------------------------------------------------------
def _ledger(ram=10.0, ssd=20.0, policy="cost", charge_io=True):
    return TieredLedger(ram, SpillConfig(
        tiers=(TierSpec("ssd", ssd), TierSpec("disk")), policy=policy),
        charge_io=charge_io)


class TestTieredLedger:
    def test_plain_ledger_behavior_when_nothing_spills(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=1)
        assert ledger.tier_of("a") == 0
        assert ledger.usage == 6.0 and ledger.peak_usage == 6.0
        with pytest.raises(BudgetExceededError):
            ledger.insert("b", 5.0, n_consumers=1)  # insert stays strict

    def test_spill_insert_demotes_victims(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=1)
        tier, charges = ledger.spill_insert("b", 8.0, n_consumers=1)
        assert tier == 0
        assert ledger.tier_of("a") == 1 and ledger.tier_of("b") == 0
        assert ledger.usage == 8.0      # RAM-only accounting
        assert ledger.stats.spill_count == 1
        assert [c.node_id for c in charges] == ["a"]
        assert charges[0].seconds > 0   # charged at the SSD's speed

    def test_oversized_entry_lands_in_lower_tier(self):
        ledger = _ledger()
        tier, charges = ledger.spill_insert("huge", 15.0, n_consumers=1)
        assert tier == 1                # too big for RAM, fits the SSD
        assert ledger.tier_of("huge") == 1
        assert ledger.usage == 0.0
        tier2, _ = ledger.spill_insert("mega", 50.0, n_consumers=0)
        assert tier2 == 2               # too big for the SSD too

    def test_demotion_cascades_through_full_middle_tier(self):
        ledger = _ledger(ram=10.0, ssd=10.0)
        ledger.insert("a", 8.0, n_consumers=1)
        ledger.spill_insert("b", 8.0, n_consumers=1)   # a -> ssd
        assert ledger.tier_of("a") == 1
        ledger.spill_insert("c", 8.0, n_consumers=1)   # b -> ssd, a -> disk
        assert ledger.tier_of("a") == 2
        assert ledger.tier_of("b") == 1
        assert ledger.tier_of("c") == 0

    def test_release_protocol_routes_to_holding_tier(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=1)
        ledger.spill_insert("b", 8.0, n_consumers=1)   # a spilled
        assert "a" in ledger
        assert ledger.consumers_left("a") == 1
        assert not ledger.consumer_done("a")   # drain still pending
        assert ledger.materialized("a")        # released from the SSD
        assert "a" not in ledger
        assert ledger.tiers[1].ledger.usage == 0.0

    def test_promote_restores_ram_residency(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=2)
        ledger.spill_insert("b", 8.0, n_consumers=0,
                            materialization_pending=True)
        assert ledger.materialized("b")        # b leaves RAM
        charge = ledger.promote("a")
        assert charge is not None and charge.dst == "ram"
        assert ledger.tier_of("a") == 0
        assert ledger.stats.promote_count == 1
        assert ledger.consumers_left("a") == 2  # state preserved

    def test_promote_refuses_when_ram_is_full(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=1)
        ledger.spill_insert("b", 8.0, n_consumers=1)   # a spilled
        assert ledger.promote("a") is None     # 6 GB won't fit beside b
        assert ledger.tier_of("a") == 1

    def test_make_room_never_migrates_zero_size_victims(self):
        """Regression: zero-size entries used to rank as the best cost
        victims, so _make_room demoted them (freeing nothing) before
        reaching real victims."""
        ledger = _ledger()
        ledger.insert("empty", 0.0, n_consumers=1)
        ledger.insert("cold", 6.0, n_consumers=1)
        ok, charges = ledger.try_make_room(8.0)
        assert ok
        assert [c.node_id for c in charges] == ["cold"]  # no churn
        assert ledger.tier_of("empty") == 0

    def test_try_make_room_respects_reservations(self):
        ledger = _ledger()
        assert ledger.reserve("r", 7.0)
        ledger.insert("a", 2.0, n_consumers=1)
        ok, charges = ledger.try_make_room(5.0)
        assert not ok and not charges   # 5 > 10 - 7 admissible, no churn
        ok, charges = ledger.try_make_room(3.0)
        assert ok and [c.node_id for c in charges] == ["a"]

    def test_failed_cascade_still_reports_the_moves_it_made(self):
        """Regression: a cascade that fails part-way used to drop the
        seconds of the demotions it had already made — the verdict came
        back ``(False, [])`` while s1 had moved ssd -> disk."""
        ledger = TieredLedger(3.0, SpillConfig(
            tiers=(TierSpec("ssd", 2.0), TierSpec("disk", 1.0)),
            policy="largest"))
        for node_id in ("s1", "s2"):
            ledger.insert(node_id, 1.0, n_consumers=1)
            ledger.demote(node_id)
        ledger.insert("r", 2.0, n_consumers=1)
        # r -> ssd needs both ssd residents out; disk hosts only one
        ok, charges = ledger.try_make_room(3.0)
        assert not ok
        assert [(c.node_id, c.src, c.dst) for c in charges] == [
            ("s1", "ssd", "disk")]
        assert charges[0].seconds == pytest.approx(3.31, abs=0.01)
        assert ledger.tier_of("s1") == 2 and ledger.tier_of("r") == 0
        assert ledger.stats.spill_count == 3
        # the public single-entry demote carries them on its error
        with pytest.raises(BudgetExceededError) as refusal:
            ledger.demote("r")
        assert refusal.value.charges == []     # nothing more could move

    def test_charge_io_false_moves_bytes_for_free(self):
        ledger = _ledger(charge_io=False)
        ledger.insert("a", 6.0, n_consumers=1)
        _, charges = ledger.spill_insert("b", 8.0, n_consumers=1)
        assert all(c.seconds == 0.0 for c in charges)
        assert ledger.stats.spill_count == 1  # counters still advance

    def test_demote_victim_honors_exclusions(self):
        def fresh():
            ledger = _ledger(policy="largest")
            ledger.insert("big", 6.0, n_consumers=1)
            ledger.insert("small", 2.0, n_consumers=1)
            return ledger

        assert fresh().demote_victim()[0] == "big"
        assert fresh().demote_victim(
            exclude=frozenset({"big"}))[0] == "small"
        ledger = fresh()
        assert ledger.demote_victim(
            exclude=frozenset({"big", "small"})) is None
        assert ledger.tier_of("big") == ledger.tier_of("small") == 0

    def test_lru_policy_uses_note_read_recency(self):
        ledger = _ledger(policy="lru")
        ledger.insert("first", 4.0, n_consumers=1)
        ledger.insert("second", 4.0, n_consumers=1)
        ledger.note_read("first")              # first becomes most recent
        ledger.spill_insert("c", 8.0, n_consumers=1)
        assert ledger.tier_of("second") == 1   # LRU victim
        assert ledger.tier_of("first") == 1    # then first had to go too
        assert ledger.tier_of("c") == 0

    def test_note_read_names_the_holding_tier_and_ticks_once(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=2)
        ledger.spill_insert("b", 8.0, n_consumers=1)   # a on the SSD
        ledger.spill_insert("huge", 25.0, n_consumers=1)   # on the disk
        for key, tier in (("b", 0), ("a", 1), ("huge", 2)):
            tick = ledger._tick
            assert ledger.note_read(key) == tier == ledger.tier_of(key)
            assert ledger._tick == tick + 1
            assert ledger._recency[key] == ledger._tick
        tick, recency = ledger._tick, dict(ledger._recency)
        assert ledger.note_read("absent") is None
        assert ledger._tick == tick and ledger._recency == recency

    def test_plain_ledger_note_read_is_a_membership_test(self):
        ledger = MemoryLedger(4.0)
        ledger.insert("a", 1.0, n_consumers=1)
        assert ledger.note_read("a") == 0
        assert ledger.note_read("absent") is None

    def test_duplicate_ids_rejected_across_tiers(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=1)
        ledger.spill_insert("b", 8.0, n_consumers=1)   # a now on the SSD
        with pytest.raises(CatalogError, match="already resident"):
            ledger.spill_insert("a", 1.0, n_consumers=1)

    def test_finite_hierarchy_can_reject(self):
        ledger = TieredLedger(2.0, SpillConfig(
            tiers=(TierSpec("ssd", 3.0),)))
        with pytest.raises(BudgetExceededError, match="no storage tier"):
            ledger.spill_insert("huge", 9.0, n_consumers=1)

    def test_tier_report_shape(self):
        ledger = _ledger()
        ledger.insert("a", 6.0, n_consumers=1)
        ledger.spill_insert("b", 8.0, n_consumers=1)
        report = ledger.tier_report()
        assert report.policy == "cost"
        assert report.spill_count == 1
        names = [tier.name for tier in report.tiers]
        assert names == ["ram", "ssd", "disk"]
        assert report.tiers[0].peak <= 10.0
        assert report.tiers[1].usage == 6.0
        assert report.tiers[0].resident == 1
