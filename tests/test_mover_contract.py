"""The mover contract of ``TieredLedger.demote_victim``, clock-free.

An executor doing *real* I/O rides the ledger's one eviction path by
handing ``demote_victim`` a ``Mover`` — ``mover(node_id, src, dst) ->
stored_gb``.  A recording fake stands in for MiniDB over a *finite*
three-tier hierarchy (so every tier can refuse), and the checking ledger
of the invariant harness audits the books after every call:

* every accounting move is preceded by exactly one mover call with the
  same ``(node, src, dst)``, made while the entry is still where it was;
  a call no move follows is a destination that could not make room, and
  the same entry is then asked for one tier further down;
* ``exclude`` (MiniDB's ``protect``) is honoured for cascade victims;
* a mover that raises leaves the entry where it was, the books clean;
* a durable victim (the mover reports 0 stored GB) is charged nothing;
* a victim the middle tier cannot host lands below it as *one* move.
"""

import pytest

from repro.errors import ExecutionError
from repro.store.config import SpillConfig, TierSpec

from tests.test_invariants_random import CheckedLedger


def three_tiers(ram=4.0, mid=2.0, low=6.0, policy="largest"):
    """RAM -> ``mid`` -> ``low``, all finite, no simulated seconds (a
    real-I/O executor measures its own)."""
    return CheckedLedger(
        ram, SpillConfig(tiers=(TierSpec("mid", mid), TierSpec("low", low)),
                         policy=policy),
        charge_io=False)


class RecordingMover:
    """Stores every entry at half its logical size; ``durable`` ones at
    nothing; raises for ``broken`` ones."""

    def __init__(self, ledger, durable=(), broken=()):
        self.ledger = ledger
        self.durable = set(durable)
        self.broken = set(broken)
        self.calls: list[tuple[str, int, int]] = []

    def __call__(self, node_id, src, dst):
        # the accounting has not moved yet
        assert self.ledger.tier_of(node_id) == src
        self.calls.append((node_id, src, dst))
        if node_id in self.broken:
            raise ExecutionError(f"disk full dumping {node_id!r}")
        if node_id in self.durable:
            return 0.0
        return self.ledger.size_of(node_id) / 2.0


def moves_of(ledger, charges):
    index = {tier.name: i for i, tier in enumerate(ledger.tiers)}
    return [(c.node_id, index[c.src], index[c.dst]) for c in charges]


def test_every_accounting_move_follows_exactly_one_matching_call():
    ledger = three_tiers()
    mover = RecordingMover(ledger)
    moves = []
    for round_no in range(6):
        # 2 GB logical -> 1 GB stored: the 2 GB middle tier fills after
        # two victims and every later one cascades an earlier one down
        ledger.insert(f"n{round_no}", 2.0, n_consumers=1)
        shed = ledger.demote_victim(mover=mover)
        assert shed is not None and shed[0] == f"n{round_no}"
        moves.extend(moves_of(ledger, shed[1]))
    assert any(src == 1 for _, src, _ in moves), "no cascade exercised"
    assert ledger.stats.spill_count == len(moves)
    # each move has its one call; what is left over are refusals
    leftover = list(mover.calls)
    for move in moves:
        assert mover.calls.count(move) == 1, move
        leftover.remove(move)
    for node_id, src, dst in leftover:
        assert (node_id, src, dst + 1) in mover.calls
    # (that each call came *before* its move is the mover's own assert:
    # the entry was still in ``src`` when it was asked for)


def test_exclude_protects_cascade_victims_too():
    ledger = three_tiers()
    mover = RecordingMover(ledger)
    for name in ("a", "b"):
        ledger.insert(name, 2.0, n_consumers=1)
        ledger.demote_victim(mover=mover)
    assert ledger.tier_of("a") == ledger.tier_of("b") == 1  # mid is full
    ledger.insert("c", 2.0, n_consumers=1)
    protect = frozenset({"a", "b"})
    victim, charges = ledger.demote_victim(exclude=protect, mover=mover)
    # nothing in mid may make way, so c goes past it — in one move
    assert victim == "c" and moves_of(ledger, charges) == [("c", 0, 2)]
    assert ledger.tier_of("a") == ledger.tier_of("b") == 1
    assert not [call for call in mover.calls if call[0] in protect
                and call[1] == 1]
    # unprotected, the policy's pick in mid makes way instead
    ledger.insert("d", 2.0, n_consumers=1)
    victim, charges = ledger.demote_victim(mover=mover)
    assert victim == "d"
    assert moves_of(ledger, charges) == [("a", 1, 2), ("d", 0, 1)]


def test_a_mover_that_raises_leaves_the_entry_where_it_was():
    ledger = three_tiers()
    ledger.insert("ok", 1.0, n_consumers=1)
    ledger.insert("bad", 2.0, n_consumers=2)
    mover = RecordingMover(ledger, broken={"bad"})
    with pytest.raises(ExecutionError, match="disk full"):
        ledger.demote_victim(mover=mover)   # largest first: "bad"
    assert mover.calls == [("bad", 0, 1)]
    assert ledger.tier_of("bad") == 0 and ledger.usage == 3.0
    assert ledger.consumers_left("bad") == 2
    assert ledger.stats.spill_count == 0
    assert ledger.tiers[1].ledger.usage == 0.0
    ledger._check()
    # the ledger is still usable, and the entry still demotable
    mover.broken.clear()
    assert ledger.demote_victim(mover=mover)[0] == "bad"
    ledger._check()


def test_a_raise_mid_cascade_keeps_the_moves_already_made():
    ledger = three_tiers(mid=2.0)
    mover = RecordingMover(ledger)
    for name in ("a", "b"):
        ledger.insert(name, 2.0, n_consumers=1)
        ledger.demote_victim(mover=mover)
    ledger.insert("c", 4.0, n_consumers=1)  # 2 GB stored: empties mid
    mover.broken = {"b"}
    with pytest.raises(ExecutionError):
        ledger.demote_victim(mover=mover)
    # a's bytes had moved before b's dump failed: its books moved too
    assert ledger.tier_of("a") == 2
    assert ledger.tier_of("b") == 1 and ledger.tier_of("c") == 0
    ledger._check()


def test_a_durable_victim_is_charged_no_stored_bytes():
    ledger = three_tiers()
    ledger.insert("kept", 3.0, n_consumers=1)
    mover = RecordingMover(ledger, durable={"kept"})
    victim, (charge,) = ledger.demote_victim(mover=mover)
    assert victim == "kept" and charge.size == 3.0
    assert ledger.tier_of("kept") == 1
    assert ledger.stored_size_of("kept") == 0.0
    assert ledger.size_of("kept") == 3.0          # logical is kept
    assert ledger.tiers[1].ledger.usage == 0.0
    observed = ledger.tier_report().tiers[1].observed
    assert observed.spill_in_count == 1
    assert observed.observed_ratio is None         # no ratio information


def test_a_victim_the_middle_tier_cannot_host_is_one_move_below_it():
    ledger = three_tiers(ram=6.0, mid=2.0)
    ledger.insert("wide", 6.0, n_consumers=1)      # 3 GB stored > mid
    mover = RecordingMover(ledger)
    victim, charges = ledger.demote_victim(mover=mover)
    assert victim == "wide"
    assert moves_of(ledger, charges) == [("wide", 0, 2)]
    assert mover.calls == [("wide", 0, 1), ("wide", 0, 2)]
    report = ledger.tier_report()
    assert report.spill_count == 1
    assert report.tiers[1].observed.spill_in_count == 0
    assert report.tiers[2].observed.spill_in_count == 1
    assert report.demote_bypass_count == 1         # it skipped a tier


def test_nothing_below_can_host_it_means_no_move_at_all():
    ledger = three_tiers(ram=20.0, mid=2.0, low=6.0)
    ledger.insert("huge", 16.0, n_consumers=1)     # 8 GB stored
    mover = RecordingMover(ledger)
    assert ledger.demote_victim(mover=mover) is None
    assert mover.calls == [("huge", 0, 1), ("huge", 0, 2)]
    assert ledger.tier_of("huge") == 0
    assert ledger.stats.spill_count == 0
    ledger._check()
