"""Planner and runtime price a tier alike.

``TierAwareBudget`` (what the optimizer fills) and ``TieredLedger``
(what a run is billed) both go through ``repro.store.pricing``; these
properties hold the two ends to each other over device profile x codec
x compressibility x size:

* the per-GB penalty ``from_spill`` assigns a tier is what the ledger
  bills for demoting an entry into it and reading it back on an idle
  device — per GB, the device's fixed per-read latency apart;
* ``estimate_spill_seconds`` for a single victim is the demote charge
  that victim then pays plus its ``reload_cost``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import TierAwareBudget
from repro.feedback import TierObservation
from repro.store import pricing
from repro.store.config import (
    COLD_PROFILE,
    LOCAL_DISK_PROFILE,
    SPILL_CODECS,
    SSD_PROFILE,
    CodecProfile,
    SpillConfig,
    TierSpec,
)
from repro.store.tiered import TieredLedger

profiles = st.sampled_from([SSD_PROFILE, LOCAL_DISK_PROFILE, COLD_PROFILE])
codecs = st.one_of(
    st.sampled_from(sorted(SPILL_CODECS.values(), key=lambda c: c.name)),
    st.builds(CodecProfile, st.just("custom"),
              ratio=st.floats(1.0, 8.0),
              encode_seconds_per_gb=st.floats(0.0, 3.0),
              decode_seconds_per_gb=st.floats(0.0, 3.0)))
#: None = the entry carries no multiplier and realizes the preset
compressibility = st.one_of(st.none(), st.floats(0.0, 3.0))
sizes = st.floats(0.01, 64.0)


def one_tier_ledger(profile, codec, mult, size, promote=True):
    spill = SpillConfig(tiers=(TierSpec("t", math.inf, profile=profile),),
                        codec=codec, promote=promote)
    ledger = TieredLedger(size, spill)
    if mult is not None:
        ledger.set_compressibility({"x": mult})
    ledger.insert("x", size, n_consumers=1)
    return spill, ledger


@settings(max_examples=200, deadline=None)
@given(profile=profiles, codec=codecs, mult=compressibility, size=sizes)
def test_planner_penalty_is_what_the_ledger_bills(profile, codec, mult,
                                                  size):
    spill, ledger = one_tier_ledger(profile, codec, mult, size)
    (charge,) = ledger.demote("x")
    billed = charge.seconds + ledger.tier_read_seconds("x")
    # the planner prices the tier at the ratio the entry realized — its
    # own observation, which is how the feedback loop hands it over
    ratio = ledger.size_of("x") / ledger.stored_size_of("x")
    (tier,) = TierAwareBudget.from_observations(
        size, spill, [TierObservation("t", observed_ratio=ratio)]).tiers
    assert tier.penalty_seconds_per_gb * size + profile.read_latency == \
        pytest.approx(billed, rel=1e-9)
    if mult is None:    # the preset: from_spill says the same
        (preset,) = TierAwareBudget.from_spill(size, spill).tiers
        assert preset.penalty_seconds_per_gb == pytest.approx(
            tier.penalty_seconds_per_gb, rel=1e-12)
    # and both are the shared functions, bit for bit
    assert tier.penalty_seconds_per_gb == (
        pricing.write_leg_per_gb(profile, codec, ratio)
        + pricing.read_leg_per_gb(profile, codec, ratio))
    assert charge.seconds == pricing.demote_seconds(
        ledger.tiers[0].profile, ledger.tiers[0].codec, size, profile,
        codec, ledger.stored_size_of("x"), size)


@settings(max_examples=200, deadline=None)
@given(profile=profiles, codec=codecs, mult=compressibility, size=sizes,
       consumers=st.integers(1, 4))
def test_estimate_for_one_victim_is_its_demote_charge_plus_reload(
        profile, codec, mult, size, consumers):
    spill, ledger = one_tier_ledger(profile, codec, mult, size,
                                    promote=False)
    ledger.force_release("x")
    ledger.insert("x", size, n_consumers=consumers)
    (victim,) = ledger._victim_index.ranked(0)
    estimate = ledger.estimate_spill_seconds(size)
    (charge,) = ledger.demote("x")
    # without promotion every remaining consumer re-reads the tier
    assert estimate == charge.seconds + consumers * victim.reload_cost
    assert victim.reload_cost == ledger.tier_read_seconds("x")


@pytest.mark.parametrize("margin, dearer", [(-0.5, False), (0.5, True)])
def test_rung_detour_against_the_direct_write_and_encode(margin, dearer):
    """Going direct pays the device write of the stored bytes *plus*
    the encode of the logical ones; a detour is dearer only past that
    sum.  The detour here is priced ``margin`` seconds either side of
    it, well inside the 4 s the direct encode adds."""
    below = SSD_PROFILE
    below_codec = CodecProfile("below", ratio=2.0, encode_seconds_per_gb=2.0)
    logical, displaced = 2.0, 1.0
    direct = below.write_time_disk(1.0) + 2.0 * logical
    # the detour: the rung's encode of the entry, a free decode of what
    # it displaces, that one's write and its encode below
    rest = below.write_time_disk(0.5) + 2.0 * displaced
    rung_encode = (direct + margin - rest) / logical
    rung_codec = CodecProfile("rung", ratio=2.0,
                              encode_seconds_per_gb=rung_encode)
    assert pricing.rung_detour_is_dearer(
        rung_codec, below, below_codec, logical, displaced,
        displaced_stored=0.5, direct_stored=1.0) is dearer
