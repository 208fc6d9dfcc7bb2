"""Compressed spill pipeline — codec x prefetch below the plan's peak.

Not a paper figure: this measures the repo's own compressed-spill
extension.  Each DAG is planned once; the same plan is re-executed at
RAM points below its no-spill peak over an SSD + unbounded-disk
hierarchy, once per (codec, prefetch) arm.  The ``zlib`` arms charge
tier capacity the compressed bytes, pay an encode stage per demotion
and a decode stage per read-back; the ``+pf`` arms additionally promote
spilled parents of soon-to-run consumers during idle device time.  The
claims under test:

* a codec with ratio >= 2 beats ``none`` on total elapsed time at at
  least one RAM-below-peak point — the acceptance bar for the
  compressed pipeline (smaller transfers and a 2.6x-larger effective
  SSD beat the codec tax once spilling is heavy);
* promote-ahead prefetching never loses (its I/O rides the idle
  window) and actually fires below the peak;
* every run's ``extras["tiered_store"]`` carries the per-codec
  accounting: the codec name, stored-vs-logical spill volumes, per-tier
  codec ratios, and the prefetch counters;
* the RAM budget invariant holds on every arm;
* codec ``none`` + prefetch off reproduces the PR 3 pipeline
  bit-for-bit, serial and ``workers=1``, and with compression *on* the
  serial/``workers=1`` bit-equality still holds.
"""

import pytest

from repro.bench import experiments
from repro.core.optimizer import optimize
from repro.core.problem import ScProblem
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.store import SpillConfig, TierSpec
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    WorkloadGenerator,
)

TRACE_ATTRS = ("start", "end", "read_disk", "read_memory", "compute",
               "write", "create_memory", "stall", "spill_write",
               "promote_read", "admission", "flagged")


def _tiered_case(seed=0, n_nodes=28):
    graph = WorkloadGenerator().generate(
        GeneratedWorkloadConfig(n_nodes=n_nodes, height_width_ratio=0.5),
        seed=seed)
    budget = 0.3 * graph.total_size()
    plan = optimize(ScProblem(graph=graph, memory_budget=budget),
                    method="sc", seed=seed).plan
    peak = Controller().refresh(
        graph, budget, plan=plan, method="sc").peak_catalog_usage
    return graph, plan, peak


def _assert_bit_equal(a, b):
    assert a.end_to_end_time == b.end_to_end_time
    assert a.peak_catalog_usage == b.peak_catalog_usage
    assert len(a.nodes) == len(b.nodes)
    for left, right in zip(a.nodes, b.nodes):
        assert left.node_id == right.node_id
        for attr in TRACE_ATTRS:
            assert getattr(left, attr) == getattr(right, attr), \
                (left.node_id, attr)


def test_compressed_spill_sweep(benchmark, show):
    result = benchmark.pedantic(experiments.compressed_spill_sweep,
                                rounds=1, iterations=1)
    show(result)

    fractions = result.data["fractions"]
    totals = result.data["arm_totals"]

    # the RAM budget invariant held on every arm, every run
    assert result.data["budget_ok"]

    # every run emitted the per-codec trace extras (codec name, stored
    # volumes, per-tier ratios, prefetch counters) — the CI smoke check
    assert result.data["extras_ok"]

    # the simulator's stored bytes realized the modeled ratio
    assert result.data["observed_ratio"]["zlib"] == \
        pytest.approx(result.data["codec_ratios"]["zlib"])
    assert result.data["codec_ratios"]["zlib"] >= 2.0

    # ACCEPTANCE: a ratio->=2 codec beats 'none' on total elapsed time
    # at at least one below-peak RAM point (all sweep points are below
    # the plan's peak; in practice it wins on all of them here)
    below_peak = [f for f in fractions if f < 1.0]
    assert any(totals[("zlib", False)][f] < totals[("none", False)][f]
               for f in below_peak)

    # promote-ahead prefetching fires below the peak and never loses
    assert any(count > 0 for count in result.data["prefetches"].values())
    for codec in ("none", "zlib"):
        for fraction in fractions:
            assert totals[(codec, True)][fraction] <= \
                totals[(codec, False)][fraction]


def test_codec_none_prefetch_off_matches_uncompressed_pipeline():
    """``codec="none"`` + prefetch off must be indistinguishable from a
    spill config that never heard of codecs (the PR 3 pipeline):
    bit-equal traces on the serial simulator and at ``workers=1``."""
    graph, plan, peak = _tiered_case()
    ram = 0.4 * peak
    tiers = (TierSpec("ssd", 0.5 * peak), TierSpec("disk"))
    baseline = SpillConfig(tiers=tiers)  # PR 3 constructor call, as-was
    explicit = SpillConfig(tiers=tiers, codec="none", prefetch=False)
    assert baseline == explicit  # the new knobs default to off

    runs = {}
    for label, spill in (("baseline", baseline), ("explicit", explicit)):
        controller = Controller(options=SimulatorOptions(spill=spill))
        runs[label, "serial"] = controller.refresh(
            graph, ram, plan=plan, method="sc")
        runs[label, "workers1"] = controller.refresh(
            graph, ram, plan=plan, method="sc",
            backend="parallel", workers=1)
    assert runs["baseline", "serial"].extras["tiered_store"][
        "spill_count"] > 0
    _assert_bit_equal(runs["baseline", "serial"], runs["explicit", "serial"])
    _assert_bit_equal(runs["baseline", "serial"],
                      runs["explicit", "workers1"])
    _assert_bit_equal(runs["baseline", "workers1"],
                      runs["explicit", "workers1"])


def test_workers1_stays_bit_equal_with_compression_on():
    """The serial/``workers=1`` bit-equality invariant survives the
    compressed pipeline: codec + prefetch armed, both backends must
    produce the same trace number for number, prefetch counters
    included."""
    graph, plan, peak = _tiered_case(seed=2)
    ram = 0.35 * peak
    spill = SpillConfig(
        tiers=(TierSpec("ssd", 0.4 * peak), TierSpec("disk")),
        codec="zlib", prefetch=True)
    controller = Controller(options=SimulatorOptions(spill=spill))
    serial = controller.refresh(graph, ram, plan=plan, method="sc")
    workers1 = controller.refresh(graph, ram, plan=plan, method="sc",
                                  backend="parallel", workers=1)
    report = serial.extras["tiered_store"]
    assert report["codec"] == "zlib"
    assert report["spill_count"] > 0
    assert report["spill_stored_gb"] < report["spill_bytes_gb"]
    _assert_bit_equal(serial, workers1)
    assert serial.extras["tiered_store"]["prefetch"] == \
        workers1.extras["tiered_store"]["prefetch"]
    assert serial.extras["tiered_store"]["spill_stored_gb"] == \
        workers1.extras["tiered_store"]["spill_stored_gb"]
