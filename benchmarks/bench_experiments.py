"""Every experiment, run once and held to its claims.

One test per entry of :data:`repro.bench.EXPERIMENTS`: run the driver
exactly as ``repro-sc bench <id>`` does, print its table, apply the
claims function of the same id, and write the result's JSON payload to
``benchmarks/out/<id>.json`` (git-ignored; CI uploads the directory).
The claims are the paper's qualitative ones — who wins, and roughly
where — rather than absolute numbers, since the substrate is a
simulator rather than the authors' Presto testbed; for the repo's own
sweeps they are the acceptance bars of the subsystem each measures::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -q
    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -k fig9

A claims function takes the driver's ``ExperimentResult``, asserts, and
may return side-band keys for the payload.
"""

import math
import pathlib

import pytest

from repro.bench import EXPERIMENTS, emit_result_json
from repro.db import columnar_codec
from repro.store.config import SPILL_CODECS
from repro.workloads.five_workloads import WORKLOAD_NAMES, WORKLOAD_SUMMARY
from repro.workloads.tpcds import generate_tpcds_tables

OUT_DIR = pathlib.Path(__file__).parent / "out"


# ----------------------------------------------------------------------
# the paper's figures and tables (§VI)
# ----------------------------------------------------------------------
def _fig2(result):
    """Data materialization (transformation) accounts for 2-38 % of
    warehouse runtime, and in one workload (W6) exceeds analytics by
    2.2x."""
    shares = result.data["transformation_shares"]
    assert len(shares) == 10
    assert all(0.02 <= share <= 0.38 for share in shares.values())
    # the motivating observation: materialization is a significant cost
    assert max(shares.values()) > 0.2


def _fig3(result):
    """Writing the joined result to storage takes 37-69 % of each
    statement's runtime — I/O, not compute, dominates materialization.
    Here the same statement (the TPC-H Q8 join) runs on the real MiniDB
    with real compressed disk I/O.

    Measured here (2 vCPUs, indicative): the write is 73-76 % of the
    statement at 0.01 / 0.02 / 0.05 GB — above the paper's band,
    because Q8's four FK -> PK joins are nearly free on this engine.
    Whether the band is a gate or a historical note is ROADMAP item 9,
    still open; the assertions below are the qualitative claim only."""
    for scale, timing in result.data["timings"].items():
        total = timing.total_seconds
        write_share = timing.write_seconds / total
        io_share = (timing.read_seconds + timing.write_seconds) / total
        # write is a major cost, and I/O in total dominates compute-only
        assert write_share > 0.2, (scale, write_share)
        assert io_share > 0.35, (scale, io_share)


def _table3(result):
    """The workloads decompose into 21/19/26/21/16 SPJ nodes with
    Polars-profiled I/O ratios of 51.5/59.0/46.6/0.9/28.3 %."""
    by_name = {row[0]: row for row in result.rows}
    for name, (_, n_nodes, io_share) in WORKLOAD_SUMMARY.items():
        row = by_name[name]
        assert row[2] == n_nodes
        # measured I/O share matches the calibration target closely
        assert abs(row[3] - row[4]) < 1.0, row


def _fig9(result):
    """S/C speeds up end-to-end refresh vs the unoptimized engine on
    every I/O-heavy workload, beats the off-the-shelf methods (LRU/
    Random/Greedy/Ratio), gains more on the date-partitioned datasets
    (smaller intermediates), and is neutral on the compute-bound
    workload."""
    times = result.data["times"]

    for (dataset, workload), series in times.items():
        # S/C never loses to any competitor (small tolerance for ties)
        best_other = min(series[m] for m in
                         ("lru", "random", "greedy", "ratio"))
        assert series["sc"] <= best_other * 1.01, (dataset, workload)
        assert series["sc"] <= series["none"] * 1.0001

    # clear wins on the I/O-heavy workloads of both datasets
    for dataset in ("TPC-DS", "TPC-DSp"):
        for workload in ("io1", "io2", "io3"):
            series = times[(dataset, workload)]
            assert series["none"] / series["sc"] > 1.10, (dataset, workload)

    # bigger wins on the partitioned datasets (paper: up to 5.08x there)
    for workload in ("io1", "io2", "io3"):
        ds = times[("TPC-DS", workload)]
        dsp = times[("TPC-DSp", workload)]
        assert dsp["none"] / dsp["sc"] > ds["none"] / ds["sc"], workload

    # compute-bound workload barely moves (paper: ~1.0x on Compute 1)
    for dataset in ("TPC-DS", "TPC-DSp"):
        series = times[(dataset, "compute1")]
        assert series["none"] / series["sc"] < 1.10

    assert set(w for _, w in times) == set(WORKLOAD_NAMES)


def _fig10(result):
    """With the Memory Catalog fixed at 1.6 % of data size, S/C's
    speedup is consistent across scales (10 GB to 1 TB) — 1.58-1.71x on
    TPC-DS and 2.31-4.26x on TPC-DSp (always larger on the partitioned
    datasets)."""
    speedups = result.data["speedups"]

    ds = [v for (dataset, _), v in speedups.items() if dataset == "TPC-DS"]
    dsp = [v for (dataset, _), v in speedups.items()
           if dataset == "TPC-DSp"]

    # consistent: the spread across scales stays narrow on each dataset
    assert max(ds) / min(ds) < 1.5, ds
    assert max(dsp) / min(dsp) < 1.5, dsp
    # everyone gains, and the partitioned variant gains more at each scale
    assert min(ds) > 1.05
    for (dataset, scale), value in speedups.items():
        if dataset == "TPC-DS":
            assert speedups[("TPC-DSp", scale)] > value, scale


def _fig11(result):
    """Speedup is already significant with a catalog of 0.4 % of data
    size and grows (monotonically, then saturating) up to 6.4 %;
    carving the catalog out of query memory instead of spare memory
    costs at most a small constant (<= 0.25x) of speedup."""
    speedups = result.data["speedups"]
    fractions = sorted(speedups)

    spare = [speedups[f]["spare"] for f in fractions]
    query = [speedups[f]["query"] for f in fractions]

    # significant gains even at the smallest catalog (paper: 1.50x with
    # 0.4%; our simulator's removable-I/O share is smaller, so the bar is
    # proportionally lower)
    assert spare[0] > 1.05
    # larger catalogs never hurt (monotone up to simulator noise)
    for a, b in zip(spare, spare[1:]):
        assert b >= a - 0.02, spare
    # query-memory carve-out costs only a small speedup delta
    for s, q in zip(spare, query):
        assert s - q <= 0.25 + 1e-9, (s, q)
        assert q > 1.0


def _table4(result):
    """Growing the catalog monotonically shrinks total table-read
    latency (1.42-1.51x lower at 6.4 %), while compute latency is
    essentially untouched — reads, not compute, are what S/C
    optimizes."""
    for dataset, columns in result.data["columns"].items():
        reads = [col[0] for col in columns]    # [no-opt, 0.4%, ..., 6.4%]
        computes = [col[1] for col in columns]

        # read latency shrinks as the catalog grows
        for smaller, larger in zip(reads[1:], reads[2:]):
            assert larger <= smaller * 1.02, (dataset, reads)
        assert reads[-1] < reads[0], dataset
        # the largest catalog cuts reads by a meaningful factor
        assert reads[0] / reads[-1] > 1.2, (dataset, reads)
        # compute is not the target: stays within a few percent
        base_compute = computes[0]
        for value in computes[1:]:
            assert abs(value - base_compute) / base_compute < 0.05, dataset


def _fig12(result):
    """MKP + MA-DFS (ours) beats every ablated combination —
    Greedy/Random/Ratio selection paired with MA-DFS, and MKP paired
    with SA or Separator ordering — saving an additional 3-11 % of
    execution time."""
    totals = result.data["totals"]
    for dataset in ("TPC-DS", "TPC-DSp"):
        ours = totals[(dataset, "mkp+madfs")]
        none = totals[(dataset, "none")]
        assert ours < none, dataset
        for method in ("random+madfs", "greedy+madfs", "ratio+madfs",
                       "mkp+sa", "mkp+separator"):
            # ours is at least as good as every ablation (ties allowed)
            assert ours <= totals[(dataset, method)] * 1.01, \
                (dataset, method)
        # and strictly better than at least one of them
        assert any(ours < totals[(dataset, m)] * 0.999
                   for m in ("random+madfs", "greedy+madfs",
                             "ratio+madfs", "mkp+sa", "mkp+separator")), \
            dataset


def _table5(result):
    """Absolute runtimes drop sub-linearly with worker count (1528 s at
    1 worker to 487 s at 5), while S/C's relative speedup stays flat
    (1.60-1.71x) — the optimization is orthogonal to horizontal
    scaling."""
    totals = result.data["totals"]
    workers = sorted(totals)

    no_opt = [totals[w][0] for w in workers]
    speedups = [totals[w][0] / totals[w][1] for w in workers]

    # runtimes drop with cluster size, sub-linearly
    for before, after in zip(no_opt, no_opt[1:]):
        assert after < before
    assert no_opt[0] / no_opt[-1] < len(workers)  # sub-linear

    # S/C's speedup is flat across cluster sizes
    assert max(speedups) - min(speedups) < 0.15, speedups
    assert min(speedups) > 1.05


def _fig13(result):
    """MKP + MA-DFS scales roughly linearly with DAG size and remains
    negligible at 100 nodes (0.02 s with OR-Tools' C++ solver; ours
    hands each MKP to HiGHS from a Python loop, slower in absolute terms
    but it must preserve the shape); the scan baselines are faster, SA
    and Separator are markedly slower than MKP + MA-DFS."""
    times = result.data["times"]
    sizes = sorted(times)
    ours = [times[s]["mkp+madfs"] for s in sizes]

    # bounded growth at scale: with the MILP at a 1 % gap a 50- or
    # 100-node DAG averages tens of milliseconds, so doubling the DAG
    # from 50 to 100 nodes costs at most a few x
    assert ours[-1] / max(ours[-2], 1e-6) < 6, ours
    assert ours[-1] < 5.0, ours  # seconds; paper's C++ solver: 0.02 s
    # SA is the slowest family at scale (10k objective evaluations)
    at_100 = times[sizes[-1]]
    assert at_100["mkp+sa"] > at_100["mkp+madfs"], at_100
    # the scan selectors are at most as expensive as the exact MKP
    assert at_100["greedy+madfs"] <= at_100["mkp+madfs"] * 1.5, at_100


def _fig14(result):
    """Predicted savings correlate strongly with DAG size (but
    sub-proportionally — nested MVs shrink); "thinner" DAGs (higher
    height/width ratio) save more; higher max out-degree saves more
    (each flagged node serves more consumers); stage-count variance
    barely matters."""
    norm = result.data["normalized"]

    # savings grow strongly from small DAGs (paper: highly correlated with
    # size, sub-proportionally; 50 vs 100 sits inside generator noise)
    assert norm[("DAG size", "25")] < norm[("DAG size", "50")]
    assert norm[("DAG size", "25")] < norm[("DAG size", "100")]

    # higher out-degree -> more consumers per flagged node -> more savings
    assert norm[("max outdegree", "1")] < norm[("max outdegree", "5")]

    # stage-count variance has only a mild effect (paper: negligible)
    stdev_values = [norm[("stage StDev", f"{v:g}")]
                    for v in (0.0, 1.0, 2.0, 3.0, 4.0)]
    assert max(stdev_values) / min(stdev_values) < 1.6, stdev_values


# ----------------------------------------------------------------------
# the repo's own subsystems — not paper figures
# ----------------------------------------------------------------------
def _parallel(result):
    """Simulated makespan shrinks as workers grow, with a measurable
    speedup at 4 workers on wide DAGs; the shared ``MemoryLedger`` keeps
    flagged residency within the budget on *every* run."""
    totals = result.data["totals"]
    workers = sorted(totals)
    times = [totals[w] for w in workers]

    # the ledger never exceeded the budget, on any backend, on any run
    assert result.data["budget_ok"]

    # every parallel configuration beats serial; adjacent steps may wobble
    # a little (extra concurrency can force spills under a shared memory
    # bound), so allow 10% slack between neighbors
    for w in workers[1:]:
        assert totals[w] < totals[1], totals
    for before, after in zip(times, times[1:]):
        assert after <= before * 1.10
    # and 4 workers buy a real, measurable speedup on wide DAGs
    assert totals[1] / totals[4] > 1.2, totals


def _spill(result):
    """Every run completes though the plan needs more live memory than
    the RAM tier grants; the full-RAM point spills nothing, starved
    budgets spill more and pay a bounded, monotone-ish penalty."""
    fractions = sorted(result.data["fractions"])
    totals = result.data["totals"]
    spills = result.data["spills"]

    # the RAM tier never exceeded its budget, on any backend, on any run
    assert result.data["budget_ok"]

    # full RAM: no spills, and it is the fastest point of the sweep
    full = max(fractions)
    assert spills[full] == 0
    assert totals[full] == min(totals.values())

    # starved budgets actually exercise the tiers
    starved = min(fractions)
    assert spills[starved] > 0
    assert totals[starved] > totals[full]

    # spilling is a graceful degradation, not a cliff: even the most
    # starved budget stays within 2x of the full-RAM runtime here
    assert totals[starved] < 2.0 * totals[full]

    # runtime grows (weakly) as RAM shrinks; allow 2% wobble between
    # neighboring budget points (promotions can locally reorder costs)
    times = [totals[f] for f in fractions]  # ascending RAM
    for smaller_ram, bigger_ram in zip(times, times[1:]):
        assert bigger_ram <= smaller_ram * 1.02


def _spillplan(result):
    """Tier-aware plans beat tier-blind ones below the peak (the bar is
    one point; here all) and never flag fewer nodes — a bigger
    effective budget can only admit more candidates."""
    fractions = result.data["fractions"]
    blind = result.data["blind"]
    aware = result.data["aware"]

    # the RAM tier never exceeded its budget, on any plan, on any run
    assert result.data["budget_ok"]

    # the effective budget only adds candidates, never removes them
    for fraction in fractions:
        assert (result.data["aware_flags"][fraction]
                >= result.data["blind_flags"][fraction])

    # ACCEPTANCE: tier-aware plans beat tier-blind plans on at least one
    # RAM-below-peak point (in practice: on all of them here)
    below_peak = [f for f in fractions if f < 1.0]
    assert any(aware[f] < blind[f] for f in below_peak)

    # the win is not a rounding artifact: somewhere it exceeds 5%
    assert any(aware[f] < 0.95 * blind[f] for f in below_peak)


def _spillcodec(result):
    """The claims ``compressed_spill_sweep`` lists: a ratio >= 2 codec
    beats ``none`` below the peak, prefetching fires and never loses,
    every run carries the per-codec extras."""
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


def _feedback(result):
    """The claims ``feedback_loop_sweep`` lists: the run replanned from
    observed costs is never worse than the static tier-aware plan and
    somewhere strictly better (the observed ratio is ~1.2x, not the
    preset's 2.6x); the adaptive codec matches the best fixed codec
    within the sampled spills' tuition (<= 2%) on both mixes."""
    fractions = result.data["fractions"]
    static = result.data["static"]
    replan = result.data["replan"]

    # the RAM budget invariant held on every arm, every pass
    assert result.data["budget_ok"]

    # the observed ratio genuinely diverged from the 2.6x zlib preset —
    # otherwise this sweep would not exercise the loop at all
    assert result.data["mean_observed_ratio"] < 2.0

    # ACCEPTANCE: the feedback-replanned run is never worse than the
    # static tier-aware plan, and strictly better on >= 1 below-peak
    # point (all sweep points are below the plan's no-spill peak)
    for fraction in fractions:
        assert replan[fraction] <= static[fraction] * (1 + 1e-9), fraction
    assert any(replan[f] < static[f] * 0.999 for f in fractions)

    # feedback changed the decision, not just the score: the replanned
    # flag sets shrank where the cold tier stopped looking worthwhile
    assert any(result.data["replan_flags"][f]
               < result.data["static_flags"][f] for f in fractions)

    # ACCEPTANCE: the adaptive codec matches the best fixed codec
    # within the sampled spills' tuition (2%) or beats it, on both the
    # lean (mostly incompressible) and rich (preset-accurate) mixes,
    # and strictly beats the *wrong* fixed codec on each
    for mix, arms in result.data["codec_totals"].items():
        best = min(arms["none"], arms["zlib"])
        worst = max(arms["none"], arms["zlib"])
        assert arms["adaptive"] <= best * 1.02, (mix, arms)
        assert arms["adaptive"] < worst, (mix, arms)
    assert not math.isclose(
        result.data["codec_totals"]["rich"]["none"],
        result.data["codec_totals"]["rich"]["zlib"])

    # the adaptation did what the mixes demand: dropped the codec on
    # lean data, left the accurate preset alone on rich data
    lean_events = result.data["adapt_events"]["lean"]
    assert any(tally["switched"] > 0 for tally in lean_events.values())
    rich_events = result.data["adapt_events"]["rich"]
    assert all(tally["switched"] == 0 for tally in rich_events.values())


def _ramcodec(result):
    """The rung arm is *strictly* faster than both baselines at every
    below-peak point and realizes the zlib1 preset's ratio; on real
    MiniDB dumps of TPC-DS-shaped tables ``columnar`` out-compresses
    plain ``zlib``, losslessly — the per-table ratios ride in the
    payload as ``tpcds_codec_ratios``."""
    fractions = result.data["fractions"]
    totals = result.data["totals"]

    # the RAM budget invariant (working RAM *and* the rung's stored
    # budget) held on every arm, every run
    assert result.data["budget_ok"]

    # ACCEPTANCE: the rung arm is strictly faster than both the
    # no-spill and the straight-to-SSD baselines at every below-peak
    # RAM point (all sweep points are below the plan's peak)
    for fraction in fractions:
        assert fraction < 1.0
        best_baseline = min(totals["nospill"][fraction],
                            totals["ssd"][fraction])
        assert totals["rung"][fraction] < best_baseline, fraction

    # the rung actually carried traffic and its stored bytes realized
    # the zlib1 preset's ratio
    assert any(count > 0 for count in result.data["rung_spills"].values())
    assert result.data["rung_observed_ratio"] == pytest.approx(
        SPILL_CODECS["zlib1"].ratio)

    # ACCEPTANCE: the columnar codec out-compresses plain zlib on every
    # TPC-DS-shaped MiniDB table, losslessly
    codec_ratios = {}
    for name, table in sorted(
            generate_tpcds_tables(scale_gb=0.02, seed=1).items()):
        ratios = {}
        for codec in ("zlib", "columnar"):
            blob = columnar_codec.encode_table(table, codec)
            back = columnar_codec.decode_table(blob)
            assert back.equals(table), codec  # lossless round trip
            ratios[codec] = table.nbytes / len(blob)
        assert ratios["columnar"] > ratios["zlib"], name
        codec_ratios[name] = ratios
    return {"tpcds_codec_ratios": codec_ratios}


# ----------------------------------------------------------------------
# ablations of this reproduction's design decisions, and the paper's
# forward-looking claims (§I adaptability, §VII IVM compatibility)
# ----------------------------------------------------------------------
def _ablation_convergence(result):
    scores = result.data["scores"]
    for name, per in scores.items():
        # the size-based stop (paper, line 5) never trails score-based by
        # more than a whisker on these workloads
        assert per["size"] >= per["score"] * 0.97, name


def _ablation_tolerance(result):
    scores = result.data["scores"]
    for name, per in scores.items():
        # the 1 % gap costs at most ~2 % of the exact flagged score
        assert per["1% gap"] >= per["exact"] * 0.98, name
        assert per["1% gap"] <= per["exact"] * 1.0 + 1e-6, name


def _sensitivity_background(result):
    speedups = result.data["speedups"]
    # S/C keeps a solid win under every assumption ...
    for label, speedup in speedups.items():
        assert speedup > 1.15, label
    # ... and the ranking is physically sensible
    assert speedups["interference 0%"] >= \
        speedups["interference 10%"] - 1e-9
    assert speedups["parallelism 4x"] >= \
        speedups["parallelism 1x"] - 1e-9


def _adaptive_drift(result):
    times = result.data["times"]

    # no drift: nothing to adapt to, no re-plans, all three coincide
    no_drift = times[1.0]
    assert no_drift["replans"] == 0
    assert no_drift["adaptive"] <= no_drift["stale"] * 1.02

    # shrink drift (0.5x): the stale plan under-flags; adaptation recovers
    # a real fraction of the oracle's advantage
    shrink = times[0.5]
    assert shrink["adaptive"] < shrink["stale"]
    assert shrink["oracle"] <= shrink["adaptive"] + 1e-9

    # any drift: adaptive never meaningfully worse than stale
    for factor, row in times.items():
        assert row["adaptive"] <= row["stale"] * 1.10, factor
        assert row["oracle"] <= row["stale"] * 1.02 + 1e-9, factor


def _ivm_integration(result):
    totals = result.data["totals"]

    # each technique helps alone ...
    assert totals["full/S-C"] < totals["full/no-opt"]
    assert totals["ivm/no-opt"] < totals["full/no-opt"]
    # ... S/C still speeds up the incremental workload ...
    assert totals["ivm/S-C"] < totals["ivm/no-opt"]
    # ... and the composition beats everything else
    assert totals["ivm/S-C"] == min(totals.values())


#: Experiment id -> its claims; the keys are :data:`EXPERIMENTS`' own
#: (``tests/test_bench_experiments.py`` holds the two together).
CLAIMS = {
    "fig2": _fig2,
    "fig3": _fig3,
    "table3": _table3,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "table4": _table4,
    "fig12": _fig12,
    "table5": _table5,
    "fig13": _fig13,
    "fig14": _fig14,
    "parallel": _parallel,
    "spill": _spill,
    "spillplan": _spillplan,
    "spillcodec": _spillcodec,
    "feedback": _feedback,
    "ramcodec": _ramcodec,
    "ablation_convergence": _ablation_convergence,
    "ablation_tolerance": _ablation_tolerance,
    "sensitivity_background": _sensitivity_background,
    "adaptive_drift": _adaptive_drift,
    "ivm_integration": _ivm_integration,
}


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment(experiment_id, show):
    result = EXPERIMENTS[experiment_id]()
    assert result.experiment_id == experiment_id
    show(result)
    side_band = CLAIMS[experiment_id](result) or {}
    OUT_DIR.mkdir(exist_ok=True)
    emit_result_json(result, path=str(OUT_DIR / f"{experiment_id}.json"),
                     **side_band)
