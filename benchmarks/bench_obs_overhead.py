"""Observability overhead — the zero-overhead-when-off claim, measured.

Not a paper figure: this is the acceptance benchmark of the ``repro.obs``
event bus.  Every instrumentation site in the simulator, the scheduler,
and the tiered store is guarded by ``if bus.enabled`` against the
:data:`~repro.obs.events.NULL_BUS` singleton.  The claims under test
(the PR's acceptance bar):

* with the bus **off** (the default), a run emits nothing — the bus
  stays empty, so traces stay bit-equal to the pre-observability
  goldens (the bit-equality itself is asserted in ``tests/test_obs.py``
  against ``tests/data/golden_pr5_trace.json``);
* with the bus **on**, recording every span/instant/counter of a real
  spilling MiniDB refresh costs **< 2% wall-clock** over the events-off
  run;
* the bus *observes* and never *perturbs*: the simulated trace JSON is
  byte-identical with events on and off, and per-event emission cost on
  the discrete-event simulator stays in the tens of microseconds.

The wall-clock gate runs on MiniDB because that is the backend where
wall-clock *is* the result: each node does real numpy work and real
spill I/O, so the per-event cost is amortized the way a production run
would amortize it.  The pure simulator models a 100 GB warehouse in
about a millisecond — there the meaningful number is the absolute cost
per event, which this file reports (and bounds) separately.

Timing protocol: plans are computed once outside the timed region; the
minimum of ``_SAMPLES`` timed runs represents each arm (min-of-N is the
standard low-noise estimator for a deterministic workload).
"""

import time

import numpy as np

from repro.bench.experiments import ExperimentResult
from repro.db.engine import MiniDB, MvDefinition, SqlWorkload
from repro.db.table import Table
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.obs.events import EventBus
from repro.store.config import SpillConfig, parse_tier
from repro.workloads.five_workloads import build_workload

_SAMPLES = 5
_MAX_OVERHEAD = 0.02       # the ACCEPTANCE bar: < 2% wall-clock
_MAX_EVENT_COST = 100e-6   # sanity bound on simulator emission cost

#: MiniDB arm: a tight RAM budget over a tier-aware plan so the run
#: crosses the real spill/promote paths (events: node spans, demote
#: instants, occupancy counters).
_DB_MEMORY_GB = 0.001
_DB_ROWS = 120_000

#: Simulator arm: RAM well below the tier-aware plan's needs with two
#: compressed tiers and prefetching armed.
_SIM_MEMORY_GB = 1.0
_SIM_SPILL = SpillConfig(
    tiers=(parse_tier("ssd:2:zlib"), parse_tier("disk:inf:zlib")),
    prefetch=True)


def _demo_workload(data_dir: str, rows: int = _DB_ROWS,
                   seed: int = 0) -> SqlWorkload:
    """The CLI's six-MV demo workload over one generated base table."""
    db = MiniDB(data_dir)
    rng = np.random.default_rng(seed)
    db.register_table("events", Table({
        "user": rng.integers(0, 50, rows),
        "amount": rng.uniform(0, 10, rows),
    }))
    return SqlWorkload(db=db, definitions=[
        MvDefinition("mv_recent",
                     "SELECT user, amount FROM events WHERE amount > 1"),
        MvDefinition("mv_big",
                     "SELECT user, amount FROM mv_recent WHERE amount > 2"),
        MvDefinition("mv_spend",
                     "SELECT user, SUM(amount) AS spend "
                     "FROM mv_recent GROUP BY user"),
        MvDefinition("mv_whales",
                     "SELECT user, amount FROM mv_big WHERE amount > 5"),
        MvDefinition("mv_big_spend",
                     "SELECT user, SUM(amount) AS spend "
                     "FROM mv_big GROUP BY user"),
        MvDefinition("mv_vip",
                     "SELECT user, amount FROM mv_whales WHERE amount > 8"),
    ])


def _time_minidb_arm(workload, plan, spill_dir, bus):
    controller = Controller(spill_dir=spill_dir,
                            spill=SpillConfig(codec="zlib"), bus=bus)
    best = float("inf")
    trace = None
    for _ in range(_SAMPLES):
        if bus is not None:
            bus.clear()
        started = time.perf_counter()
        trace = controller.refresh_on_minidb(
            workload, _DB_MEMORY_GB, method="sc", seed=0, plan=plan)
        best = min(best, time.perf_counter() - started)
    return best, trace


def test_minidb_events_on_overhead_under_two_percent(tmp_path, show):
    workload = _demo_workload(str(tmp_path / "warehouse"))
    spill_dir = str(tmp_path / "spill")
    profiled = workload.profile()
    planner = Controller(spill_dir=spill_dir,
                         spill=SpillConfig(codec="zlib"))
    plan = planner.plan_for_minidb(profiled, _DB_MEMORY_GB, method="sc",
                                   seed=0, tier_aware=True)

    off_seconds, off_trace = _time_minidb_arm(workload, plan, spill_dir,
                                              bus=None)
    bus = EventBus()
    on_seconds, on_trace = _time_minidb_arm(workload, plan, spill_dir,
                                            bus=bus)

    # the instrumented run recorded the run it ran: node spans for
    # every MV, store instants, occupancy counters, real spilling
    assert {event.kind for event in bus.events} == {
        "span", "instant", "counter"}
    assert on_trace.extras["tiered_store"]["spill_count"] > 0
    assert off_trace.extras["tiered_store"]["spill_count"] > 0

    overhead = on_seconds / off_seconds - 1.0
    show(ExperimentResult(
        experiment_id="obs-overhead",
        title="event-bus overhead on a spilling MiniDB refresh "
              f"(min of {_SAMPLES} runs)",
        headers=["arm", "seconds", "events", "overhead"],
        rows=[["events off", off_seconds, 0, "-"],
              ["events on", on_seconds, len(bus.events),
               f"{100 * overhead:+.2f}%"]]))

    # ACCEPTANCE: recording everything costs < 2% wall-clock
    assert overhead < _MAX_OVERHEAD, (
        f"event bus overhead {100 * overhead:.2f}% exceeds "
        f"{100 * _MAX_OVERHEAD:.0f}%")


def test_simulator_bus_observes_without_perturbing(show):
    graph = build_workload("io1", scale_gb=100.0)
    planner = Controller(options=SimulatorOptions(spill=_SIM_SPILL))
    plan = planner.plan(graph, _SIM_MEMORY_GB, method="sc", seed=0,
                        tier_aware=True)

    def run(bus):
        controller = Controller(options=SimulatorOptions(spill=_SIM_SPILL),
                                bus=bus)
        best = float("inf")
        trace = None
        for _ in range(_SAMPLES):
            if bus is not None:
                bus.clear()
            started = time.perf_counter()
            trace = controller.refresh(graph, _SIM_MEMORY_GB,
                                       method="sc", seed=0, plan=plan)
            best = min(best, time.perf_counter() - started)
        return best, trace

    off_seconds, off_trace = run(None)
    bus = EventBus()
    on_seconds, on_trace = run(bus)

    # identical simulated results either way: the bus observes the
    # modeled run, it never perturbs it
    assert on_trace.to_json() == off_trace.to_json()
    assert on_trace.extras["tiered_store"]["spill_count"] > 0
    assert {event.kind for event in bus.events} == {
        "span", "instant", "counter"}

    per_event = (on_seconds - off_seconds) / max(len(bus.events), 1)
    show(ExperimentResult(
        experiment_id="obs-overhead",
        title="per-event emission cost on the discrete-event simulator",
        headers=["arm", "seconds", "events", "us/event"],
        rows=[["events off", off_seconds, 0, "-"],
              ["events on", on_seconds, len(bus.events),
               f"{1e6 * per_event:.2f}"]]))

    # a millisecond-scale modeled run amortizes nothing, so the bound
    # here is on the absolute emission cost, not a percentage
    assert per_event < _MAX_EVENT_COST, (
        f"per-event cost {1e6 * per_event:.1f}us exceeds "
        f"{1e6 * _MAX_EVENT_COST:.0f}us")


def test_threaded_dispatch_rounds_are_not_poll_quantized(show):
    """Regression: the thread-pool dispatcher is event-driven.

    It used to park on ``cv.wait(timeout=0.5)`` when blocked, so a
    wakeup could trail the completion that enabled it by up to the full
    poll interval.  Now a blocked round parks on a predicate wait keyed
    to the completion count and wakes exactly on ``finish_node``'s
    notify — the wall-clock gap ending every blocked round must be the
    running nodes' remaining compute, never a ~0.5 s poll tail.
    """
    from repro.exec.parallel import run_threaded

    graph = build_workload("io1", scale_gb=100.0)
    planner = Controller()
    plan = planner.plan(graph, _SIM_MEMORY_GB, method="sc", seed=0)
    bus = EventBus()
    # a one-worker pool over multi-node ready sets blocks the
    # dispatcher on every round while a node runs (~10 ms each)
    trace = run_threaded(graph, plan, memory_budget=graph.total_size(),
                         workers=1, time_scale=5e-4, bus=bus)
    assert trace.end_to_end_time < 0.5  # compute itself is tiny

    rounds = [event for event in bus.events
              if event.name == "dispatch-round"]
    blocked_gaps = [
        rounds[i].t0 - rounds[i - 1].t0
        for i in range(1, len(rounds)) if rounds[i].args["after_block"]]
    assert blocked_gaps, "no blocked dispatch round was observed"
    worst = max(blocked_gaps)
    show(ExperimentResult(
        experiment_id="obs-overhead",
        title="blocked dispatch-round wakeup gaps (event-driven wait)",
        headers=["rounds", "blocked", "worst gap (ms)"],
        rows=[[len(rounds), len(blocked_gaps), f"{1e3 * worst:.2f}"]]))

    # a single 0.5 s-quantized wakeup anywhere would trip this: each
    # node's scaled compute is ~10 ms, leaving a huge margin below the
    # old poll interval even on a loaded CI box
    assert worst < 0.25, (
        f"blocked dispatch round woke {worst:.3f}s after the previous "
        f"round — poll-quantized, not event-driven")
