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
  spilling MiniDB refresh costs **< 250 us per emitted event** over the
  events-off run;
* the bus *observes* and never *perturbs*: the simulated trace JSON is
  byte-identical with events on and off, and per-event emission cost on
  the discrete-event simulator stays in the tens of microseconds.

Both gates bound the *absolute* cost of an event.  The MiniDB one used
to be a share of the refresh (< 2 %), and the refresh kept shrinking
under it: 0.18 s after ISSUEs 19-20, 0.06 s since the encoder stopped
deflating what does not deflate (ISSUE 22) — with the same 28 events on
it.  A fixed cost over a shrinking denominator is a gate on the
denominator: it went red at +2.13 % without any change to the bus, and
at 60 ms two percent is the 1.2 ms two threaded runs differ by anyway.
What the bus owes its caller is a price per event; the MiniDB arm
measures it where a run has real numpy work, real threads and real
spill I/O around the emission, the simulator arm where nothing
amortizes it.

Timing protocol: plans are computed once outside the timed region; the
minimum of N timed runs represents each arm (min-of-N is the standard
low-noise estimator for a deterministic workload).  The MiniDB arms
alternate, so a drift of the host lands on both.  Even so the difference
of two such minima moves by about +-2.5 ms between repetitions on a
2-vCPU host (ten repetitions: -50 to +99 us per event, whichever of min,
quartile, median or paired median is taken), so the MiniDB bound sits
well above that; the emission cost proper — ~2 us — is what the
simulator arm pins.
"""

import time

from repro.bench.experiments import ExperimentResult
from repro.db.engine import demo_workload
from repro.engine.controller import Controller
from repro.engine import SimulatorOptions
from repro.obs.events import EventBus
from repro.store.config import SpillConfig, parse_tier
from repro.workloads.five_workloads import build_workload

_SAMPLES = 5
_DB_SAMPLES = 15           # MiniDB arm: 60 ms a run, threads and files
_MAX_EVENT_COST = 100e-6   # ACCEPTANCE, simulator arm: per event
_MAX_DB_EVENT_COST = 250e-6   # ACCEPTANCE, MiniDB arm (7 ms on 28 events)

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


def _time_minidb_arms(workload, plan, spill_dir, bus):
    """Seconds (min of ``_DB_SAMPLES`` runs) and last trace of each arm,
    keyed by its bus — events off (``None``) and on taking turns."""
    controllers = {
        arm: Controller(spill_dir=spill_dir,
                        spill=SpillConfig(codec="zlib"), bus=arm)
        for arm in (None, bus)}
    seconds = dict.fromkeys(controllers, float("inf"))
    traces = {}
    for _ in range(_DB_SAMPLES):
        for arm, controller in controllers.items():
            if arm is not None:
                arm.clear()
            started = time.perf_counter()
            traces[arm] = controller.refresh_on_minidb(
                workload, _DB_MEMORY_GB, method="sc", seed=0, plan=plan)
            seconds[arm] = min(seconds[arm],
                               time.perf_counter() - started)
    return seconds, traces


def test_minidb_events_on_cost_per_event(tmp_path, show):
    """Was ``..._overhead_under_two_percent``: the same two arms, read
    as seconds per emitted event instead of a share of a refresh that
    keeps getting shorter (module docstring)."""
    workload = demo_workload(str(tmp_path / "warehouse"), rows=_DB_ROWS)
    spill_dir = str(tmp_path / "spill")
    profiled = workload.profile()
    planner = Controller(spill_dir=spill_dir,
                         spill=SpillConfig(codec="zlib"))
    plan = planner.plan_for_minidb(profiled, _DB_MEMORY_GB, method="sc",
                                   seed=0, tier_aware=True)

    bus = EventBus()
    seconds, traces = _time_minidb_arms(workload, plan, spill_dir, bus)
    off_seconds, on_seconds = seconds[None], seconds[bus]
    off_trace, on_trace = traces[None], traces[bus]

    # the instrumented run recorded the run it ran: node spans for
    # every MV, store instants, occupancy counters, real spilling
    assert {event.kind for event in bus.events} == {
        "span", "instant", "counter"}
    assert on_trace.extras["tiered_store"]["spill_count"] > 0
    assert off_trace.extras["tiered_store"]["spill_count"] > 0

    per_event = (on_seconds - off_seconds) / len(bus.events)
    show(ExperimentResult(
        experiment_id="obs-overhead",
        title="event-bus cost on a spilling MiniDB refresh "
              f"(min of {_DB_SAMPLES} alternating runs)",
        headers=["arm", "seconds", "events", "us/event", "share"],
        rows=[["events off", off_seconds, 0, "-", "-"],
              ["events on", on_seconds, len(bus.events),
               f"{1e6 * per_event:.2f}",
               f"{100 * (on_seconds / off_seconds - 1.0):+.2f}%"]]))

    # ACCEPTANCE: recording everything costs < 250 us per event
    assert per_event < _MAX_DB_EVENT_COST, (
        f"per-event cost {1e6 * per_event:.1f}us exceeds "
        f"{1e6 * _MAX_DB_EVENT_COST:.0f}us")


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

    # a millisecond-scale modeled run amortizes nothing and has no
    # threads to wait for: the bound is on the emission cost proper
    assert per_event < _MAX_EVENT_COST, (
        f"per-event cost {1e6 * per_event:.1f}us exceeds "
        f"{1e6 * _MAX_EVENT_COST:.0f}us")

