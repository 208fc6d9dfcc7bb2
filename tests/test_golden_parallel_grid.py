"""A grid of ``parallel`` runs pinned by digest.

``golden_parallel_grid.json`` holds the sha256 of every cell's
``RunTrace.to_dict()`` (canonical JSON: sorted keys, no whitespace), so
a scheduler rewrite that moves any modeled number of any cell by one
bit fails here.  The grid is ``workers`` in {2, 4, 8} x three generated
DAGs x four stores (the plain ledger; ssd+disk with zlib and prefetch;
ssd+disk without arbitration; a ram-compressed rung over ssd+disk) x
RAM at 0.3 / 0.6 / 1.0 of the plan's no-spill peak: 108 cells.

Regenerate (``python tests/test_golden_parallel_grid.py --write``) only
when a change deliberately moves the scheduler's numbers, and say so in
the commit.
"""

import hashlib
import json
import pathlib
import sys

from repro.engine import SimulatorOptions
from repro.exec import create_backend
from repro.store import SpillConfig, TierSpec
from repro.store.config import RAM_COMPRESSED

from tests.test_golden_kernel import _fixed_case

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_parallel_grid.json"

WORKERS = (2, 4, 8)
DAGS = ((24, 1), (40, 2), (64, 3))    # (n_nodes, seed)
RAM_FRACTIONS = (0.3, 0.6, 1.0)


def _stores(peak: float) -> dict:
    ssd_disk = (TierSpec("ssd", 0.5 * peak), TierSpec("disk"))
    return {
        "plain": SimulatorOptions(),
        "zlib-prefetch": SimulatorOptions(spill=SpillConfig(
            tiers=ssd_disk, codec="zlib", prefetch=True)),
        "no-arbitrate": SimulatorOptions(spill=SpillConfig(
            tiers=ssd_disk, arbitrate=False)),
        "rung": SimulatorOptions(spill=SpillConfig(
            tiers=(TierSpec(RAM_COMPRESSED, 0.25 * peak), *ssd_disk))),
    }


def grid_traces():
    """Yield ``(cell label, RunTrace)`` for every cell of the grid."""
    for n_nodes, seed in DAGS:
        graph, plan, _, peak = _fixed_case(n_nodes=n_nodes, seed=seed)
        for store, options in _stores(peak).items():
            for fraction in RAM_FRACTIONS:
                for workers in WORKERS:
                    backend = create_backend("parallel", options=options,
                                             workers=workers)
                    trace = backend.run(graph, plan, fraction * peak,
                                        method="sc")
                    yield (f"n{n_nodes}-s{seed}/{store}/ram{fraction}/"
                           f"w{workers}", trace)


def digest(trace) -> str:
    text = json.dumps(trace.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_grid_is_bit_equal_to_its_golden():
    fresh = {label: digest(trace) for label, trace in grid_traces()}
    golden = json.loads(GOLDEN.read_text())
    assert sorted(fresh) == sorted(golden)
    moved = [label for label in golden if fresh[label] != golden[label]]
    assert not moved, f"{len(moved)} cells moved, first: {moved[:5]}"


def test_grid_exercises_the_scheduler():
    """The digests are only anchors while the cells do the work: nodes
    overlap, some stall on admission, the tiered stores spill and
    arbitrate both ways."""
    overlapped = stalled = spills = stall_wins = spill_wins = 0
    for _, trace in grid_traces():
        starts = [node.start for node in trace.nodes]
        overlapped += len(set(starts)) < len(starts)
        stalled += any(node.stall > 0 for node in trace.nodes)
        report = trace.extras.get("tiered_store")
        if report is not None:
            spills += report["spill_count"]
            stall_wins += report["arbitration"]["stall_wins"]
            spill_wins += report["arbitration"]["spill_wins"]
    assert overlapped and stalled and spills and stall_wins and spill_wins


if __name__ == "__main__":
    cells = {label: digest(trace) for label, trace in grid_traces()}
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(cells, indent=1, sort_keys=True)
                          + "\n")
    else:
        json.dump(cells, sys.stdout, indent=1, sort_keys=True)
