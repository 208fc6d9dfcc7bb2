"""Randomized-operation stress tests for MemoryLedger invariants.

Single-threaded runs drive seeded random operation schedules against a
shadow model and check after every step that:

* committed usage never exceeds the budget (and matches the shadow);
* usage + outstanding reservations never exceed the budget;
* ``peak_usage`` is monotone non-decreasing and never exceeds budget;
* the release protocol converges — an entry leaves exactly when its
  consumers hit zero *and* its materialization hold cleared, and after
  draining every schedule the ledger is empty.

Multi-threaded runs hammer the same protocol (plus reservations) from
many workers with seeded per-worker schedules while a sampler thread
watches for budget violations.
"""

import random
import threading

import pytest

from repro.errors import CatalogError
from repro.exec.ledger import MemoryLedger

BUDGET = 100.0


class _Shadow:
    """Reference model: plain dicts, no cleverness."""

    def __init__(self):
        self.entries = {}      # node -> [size, consumers, pending]
        self.reserved = {}

    @property
    def usage(self):
        return sum(size for size, _, _ in self.entries.values())

    def admissible(self, size):
        return (self.usage + sum(self.reserved.values()) + size
                <= BUDGET + 1e-12)


def _check(ledger, shadow, peak_seen):
    assert ledger.usage == pytest.approx(shadow.usage)
    assert ledger.usage <= BUDGET + 1e-9
    assert ledger.usage + ledger.reserved <= BUDGET + 1e-9
    assert ledger.peak_usage >= peak_seen - 1e-12, "peak went backwards"
    assert ledger.peak_usage <= BUDGET + 1e-9
    assert sorted(ledger.resident()) == sorted(shadow.entries)
    return max(peak_seen, ledger.peak_usage)


@pytest.mark.parametrize("seed", range(8))
def test_random_schedule_single_threaded(seed):
    rng = random.Random(seed)
    ledger = MemoryLedger(budget=BUDGET)
    shadow = _Shadow()
    peak = 0.0
    next_id = 0

    for _ in range(600):
        ops = ["insert", "try_insert", "reserve"]
        if shadow.entries:
            ops += ["consumer_done", "materialized", "force_release"] * 2
        if shadow.reserved:
            ops += ["commit_reservation"] * 2
        op = rng.choice(ops)

        if op in ("insert", "try_insert", "reserve"):
            name = f"t{next_id}"
            next_id += 1
            size = rng.uniform(1.0, 40.0)
            consumers = rng.randint(0, 3)
            pending = rng.random() < 0.7
            fits = shadow.admissible(size)
            if op == "insert":
                if fits:
                    ledger.insert(name, size, consumers, pending)
                    shadow.entries[name] = [size, consumers, pending]
                else:
                    with pytest.raises(CatalogError):
                        ledger.insert(name, size, consumers, pending)
            elif op == "try_insert":
                assert ledger.try_insert(name, size, consumers,
                                         pending) == fits
                if fits:
                    shadow.entries[name] = [size, consumers, pending]
            else:
                assert ledger.reserve(name, size) == fits
                if fits:
                    shadow.reserved[name] = size
        elif op == "commit_reservation":
            name = rng.choice(sorted(shadow.reserved))
            consumers = rng.randint(0, 3)
            pending = rng.random() < 0.7
            ledger.commit_reservation(name, consumers, pending)
            shadow.entries[name] = [shadow.reserved.pop(name), consumers,
                                    pending]
        elif op == "consumer_done":
            name = rng.choice(sorted(shadow.entries))
            entry = shadow.entries[name]
            if entry[1] <= 0:
                with pytest.raises(CatalogError):
                    ledger.consumer_done(name)
            else:
                entry[1] -= 1
                released = entry[1] <= 0 and not entry[2]
                assert ledger.consumer_done(name) == released
                if released:
                    del shadow.entries[name]
        elif op == "materialized":
            name = rng.choice(sorted(shadow.entries))
            entry = shadow.entries[name]
            if not entry[2]:
                with pytest.raises(CatalogError):
                    ledger.materialized(name)
            else:
                entry[2] = False
                released = entry[1] <= 0
                assert ledger.materialized(name) == released
                if released:
                    del shadow.entries[name]
        else:  # force_release
            name = rng.choice(sorted(shadow.entries))
            ledger.force_release(name)
            del shadow.entries[name]

        peak = _check(ledger, shadow, peak)

    # convergence: draining every outstanding hold empties the ledger
    for name in sorted(shadow.reserved):
        ledger.commit_reservation(name, 0, materialization_pending=True)
        shadow.entries[name] = [shadow.reserved.pop(name), 0, True]
    for name, entry in sorted(shadow.entries.items()):
        if entry[2]:
            ledger.materialized(name)
        while name in ledger and entry[1] > 0:
            ledger.consumer_done(name)
            entry[1] -= 1
        if name in ledger:  # 0 consumers and no hold: only force works
            ledger.force_release(name)
    assert ledger.usage == pytest.approx(0.0)
    assert ledger.reserved == 0.0
    assert not ledger.resident()


@pytest.mark.parametrize("seed", [0, 1])
def test_random_schedule_multi_threaded(seed):
    """Seeded per-worker schedules; a sampler watches the budget."""
    ledger = MemoryLedger(budget=BUDGET)
    violations = []
    errors = []
    stop = threading.Event()

    def sampler():
        while not stop.is_set():
            usage, reserved = ledger.usage, ledger.reserved
            if usage > BUDGET + 1e-9:
                violations.append(("usage", usage))
            if usage + reserved > BUDGET + 1e-9 + 40.0:
                # usage and reserved are read unlocked in sequence, so a
                # release between the reads can overshoot by at most one
                # max-sized entry; a violation beyond that is real
                violations.append(("admission", usage + reserved))

    def worker(worker_id):
        rng = random.Random(1000 * seed + worker_id)
        try:
            for i in range(400):
                name = f"w{worker_id}-{i}"
                size = rng.uniform(1.0, 40.0)
                consumers = rng.randint(0, 2)
                if rng.random() < 0.5:
                    if not ledger.try_insert(name, size, consumers,
                                             materialization_pending=True):
                        continue
                else:
                    if not ledger.reserve(name, size):
                        continue
                    ledger.commit_reservation(name, consumers,
                                              materialization_pending=True)
                released = ledger.materialized(name)
                for _ in range(consumers):
                    assert not released
                    released = ledger.consumer_done(name)
                assert released
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
    watcher = threading.Thread(target=sampler)
    watcher.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stop.set()
    watcher.join()

    assert not errors
    assert not violations
    assert ledger.peak_usage <= BUDGET + 1e-9
    assert ledger.usage == pytest.approx(0.0)
    assert ledger.reserved == 0.0
