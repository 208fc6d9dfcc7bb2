"""The Memory Ledger: one budget accountant for every execution backend.

Before the ``repro.exec`` refactor, three executors (the discrete-event
simulator, the LRU baseline, and the MiniDB runner) each re-implemented
byte accounting, peak tracking, and the flagged-residency release protocol.
:class:`MemoryLedger` centralizes all of it:

* **budget accounting** — ``usage`` / ``peak_usage`` / ``available`` with a
  single epsilon-tolerant ``fits`` test, plus raw ``charge``/``credit``
  for executors (like the LRU cache) that track recency themselves;
* **flagged residency** — entries carry a consumer reference count and a
  materialization hold; an entry leaves the ledger only when both clear,
  matching the paper's release protocol (§III-C, Figure 6 at t4);
* **reservations** — the parallel scheduler reserves a node's output size
  at *dispatch* time and commits it at *output* time.  Reserved bytes count
  against admission (so concurrent workers can never over-commit) but not
  against ``usage``/``peak_usage`` (so serial peak semantics are preserved);
* **thread safety** — every mutation runs under one re-entrant lock, so
  :meth:`try_insert` is an atomic check-and-claim that concurrent
  threads (MiniDB's drains, the service's requests) can race safely.  A
  public call takes that lock once: what it needs under it (the fit
  test, the release cores) are unlocked ``_`` helpers, never another
  public call.  A ledger only one thread ever touches (the
  discrete-event simulators') is built with :class:`NoLock` instead —
  :func:`repro.exec.base.create_backend` makes that choice, per
  backend.

This ledger *is* the paper's Memory Catalog accounting for every backend,
so they share one implementation of the invariant the paper cares about:
flagged residency never exceeds the configured budget.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import BudgetExceededError, CatalogError

#: Absolute slack used by every fit test, mirroring the optimizer's epsilon.
_EPS = 1e-12


class NoLock:
    """The lock of a ledger one thread owns: it guards nothing, and
    entering it costs less than an uncontended ``RLock`` round trip.
    Same protocol as ``RLock`` (context manager, ``acquire`` /
    ``release``), so lock wrappers such as the test suite's lock-order
    audit (``tests/lockorder.py``) still wrap it."""

    __slots__ = ()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return True

    def release(self) -> None:
        pass

    def __enter__(self) -> bool:
        return True

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


@dataclass
class _Entry:
    size: float
    consumers_left: int
    materialization_pending: bool


class MemoryLedger:
    """Thread-safe bounded accounting of in-memory table residency.

    Attributes:
        budget: capacity in the same unit as table sizes (GB throughout
            the repo).

    ``lock`` builds the ledger's lock: ``threading.RLock`` unless every
    call comes from one thread (:class:`NoLock`).  Each public call
    acquires it once; ``consumer_done`` and ``materialized`` are that
    lock around the unlocked ``_consumer_done`` / ``_materialized``
    cores, which a :class:`~repro.store.tiered.TieredLedger` calls on
    its tier ledgers under its own lock.
    """

    def __init__(self, budget: float = 0.0,
                 lock: Callable[[], object] = threading.RLock) -> None:
        if budget < 0:
            raise CatalogError("ledger budget must be >= 0")
        self.budget = budget
        self._entries: dict[str, _Entry] = {}
        self._reserved: dict[str, float] = {}
        self._usage = 0.0
        self._peak = 0.0
        self._charged = 0.0
        self._lock = lock()

    # ------------------------------------------------------------------
    # accounting views
    # ------------------------------------------------------------------
    @property
    def usage(self) -> float:
        """Committed resident bytes (excludes outstanding reservations)."""
        return self._usage

    @property
    def peak_usage(self) -> float:
        """High-water mark of committed residency."""
        return self._peak

    @property
    def reserved(self) -> float:
        """Bytes promised to dispatched-but-not-finished flagged nodes."""
        return sum(self._reserved.values()) if self._reserved else 0

    @property
    def available(self) -> float:
        """Bytes a new admission may claim (budget − usage − reserved)."""
        reserved = self._reserved
        return (self.budget - self._usage
                - (sum(reserved.values()) if reserved else 0))

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._entries

    def note_read(self, node_id: str) -> int | None:
        """A consumer reads ``node_id``: the index of the tier holding
        it — always 0 (RAM) here — or None when it is not resident.  A
        plain ledger keeps no recency; the tiered store's override also
        records the read."""
        return 0 if node_id in self._entries else None

    def resident(self) -> list[str]:
        return list(self._entries)

    def consumers_left(self, node_id: str) -> int:
        """Outstanding consumer count of a resident entry.

        Raises:
            CatalogError: when ``node_id`` is not resident.
        """
        with self._lock:
            return self._require(node_id).consumers_left

    def size_of(self, node_id: str) -> float:
        """Resident size of an entry.

        Raises:
            CatalogError: when ``node_id`` is not resident.
        """
        with self._lock:
            return self._require(node_id).size

    def fits(self, size: float) -> bool:
        """Whether ``size`` GB can be admitted right now.

        Epsilon-tolerant (``1e-12`` slack, mirroring the optimizer's
        feasibility epsilon) and reservation-aware: bytes promised to
        dispatched nodes count as taken.
        """
        with self._lock:
            return self._fits(size)

    def _fits(self, size: float) -> bool:
        """:meth:`fits` for a caller that holds the lock."""
        return size <= self.available + _EPS

    # ------------------------------------------------------------------
    # raw byte accounting (recency-managed caches)
    # ------------------------------------------------------------------
    def charge(self, size: float) -> None:
        """Account ``size`` resident bytes without an entry record.

        Used by executors that manage their own eviction policy (the LRU
        cache) but must share the ledger's budget/peak bookkeeping.
        """
        if size < 0:
            raise CatalogError("charged size must be >= 0")
        with self._lock:
            self._usage += size
            self._charged += size
            self._peak = max(self._peak, self._usage)

    def credit(self, size: float) -> None:
        """Return bytes previously taken with :meth:`charge`."""
        if size < 0:
            raise CatalogError("credited size must be >= 0")
        with self._lock:
            if size > self._charged + _EPS:
                raise CatalogError(
                    f"credit of {size:.6g} exceeds charged bytes "
                    f"({self._charged:.6g})")
            self._usage -= size
            self._charged -= size

    # ------------------------------------------------------------------
    # flagged-entry protocol
    # ------------------------------------------------------------------
    def insert(self, node_id: str, size: float, n_consumers: int,
               materialization_pending: bool = True) -> None:
        """Create a table in memory.

        Args:
            node_id: the entry's id (must not already be resident).
            size: bytes (GB) the entry occupies.
            n_consumers: downstream readers that must finish before the
                entry may release.
            materialization_pending: hold the entry until its background
                write to durable storage drains (:meth:`materialized`).

        Raises:
            BudgetExceededError: when the table does not fit — callers
                decide whether to stall, spill, or abort.
            CatalogError: duplicate id or negative size.
        """
        with self._lock:
            self._check_new(node_id, size)
            if not self._fits(size):
                raise BudgetExceededError(
                    f"inserting {node_id!r} ({size:.6g}) exceeds Memory "
                    f"Catalog budget ({self.available:.6g} available of "
                    f"{self.budget:.6g})",
                    requested=size, available=self.available)
            self._commit_entry(node_id, size, n_consumers,
                               materialization_pending)

    def try_insert(self, node_id: str, size: float, n_consumers: int,
                   materialization_pending: bool = True) -> bool:
        """Atomic check-and-insert; returns False instead of raising.

        This is the admission primitive for concurrent schedulers: the fit
        test and the usage update happen under one lock acquisition, so two
        workers can never jointly exceed the budget.
        """
        with self._lock:
            self._check_new(node_id, size)
            if not self._fits(size):
                return False
            self._commit_entry(node_id, size, n_consumers,
                               materialization_pending)
            return True

    # ------------------------------------------------------------------
    # reservations (parallel dispatch-time admission)
    # ------------------------------------------------------------------
    def reserve(self, node_id: str, size: float) -> bool:
        """Reserve space for a node's future output; False if it won't fit.

        Reserved bytes block other admissions immediately but only count
        toward ``usage``/``peak_usage`` once :meth:`commit_reservation`
        runs (at the node's output time), keeping peak semantics identical
        to the serial simulator.
        """
        with self._lock:
            self._check_new(node_id, size)
            if node_id in self._reserved:
                raise CatalogError(
                    f"table {node_id!r} already has a reservation")
            if not self._fits(size):
                return False
            self._reserved[node_id] = size
            return True

    def commit_reservation(self, node_id: str, n_consumers: int,
                           materialization_pending: bool = True) -> None:
        """Convert a reservation into a committed resident entry."""
        with self._lock:
            if node_id not in self._reserved:
                raise CatalogError(f"table {node_id!r} has no reservation")
            size = self._reserved.pop(node_id)
            self._commit_entry(node_id, size, n_consumers,
                               materialization_pending)

    # ------------------------------------------------------------------
    # release protocol
    # ------------------------------------------------------------------
    def consumer_done(self, node_id: str) -> bool:
        """One consumer finished reading ``node_id``; release if possible.

        Returns:
            True when the entry was evicted (both the consumer count and
            the materialization hold have cleared).

        Raises:
            CatalogError: when ``node_id`` is not resident or has no
                outstanding consumers.
        """
        with self._lock:
            return self._consumer_done(node_id)

    def _consumer_done(self, node_id: str) -> bool:  # lint: locked
        entry = self._require(node_id)
        if entry.consumers_left <= 0:
            raise CatalogError(
                f"table {node_id!r} has no outstanding consumers")
        entry.consumers_left -= 1
        return self._maybe_release(node_id, entry)

    def materialized(self, node_id: str) -> bool:
        """Background materialization of ``node_id`` completed.

        Returns:
            True when the entry was evicted (no consumers remained).

        Raises:
            CatalogError: when ``node_id`` is not resident or was
                already materialized.
        """
        with self._lock:
            return self._materialized(node_id)

    def _materialized(self, node_id: str) -> bool:  # lint: locked
        entry = self._require(node_id)
        if not entry.materialization_pending:
            raise CatalogError(
                f"table {node_id!r} was already materialized")
        entry.materialization_pending = False
        return self._maybe_release(node_id, entry)

    def force_release(self, node_id: str) -> None:
        """Unconditional eviction (end-of-run cleanup): a :meth:`detach`
        whose release-protocol state nobody picks up."""
        self.detach(node_id)

    # ------------------------------------------------------------------
    # tier migration (see repro.store.tiered)
    # ------------------------------------------------------------------
    def detach(self, node_id: str) -> tuple[float, int, bool]:
        """Remove an entry while preserving its release-protocol state.

        Returns ``(size, consumers_left, materialization_pending)`` so a
        tiered store can move the entry into another ledger with
        :meth:`adopt` — the two calls together are the spill/promote
        migration primitive.
        """
        with self._lock:
            entry = self._require(node_id)
            self._usage -= entry.size
            del self._entries[node_id]
            return (entry.size, entry.consumers_left,
                    entry.materialization_pending)

    def adopt(self, node_id: str, size: float, consumers_left: int,
              materialization_pending: bool) -> None:
        """Admit an entry detached from another ledger, state intact.

        Unlike :meth:`insert` the consumer count may be mid-countdown;
        the admission/fit rules are identical.
        """
        with self._lock:
            self._check_new(node_id, size)
            if not self._fits(size):
                raise BudgetExceededError(
                    f"adopting {node_id!r} ({size:.6g}) exceeds ledger "
                    f"budget ({self.available:.6g} available of "
                    f"{self.budget:.6g})",
                    requested=size, available=self.available)
            self._commit_entry(node_id, size, consumers_left,
                               materialization_pending)

    # ------------------------------------------------------------------
    def _check_new(self, node_id: str, size: float) -> None:
        if node_id in self._entries:
            raise CatalogError(f"table {node_id!r} already in Memory Catalog")
        if size < 0:
            raise CatalogError(f"table {node_id!r} has negative size")

    def _commit_entry(self, node_id: str, size: float, n_consumers: int,  # lint: locked
                      materialization_pending: bool) -> None:
        self._entries[node_id] = _Entry(
            size=size,
            consumers_left=n_consumers,
            materialization_pending=materialization_pending)
        self._usage += size
        if self._usage > self._peak:
            self._peak = self._usage

    def _maybe_release(self, node_id: str,  # lint: locked
                       entry: _Entry) -> bool:
        """The release rule: ``node_id`` (whose record is ``entry``)
        leaves once its last consumer finished *and* its drain
        completed."""
        if entry.consumers_left > 0 or entry.materialization_pending:
            return False
        self._usage -= entry.size
        del self._entries[node_id]
        return True

    def _require(self, node_id: str) -> _Entry:
        try:
            return self._entries[node_id]
        except KeyError:
            raise CatalogError(
                f"table {node_id!r} not in Memory Catalog") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(budget={self.budget:.3g}, "
                f"usage={self._usage:.3g}, reserved={self.reserved:.3g})")
