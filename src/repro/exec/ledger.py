"""The Memory Ledger: one budget accountant for every execution backend.

:class:`MemoryLedger` is the byte accounting, peak tracking and
flagged-residency release protocol every backend shares:

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
* **one owner thread** — a ledger is called only from the thread that
  built it (the run's, or the service's event loop: MiniDB's drain
  threads touch the warehouse catalog, never the ledger), so it takes
  no lock and :meth:`reserve` is a check-and-claim by construction.

This ledger *is* the paper's Memory Catalog accounting for every backend,
so they share one implementation of the invariant the paper cares about:
flagged residency never exceeds the configured budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BudgetExceededError, CatalogError

#: Absolute slack used by every fit test, mirroring the optimizer's epsilon.
_EPS = 1e-12


@dataclass
class _Entry:
    size: float
    consumers_left: int
    materialization_pending: bool


class MemoryLedger:
    """Bounded accounting of in-memory table residency, owned by the
    thread that built it.

    Attributes:
        budget: capacity in the same unit as table sizes (GB throughout
            the repo).
    """

    def __init__(self, budget: float = 0.0) -> None:
        if not budget >= 0:  # also rejects NaN
            raise CatalogError("ledger budget must be >= 0")
        self.budget = budget
        self._entries: dict[str, _Entry] = {}
        self._reserved: dict[str, float] = {}
        self._usage = 0.0
        self._peak = 0.0
        self._charged = 0.0

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
        return self._require(node_id).consumers_left

    def size_of(self, node_id: str) -> float:
        """Resident size of an entry.

        Raises:
            CatalogError: when ``node_id`` is not resident.
        """
        return self._require(node_id).size

    def fits(self, size: float) -> bool:
        """Whether ``size`` GB can be admitted right now.

        Epsilon-tolerant (``1e-12`` slack, mirroring the optimizer's
        feasibility epsilon) and reservation-aware: bytes promised to
        dispatched nodes count as taken.
        """
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
        self._usage += size
        self._charged += size
        self._peak = max(self._peak, self._usage)

    def credit(self, size: float) -> None:
        """Return bytes previously taken with :meth:`charge`."""
        if size < 0:
            raise CatalogError("credited size must be >= 0")
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
        self._check_new(node_id, size)
        if not self.fits(size):
            raise BudgetExceededError(
                f"inserting {node_id!r} ({size:.6g}) exceeds Memory "
                f"Catalog budget ({self.available:.6g} available of "
                f"{self.budget:.6g})",
                requested=size, available=self.available)
        self._commit_entry(node_id, size, n_consumers,
                           materialization_pending)

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
        self._check_new(node_id, size)
        if node_id in self._reserved:
            raise CatalogError(
                f"table {node_id!r} already has a reservation")
        if not self.fits(size):
            return False
        self._reserved[node_id] = size
        return True

    def commit_reservation(self, node_id: str, n_consumers: int,
                           materialization_pending: bool = True) -> None:
        """Convert a reservation into a committed resident entry."""
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
        self._check_new(node_id, size)
        if not self.fits(size):
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

    def _commit_entry(self, node_id: str, size: float, n_consumers: int,
                      materialization_pending: bool) -> None:
        self._entries[node_id] = _Entry(
            size=size,
            consumers_left=n_consumers,
            materialization_pending=materialization_pending)
        self._usage += size
        if self._usage > self._peak:
            self._peak = self._usage

    def _maybe_release(self, node_id: str, entry: _Entry) -> bool:
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
