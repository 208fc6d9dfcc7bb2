"""The victim index: every tier's spill ranking, kept current lazily.

Ranking a tier's residents from scratch — one :class:`VictimInfo` per
entry, then a full sort — is linear in residents, and the tiered store
asks for a ranking on every stall-vs-spill estimate and every demotion.
The index keeps, per tier, one sorted list of ``(*key(info), node_id)``
— the policy's key, then the node id as the tie-break — and brings it
up to date *lazily*:

* a ledger mutation that can change an entry's key (it entered the
  tier, lost a consumer, was read) only **marks** the entry — one
  ``set.add``;
* an entry leaving a tier is **discarded** at once — a bisect, no key
  computation;
* the marks are resolved (old key bisected out, fresh ``VictimInfo``
  described, new key inserted) only when a ranking is asked for.

A run that never spills therefore never computes a key, and a query
costs ``O(marked * log n)`` instead of ``O(n log n)``.

Only the owning ledger calls the index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterator, KeysView

from repro.store.policy import VictimInfo


class VictimIndex:
    """Lazily synced per-tier ranking of demotion candidates.

    Args:
        key: the policy's sort key (a :data:`~repro.store.policy.
            POLICIES` row); it must be a pure function of the
            :class:`VictimInfo`, since keys are cached.
        n_tiers: tiers to index, RAM first.
        describe: ``(tier, node_id) -> VictimInfo`` for a resident of
            that tier, or ``None`` when the tier's entries are not
            demotion candidates (nothing below to demote into).
    """

    def __init__(self, key: Callable[[VictimInfo], tuple], n_tiers: int,
                 describe: Callable[[int, str], VictimInfo | None]) -> None:
        self._key = key
        self._describe = describe
        # per tier: the sorted rank tuples, each indexed entry's
        # (rank tuple, VictimInfo), and the entries awaiting a re-rank
        self._order: list[list[tuple]] = [[] for _ in range(n_tiers)]
        self._entries: list[dict[str, tuple[tuple, VictimInfo]]] = [
            {} for _ in range(n_tiers)]
        self._marked: list[set[str]] = [set() for _ in range(n_tiers)]

    def mark(self, tier: int, node_id: str) -> None:
        """``node_id`` entered ``tier``, or one of its ``VictimInfo``
        fields may have changed there."""
        self._marked[tier].add(node_id)

    def mark_all(self) -> None:
        """Something every key may depend on changed (a tier's priced
        ratio or codec, the compressibility map)."""
        for marked, entries in zip(self._marked, self._entries):
            marked.update(entries)

    def discard(self, tier: int, node_id: str) -> None:
        """``node_id`` left ``tier`` (migrated or released)."""
        self._marked[tier].discard(node_id)
        slot = self._entries[tier].pop(node_id, None)
        if slot is not None:
            order = self._order[tier]
            del order[bisect_left(order, slot[0])]

    def ranked(self, tier: int) -> Iterator[VictimInfo]:
        """``tier``'s candidates, best victim first.

        Iterates the live ranking: the caller may stop early, and must
        not ask for this tier's ranking again while it iterates
        (demotion cascades only ever rank tiers further down).
        """
        self._sync(tier)
        entries = self._entries[tier]
        return (entries[rank[-1]][1] for rank in self._order[tier])

    def members(self, tier: int) -> KeysView[str]:
        """Ids of the entries ranked in ``tier``."""
        self._sync(tier)
        return self._entries[tier].keys()

    def _sync(self, tier: int) -> None:
        """Resolve ``tier``'s marks: re-rank every marked entry."""
        marked = self._marked[tier]
        if not marked:
            return
        self._marked[tier] = set()
        order, entries = self._order[tier], self._entries[tier]
        fresh = []
        for node_id in marked:
            self.discard(tier, node_id)  # its stale rank, if it had one
            info = self._describe(tier, node_id)
            if info is not None:
                rank = (*self._key(info), node_id)
                entries[node_id] = (rank, info)
                fresh.append(rank)
        if len(fresh) > len(order):
            # first build, or everything was marked: one sort beats
            # that many insertions into a growing list
            order.extend(fresh)
            order.sort()
        else:
            for rank in fresh:
                insort(order, rank)
