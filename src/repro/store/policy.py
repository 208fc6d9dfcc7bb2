"""Victim-selection policies for spilling between storage tiers.

A policy ranks the resident entries of a tier; the tiered store demotes
victims from the front of the ranking until the incoming entry fits.
Every ranking ends with the node id as the final tie-break so that runs
are bit-for-bit reproducible.

A policy *is* its sort key, a row of :data:`POLICIES`, and the key must
be a pure function of the :class:`VictimInfo` it is handed.  The store
keeps each tier ranked by ``(*key(info), node_id)`` in a
:class:`~repro.store.victim_index.VictimIndex`, which caches an entry's
key until one of its ``VictimInfo`` fields changes — a key that reads a
clock, a counter or anything else would go stale unnoticed.

The policies:

``cost``
    S/C-style scoring: evict the entry with the smallest expected reload
    penalty per byte freed, ``consumers_left * reload_cost / size``.  An
    entry nobody will read again is free to evict; a small entry with
    many readers is the worst possible victim.
``lru``
    Least-recently-used: evict the entry whose last access (insert or
    read) is oldest, by logical recency.
``largest``
    Largest-first: evict the biggest entry, minimizing the number of
    migrations needed to free the requested space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class VictimInfo:
    """What a policy may look at when ranking one resident entry.

    Attributes:
        node_id: the entry's id.
        size: resident bytes (GB).
        consumers_left: outstanding readers (expected future accesses).
        last_access: logical recency stamp (larger = more recent).
        reload_cost: seconds one consumer would pay to read the entry
            back from the tier it would be demoted to.
        demote_cost: seconds the demotion into that tier is billed.
        create_cost: seconds a promotion back into RAM is billed.

    The last two are prices, not ranking inputs: the store caches them
    here so a stall-vs-spill estimate only adds numbers.
    """

    node_id: str
    size: float
    consumers_left: int
    last_access: int
    reload_cost: float
    demote_cost: float = 0.0
    create_cost: float = 0.0


def _cost_key(victim: VictimInfo) -> tuple:
    if victim.size <= 0:
        # demoting a zero-size entry frees nothing: rank it last so
        # _make_room never burns migrations on it before reaching
        # victims that actually free bytes
        return (math.inf,)
    return (victim.consumers_left * victim.reload_cost / victim.size,)


#: Every spill policy: name -> (the sort key of one candidate, ascending
#: so the smallest evicts first; its one-line summary for CLI help).
POLICIES: dict[str, tuple[Callable[[VictimInfo], tuple], str]] = {
    "cost": (_cost_key,
             "Cheapest expected reload penalty per byte freed goes first"),
    "lru": (lambda victim: (victim.last_access,),
            "Oldest logical access goes first"),
    "largest": (lambda victim: (-victim.size,),
                "Biggest entry goes first (fewest migrations to free the "
                "space)"),
}
