"""Victim-selection policies for spilling between storage tiers.

A policy ranks the resident entries of a tier; the tiered store demotes
victims from the front of the ranking until the incoming entry fits.
Every ranking ends with the node id as the final tie-break so that runs
are bit-for-bit reproducible.

The contract for a policy author: a policy *is* its
:meth:`SpillPolicy.key`, and ``key`` must be a pure function of the
:class:`VictimInfo` it is handed.  The store keeps each tier ranked in a
:class:`~repro.store.victim_index.VictimIndex`, which caches an entry's
key until one of its ``VictimInfo`` fields changes — a key that reads a
clock, a counter or anything else would go stale unnoticed.
:meth:`SpillPolicy.order` is the reference ranking the index is tested
against; it is not on the hot path and may not be overridden
(:func:`register_policy` rejects a class that does: a ranking that is
not a sort by ``key`` cannot be indexed).

Built-in policies:

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

import abc
import math
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ValidationError


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


class SpillPolicy(abc.ABC):
    """Orders spill candidates; first in the ranking is evicted first."""

    name: ClassVar[str] = ""

    @abc.abstractmethod
    def key(self, victim: VictimInfo) -> tuple:
        """Sort key of one candidate (ascending; smallest evicts first).

        Must be a pure function of ``victim``: the store caches the
        result and recomputes it only when one of the entry's
        ``VictimInfo`` fields changes.
        """

    def order(self, victims: list[VictimInfo]) -> list[VictimInfo]:
        """Deterministic ranking: policy key, then node id.

        The reference the store's incrementally kept ranking must equal
        (and the tests compare it against); the store itself never
        calls it.  Not overridable — see :func:`register_policy`.
        """
        return sorted(victims, key=lambda v: (*self.key(v), v.node_id))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_POLICIES: dict[str, type[SpillPolicy]] = {}


def register_policy(cls: type[SpillPolicy]) -> type[SpillPolicy]:
    """Class decorator adding a policy under its ``name``.

    Raises:
        ValidationError: no name, a name already taken, or a class that
            overrides :meth:`SpillPolicy.order` — the store ranks by
            ``key`` alone, so any other ranking would silently not
            apply.
    """
    if not cls.name:
        raise ValidationError(f"policy {cls.__name__} has no name")
    if cls.order is not SpillPolicy.order:
        raise ValidationError(
            f"policy {cls.__name__} overrides order(); the store ranks "
            f"victims by key() alone — express the ranking there")
    existing = _POLICIES.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValidationError(
            f"spill policy {cls.name!r} is already registered to "
            f"{existing.__name__}")
    _POLICIES[cls.name] = cls
    return cls


def policy_names() -> tuple[str, ...]:
    return tuple(sorted(_POLICIES))


def policy_summaries() -> dict[str, str]:
    """``{name: one-line description}`` for every registered policy.

    The description is each policy class's docstring headline, so CLI
    help text stays in sync with the registry — a newly registered
    policy documents itself everywhere at once.
    """
    return {
        name: ((cls.__doc__ or "").strip().splitlines()
               or ["(undocumented)"])[0].rstrip(".")
        for name, cls in sorted(_POLICIES.items())
    }


def policy_help() -> str:
    """Human-readable choice list for CLI ``--spill-policy`` help."""
    return "; ".join(f"'{name}': {summary}"
                     for name, summary in policy_summaries().items())


def create_policy(name: str) -> SpillPolicy:
    """Instantiate a policy by registry name."""
    if name not in _POLICIES:
        raise ValidationError(
            f"unknown spill policy {name!r}; choose from {policy_names()}")
    return _POLICIES[name]()


# ----------------------------------------------------------------------
@register_policy
class CostAwarePolicy(SpillPolicy):
    """Cheapest expected reload penalty per byte freed goes first."""

    name = "cost"

    def key(self, victim: VictimInfo) -> tuple:
        if victim.size <= 0:
            # demoting a zero-size entry frees nothing: rank it last so
            # _make_room never burns migrations on it before reaching
            # victims that actually free bytes
            return (math.inf,)
        return (victim.consumers_left * victim.reload_cost / victim.size,)


@register_policy
class LruPolicy(SpillPolicy):
    """Oldest logical access goes first."""

    name = "lru"

    def key(self, victim: VictimInfo) -> tuple:
        return (victim.last_access,)


@register_policy
class LargestFirstPolicy(SpillPolicy):
    """Biggest entry goes first (fewest migrations to free the space)."""

    name = "largest"

    def key(self, victim: VictimInfo) -> tuple:
        return (-victim.size,)
