"""First-order Markov chain over node operations.

The paper's workload generator assigns each generated node an operation
(JOIN, AGG, ...) drawn from "a Markov chain trained on the same query set"
(TPC-DS and Spider). This is that chain: states are operation names, and
training sequences are per-query operator chains from root scan to final
output. Laplace smoothing keeps unseen transitions possible.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Iterable, Sequence

from repro.errors import ValidationError

START = "<START>"
END = "<END>"


class MarkovChain:
    """Categorical first-order Markov chain with add-``alpha`` smoothing."""

    def __init__(self, alpha: float = 0.5):
        if alpha < 0:
            raise ValidationError("smoothing alpha must be >= 0")
        self.alpha = alpha
        self._transitions: dict[str, Counter] = defaultdict(Counter)
        self._states: set[str] = set()
        # state -> its smoothed table, built on first read after a fit
        self._tables: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    def fit(self, sequences: Iterable[Sequence[str]]) -> "MarkovChain":
        """Count transitions from operation sequences (one per query)."""
        self._tables.clear()
        any_seq = False
        for seq in sequences:
            if not seq:
                continue
            any_seq = True
            previous = START
            for state in seq:
                self._transitions[previous][state] += 1
                self._states.add(state)
                previous = state
            self._transitions[previous][END] += 1
        if not any_seq:
            raise ValidationError("fit requires at least one non-empty "
                                  "sequence")
        return self

    @property
    def states(self) -> list[str]:
        return sorted(self._states)

    def transition_probabilities(self, state: str) -> dict[str, float]:
        """Smoothed P(next | state) over observed states plus END.

        Each state's table is computed once per fit; the caller gets a
        copy it may change.
        """
        table = self._tables.get(state)
        if table is None:
            if not self._states:
                raise ValidationError("chain has not been fitted")
            counts = self._transitions.get(state, Counter())
            support = self.states + [END]
            total = sum(counts.values()) + self.alpha * len(support)
            table = {s: (counts.get(s, 0) + self.alpha) / total
                     for s in support}
            self._tables[state] = table
        return dict(table)

    def sample_next(self, state: str, rng: random.Random) -> str:
        probs = self.transition_probabilities(state)
        roll = rng.random()
        cumulative = 0.0
        for candidate, p in probs.items():
            cumulative += p
            if roll < cumulative:
                return candidate
        return END  # floating-point slack lands on the final state

    def sample_operation(self, previous: str | None,
                         rng: random.Random) -> str:
        """Sample one operation following ``previous`` (or START).

        Unlike :meth:`sample_next` this never returns END — the DAG
        generator decides structure; the chain only labels nodes.
        """
        state = previous if previous is not None else START
        probs = self.transition_probabilities(state)
        probs.pop(END, None)
        total = sum(probs.values())
        roll = rng.random() * total
        cumulative = 0.0
        for candidate, p in probs.items():
            cumulative += p
            if roll < cumulative:
                return candidate
        return next(iter(probs))  # non-empty: states exist after fit
