"""Runtime lock-order assertion: the dynamic cross-check for REP003.

repro-lint's REP003 proves each ledger write happens under *its own*
``self._lock``; it says nothing about the order different locks nest
in.  The tiered ledger holds its RAM lock while charging per-tier
ledgers during demotions — safe as long as every thread nests the
locks in one consistent direction.  This module records the directions
actually taken and detects inversions:

* :class:`TrackedRLock` wraps an ``RLock``; every acquire while other
  tracked locks are held records a ``held -> acquired`` edge in a
  shared :class:`LockOrderRegistry` (re-entrant re-acquires record no
  self-edge);
* :meth:`LockOrderRegistry.assert_acyclic` runs a DFS over the
  accumulated edge graph and raises :class:`LockOrderError` naming the
  cycle when two threads ever nested the same pair of locks in
  opposite orders — the classic ABBA deadlock shape, caught even when
  the interleaving never actually deadlocked.

The fuzz harness (``tests/test_invariants_random.py``) wires this into
its ``CheckedLedger`` so every randomized scenario also audits lock
ordering.  The registry is cheap (one dict update per nested acquire)
but not free — production ledgers keep plain ``RLock``s (or, on one
thread, :class:`~repro.exec.ledger.NoLock`, which it wraps just as
well).
"""

from __future__ import annotations

import threading


class LockOrderError(RuntimeError):
    """Two tracked locks were nested in opposite orders."""


class LockOrderRegistry:
    """Accumulates observed ``held -> acquired`` edges across threads."""

    def __init__(self) -> None:
        # internal guard; deliberately a plain untracked Lock
        self._guard = threading.Lock()
        self._edges: dict[tuple[str, str], int] = {}
        self._local = threading.local()

    def _held(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note_acquire(self, name: str) -> None:
        stack = self._held()
        with self._guard:
            for held in set(stack):
                if held != name:
                    edge = (held, name)
                    self._edges[edge] = self._edges.get(edge, 0) + 1
        stack.append(name)

    def note_release(self, name: str) -> None:
        stack = self._held()
        # release the innermost occurrence (re-entrant locks release
        # in LIFO order, but be tolerant of wrapper-level reordering)
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def edges(self) -> dict[tuple[str, str], int]:
        with self._guard:
            return dict(self._edges)

    def assert_acyclic(self) -> None:
        """Raise :class:`LockOrderError` if the observed nesting graph
        has a cycle (some pair of locks nested both ways)."""
        graph: dict[str, set[str]] = {}
        for (src, dst) in self.edges():
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        WHITE, GREY, BLACK = 0, 1, 2
        color = {node: WHITE for node in graph}
        path: list[str] = []

        def visit(node: str) -> list[str] | None:
            color[node] = GREY
            path.append(node)
            for succ in sorted(graph[node]):
                if color[succ] == GREY:
                    return path[path.index(succ):] + [succ]
                if color[succ] == WHITE:
                    cycle = visit(succ)
                    if cycle is not None:
                        return cycle
            color[node] = BLACK
            path.pop()
            return None

        for node in sorted(graph):
            if color[node] == WHITE:
                cycle = visit(node)
                if cycle is not None:
                    raise LockOrderError(
                        "inconsistent lock acquisition order: "
                        + " -> ".join(cycle))


class TrackedRLock:
    """Drop-in ``RLock`` wrapper that reports to a registry.

    Wraps an existing lock (so a live ledger can be retrofitted) or
    creates its own.  Supports the context-manager protocol and
    ``acquire``/``release`` with the standard signatures.
    """

    def __init__(self, name: str, registry: LockOrderRegistry,
                 lock=None) -> None:
        self.name = name
        self.registry = registry
        self._lock = lock if lock is not None else threading.RLock()

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self.registry.note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self.registry.note_release(self.name)
        self._lock.release()

    def __enter__(self) -> "TrackedRLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
