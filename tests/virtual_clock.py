"""A virtual-time asyncio event loop for deterministic service runs.

:class:`VirtualClockLoop` is a ``SelectorEventLoop`` whose ``time()``
starts at 0 and jumps straight to the next timer's deadline whenever
nothing is ready to run, instead of sleeping until it — so a
``RefreshService`` run takes no wall time, its clock reads exactly the
modeled seconds it waits for, and its result does not depend on host
speed.  Real I/O still works: the selector is polled (without blocking)
before every jump, and with no timer left it blocks as usual.

It relies on ``BaseEventLoop._scheduled`` (the timer heap, whose head
the loop has cleared of cancelled handles before it selects), as on
Python 3.11–3.12.  Run a coroutine on it with :func:`run_virtual`.
"""

from __future__ import annotations

import asyncio
import selectors


class _JumpingSelector(selectors.DefaultSelector):
    """Polls real I/O; when there is none and the loop would wait for
    its next timer, moves the loop's clock to that timer instead."""

    def __init__(self, loop: "VirtualClockLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        events = super().select(0)
        if events or timeout == 0:
            return events
        scheduled = self._loop._scheduled
        if not scheduled:
            return super().select(timeout)  # only I/O can wake us
        self._loop.now = max(self._loop.now, scheduled[0].when())
        return []


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """Event loop on virtual time (see module docs)."""

    def __init__(self) -> None:
        self.now = 0.0
        super().__init__(_JumpingSelector(self))

    def time(self) -> float:
        return self.now


def run_virtual(coroutine):
    """``asyncio.run`` on a fresh :class:`VirtualClockLoop`."""
    loop = VirtualClockLoop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
