"""Storage device model: foreground I/O plus a background write channel.

The simulator charges foreground reads/writes to the executing node's
timeline. Background materializations (flagged outputs draining to storage)
run on a single serialized background channel — matching one NFS mount —
and inflate concurrently-running foreground disk operations by the device's
``background_interference`` factor (paper §IV assumes this interference is
minimal; it is configurable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.metadata.costmodel import DeviceProfile


@dataclass
class StorageDevice:
    """Time accounting for one storage device.

    The device does not advance a clock of its own; the simulator passes the
    current time into each call and receives durations/completion times
    back. ``busy_until`` tracks the background channel.
    """

    profile: DeviceProfile
    busy_until: float = 0.0

    # ------------------------------------------------------------------
    def _interference(self, now: float) -> float:
        """Slowdown multiplier when a background write is in flight."""
        if now < self.busy_until:
            return 1.0 + self.profile.background_interference
        return 1.0

    def read_duration(self, size: float, now: float) -> float:
        """Foreground read of a persisted table."""
        if size < 0:
            raise ValidationError("read size must be >= 0")
        return self.profile.read_time_disk(size) * self._interference(now)

    def write_duration(self, size: float, now: float) -> float:
        """Foreground (blocking) materialization."""
        if size < 0:
            raise ValidationError("write size must be >= 0")
        return self.profile.write_time_disk(size) * self._interference(now)

    def submit_background_write(self, size: float, now: float) -> float:
        """Queue a background materialization; returns its completion time.

        Jobs serialize on the background channel: a job starts at
        ``max(now, busy_until)``.
        """
        if size < 0:
            raise ValidationError("write size must be >= 0")
        end = (max(now, self.busy_until)
               + self.profile.background_write_time(size))
        self.busy_until = end
        return end

    # ------------------------------------------------------------------
    def drained_at(self) -> float:
        """Time at which every queued background write has completed."""
        return self.busy_until
