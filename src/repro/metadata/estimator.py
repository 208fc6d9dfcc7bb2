"""Operator-aware output-size estimation.

The paper's workload generator derives each generated node's size "from its
inputs" according to the node's operation. This estimator encodes those
rules with per-operation selectivity ranges; given a seeded RNG, estimates
are deterministic, which the generator relies on for reproducible DAGs.

The same rules double as a crude cardinality estimator for the MiniDB
planner when no table statistics exist yet.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ValidationError

#: (low, high) multiplier applied to the dominant input size, per operation.
DEFAULT_SELECTIVITY: dict[str, tuple[float, float]] = {
    "SCAN": (0.9, 1.0),
    "FILTER": (0.10, 0.60),
    "PROJECT": (0.30, 0.80),
    "JOIN": (0.20, 1.20),
    "AGG": (0.01, 0.20),
    "UNION": (1.0, 1.0),   # applied to the *sum* of inputs
    "SORT": (1.0, 1.0),
    "LIMIT": (0.001, 0.01),
    "WINDOW": (0.8, 1.1),
}

#: Multiplier range of an operation the selectivity table does not name.
UNKNOWN_OP_RANGE: tuple[float, float] = (0.3, 1.0)

#: Floor so deeply nested MVs never vanish entirely (the paper notes
#: nested MVs shrink from repeated filters/projections but remain
#: materialized).
MIN_SIZE = 1e-4


@dataclass
class OperatorSizeEstimator:
    """Samples an output size for ``(op, input_sizes)``.

    Attributes:
        selectivity: per-op multiplier ranges; unknown ops fall back to
            :data:`UNKNOWN_OP_RANGE`.  No estimate is below
            :data:`MIN_SIZE`.
    """

    selectivity: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_SELECTIVITY))

    def __post_init__(self) -> None:
        for op, (low, high) in self.selectivity.items():
            if low < 0 or high < low:
                raise ValidationError(
                    f"bad selectivity range for {op}: ({low}, {high})")

    def estimate(self, op: str, input_sizes: Sequence[float],
                 rng: random.Random) -> float:
        """Sampled output size in the same unit as the inputs."""
        if not input_sizes:
            raise ValidationError(f"{op}: need at least one input size")
        low, high = self.selectivity.get(op.upper(), UNKNOWN_OP_RANGE)
        factor = rng.uniform(low, high)
        if op.upper() == "UNION":
            base = sum(input_sizes)
        else:
            base = max(input_sizes)
        return max(MIN_SIZE, base * factor)
