"""The device cost model and output-size estimation.

S/C's optimization consumes per-node observations from past refresh runs
(paper §III-A): output table sizes and the timings from which speedup scores
are derived. :class:`~repro.metadata.costmodel.DeviceProfile` turns sizes
into read/write/compute times using calibrated bandwidths (defaults match
the paper's testbed, §VI-A); :class:`~repro.metadata.estimator.
OperatorSizeEstimator` derives a generated node's output size from its
inputs.
"""

from repro.metadata.costmodel import ClusterProfile, DeviceProfile
from repro.metadata.estimator import OperatorSizeEstimator

__all__ = [
    "DeviceProfile",
    "ClusterProfile",
    "OperatorSizeEstimator",
]
