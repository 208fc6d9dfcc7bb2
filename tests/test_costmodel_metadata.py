"""Tests for the device cost model and the output-size estimator."""

import pytest

from repro.errors import ValidationError
from repro.graph.dag import DependencyGraph
from repro.metadata.costmodel import (
    ClusterProfile,
    DeviceProfile,
    POLARS_PROFILE,
)
from repro.metadata.estimator import OperatorSizeEstimator


class TestDeviceProfile:
    def test_defaults_match_paper_environment(self):
        profile = DeviceProfile()
        # §VI-A: 519.8 MB/s read, 358.9 MB/s write, 175 us latency
        assert profile.disk_read_bandwidth == pytest.approx(519.8 / 1024)
        assert profile.disk_write_bandwidth == pytest.approx(358.9 / 1024)
        assert profile.read_latency == pytest.approx(175e-6)

    def test_time_functions(self):
        profile = DeviceProfile()
        expected_read_bw = 1.0 / (1.0 / profile.disk_read_bandwidth
                                  + 1.0 / profile.decode_rate)
        assert profile.read_time_disk(1.0) == pytest.approx(
            175e-6 + 1.0 / expected_read_bw)
        assert profile.read_time_memory(1.0) < profile.read_time_disk(1.0)
        assert profile.write_time_disk(1.0) > profile.read_time_disk(1.0)

    def test_codec_pipeline(self):
        raw = DeviceProfile(decode_rate=float("inf"),
                            encode_rate=float("inf"))
        assert raw.effective_read_bandwidth == pytest.approx(
            raw.disk_read_bandwidth)
        assert raw.effective_write_bandwidth == pytest.approx(
            raw.disk_write_bandwidth)
        # the codec stage can only slow the pipeline down
        coded = DeviceProfile()
        assert coded.effective_read_bandwidth < coded.disk_read_bandwidth
        assert coded.effective_write_bandwidth < coded.disk_write_bandwidth

    def test_background_write_skips_encode(self):
        profile = DeviceProfile()
        # background drain pays raw device bandwidth only, so it is faster
        # than the blocking encode+transfer path
        assert profile.background_write_time(1.0) < \
            profile.write_time_disk(1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            DeviceProfile(disk_read_bandwidth=0.0)
        with pytest.raises(ValidationError):
            DeviceProfile(read_latency=-1.0)
        with pytest.raises(ValidationError):
            DeviceProfile(background_interference=1.0)
        with pytest.raises(ValidationError):
            DeviceProfile(background_parallelism=0.0)

    def test_scaled(self):
        profile = DeviceProfile()
        doubled = profile.scaled(2.0)
        assert doubled.disk_read_bandwidth == pytest.approx(
            2 * profile.disk_read_bandwidth)
        assert doubled.read_latency == profile.read_latency
        with pytest.raises(ValidationError):
            profile.scaled(0.0)

    def test_polars_profile_is_faster(self):
        assert POLARS_PROFILE.disk_read_bandwidth > \
            DeviceProfile().disk_read_bandwidth


class TestClusterProfile:
    def test_amdahl_speedup(self):
        single = ClusterProfile(worker_count=1)
        assert single.speedup_factor == pytest.approx(1.0)
        five = ClusterProfile(worker_count=5, serial_fraction=0.12)
        assert 1.0 < five.speedup_factor < 5.0

    def test_sublinear(self):
        factors = [ClusterProfile(worker_count=n).speedup_factor
                   for n in (1, 2, 3, 4, 5)]
        assert factors == sorted(factors)
        gains = [b / a for a, b in zip(factors, factors[1:])]
        assert gains == sorted(gains, reverse=True)  # diminishing returns

    def test_validation(self):
        with pytest.raises(ValidationError):
            ClusterProfile(worker_count=0)
        with pytest.raises(ValidationError):
            ClusterProfile(serial_fraction=1.0)


class TestOperatorSizeEstimator:
    def test_ranges_respected(self):
        import random

        estimator = OperatorSizeEstimator()
        rng = random.Random(0)
        for _ in range(50):
            agg = estimator.estimate("AGG", [10.0], rng)
            assert 0.1 <= agg <= 2.0
            join = estimator.estimate("JOIN", [10.0, 2.0], rng)
            assert 2.0 <= join <= 12.0

    def test_union_sums_inputs(self):
        import random

        estimator = OperatorSizeEstimator()
        assert estimator.estimate("UNION", [1.0, 2.0, 3.0],
                                  random.Random(0)) == pytest.approx(6.0)

    def test_empty_inputs_rejected(self):
        import random

        with pytest.raises(ValidationError):
            OperatorSizeEstimator().estimate("JOIN", [], random.Random(0))

    def test_bad_range_rejected(self):
        with pytest.raises(ValidationError):
            OperatorSizeEstimator(selectivity={"X": (0.5, 0.2)})
