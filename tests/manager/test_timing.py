"""Unit tests for the processing-time model (Fig. 4 inputs)."""

import pytest

from repro.manager.timing import (
    ALGORITHMS,
    PARALLEL,
    SERIAL_DEVICE,
    SERIAL_PACKET,
    ProcessingTimeModel,
)


@pytest.fixture
def model():
    return ProcessingTimeModel()


class TestDefaults:
    def test_fig4_ordering(self, model):
        """Serial Packet > Serial Device > Parallel at every size."""
        for size in (0, 18, 128, 200):
            sp = model.fm_time(SERIAL_PACKET, size)
            sd = model.fm_time(SERIAL_DEVICE, size)
            pa = model.fm_time(PARALLEL, size)
            assert sp > sd > pa

    def test_fig4_magnitude(self, model):
        """Times are in the 10-25 microsecond band Fig. 4 reports."""
        for algo in ALGORITHMS:
            for size in (9, 100):
                t = model.fm_time(algo, size)
                assert 5e-6 < t < 30e-6

    def test_grows_with_network_size(self, model):
        assert model.fm_time(PARALLEL, 200) > model.fm_time(PARALLEL, 9)

    def test_device_time_is_low_and_constant(self, model):
        t = model.device_processing_time()
        assert 0 < t < 10e-6  # "low"


class TestFactors:
    def test_fm_factor_is_speed_multiplier(self, model):
        fast = ProcessingTimeModel(fm_factor=4)
        assert fast.fm_time(PARALLEL, 10) == pytest.approx(
            model.fm_time(PARALLEL, 10) / 4
        )

    def test_device_factor_is_speed_multiplier(self, model):
        slow = ProcessingTimeModel(device_factor=0.2)
        assert slow.device_processing_time() == pytest.approx(
            model.device_processing_time() * 5
        )

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            ProcessingTimeModel(fm_factor=0)
        with pytest.raises(ValueError):
            ProcessingTimeModel(device_factor=-1)


class TestValidation:
    def test_unknown_algorithm_rejected(self, model):
        with pytest.raises(ValueError, match="unknown algorithm"):
            model.fm_time("quantum", 10)

    def test_missing_algorithm_base_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ProcessingTimeModel(fm_base={PARALLEL: 1e-6})

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError):
            ProcessingTimeModel(device_time=0)
        with pytest.raises(ValueError):
            ProcessingTimeModel(fm_slope=-1e-9)
