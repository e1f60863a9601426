import numpy as np
import pytest

from emgrip.calibration import (
    DEFAULT_CALIBRATION,
    MinMaxScaler,
    calibrate_dynamometer,
    prepare_grip,
    zero_offset,
)
from emgrip.errors import DataError, NumericError
from emgrip.processing import TimestampedSeries


class TestCalibrationPolynomial:
    def test_zero_maps_to_zero(self):
        assert calibrate_dynamometer(0.0) == 0.0

    def test_coefficients(self):
        assert DEFAULT_CALIBRATION.coefficients == (
            1.0629,
            -2.5880e-4,
            -9.0028e-8,
            7.6152e-10,
        )

    def test_value_at_100(self):
        # direct polynomial evaluation oracle
        c1, c2, c3, c4 = DEFAULT_CALIBRATION.coefficients
        want = c1 * 100 + c2 * 100**2 + c3 * 100**3 + c4 * 100**4
        assert calibrate_dynamometer(100.0) == pytest.approx(want, abs=1e-12)
        assert calibrate_dynamometer(100.0) == pytest.approx(103.688124, abs=1e-6)

    def test_monotone_on_working_range(self):
        grid = np.arange(0.0, 550.0 + 1, 1.0)
        assert np.all(DEFAULT_CALIBRATION.derivative(grid) > 0)

    def test_vectorised(self):
        g = np.array([0.0, 50.0, 100.0])
        out = calibrate_dynamometer(g)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(103.688124, abs=1e-6)


class TestZeroOffset:
    def test_constant_series_zeroed(self):
        t = np.arange(0, 12, 0.1)
        s = zero_offset(TimestampedSeries(t, np.full(t.size, 3.3)))
        assert np.abs(s.values).max() < 1e-12

    def test_mean_subtraction(self):
        t = np.arange(0, 20, 0.05)
        v = np.where(t < 5.0, 2.0, 7.0)
        s = zero_offset(TimestampedSeries(t, v))
        head = s.values[t < 5.0]
        assert np.abs(head).max() < 1e-12

    def test_ramp_offset_removed(self):
        t = np.arange(0, 30, 0.01)
        v = 3.7 + np.where(t < 5.0, 0.0, 0.2 * (t - 5.0))
        s = zero_offset(TimestampedSeries(t, v))
        assert abs(s.values[0]) < 1e-12
        assert abs(s.values[t < 5.0].mean()) < 1e-12

    def test_idempotent_after_zeroing(self):
        t = np.arange(0, 10, 0.02)
        v = 1.5 + np.sin(t)
        once = zero_offset(TimestampedSeries(t, v))
        twice = zero_offset(once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    def test_short_recording_rejected(self):
        t = np.arange(0, 3, 0.1)
        with pytest.raises(DataError):
            zero_offset(TimestampedSeries(t, np.zeros(t.size)))


class TestMinMaxScaler:
    def test_basic_apply(self):
        s = MinMaxScaler.fit([0.0, 10.0])
        assert s.apply(5.0) == pytest.approx(0.5)

    def test_invert_apply_identity(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(-3, 9, 100)
        s = MinMaxScaler.fit(data)
        x = rng.uniform(-10, 20, 50)
        assert np.abs(s.invert(s.apply(x)) - x).max() < 1e-12

    def test_no_clamping(self):
        s = MinMaxScaler.fit([0.0, 10.0])
        assert s.apply(12.0) == pytest.approx(1.2)
        assert s.apply(-2.0) == pytest.approx(-0.2)

    def test_degenerate_rejected(self):
        with pytest.raises(NumericError):
            MinMaxScaler.fit(np.full(5, 2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        values = np.linspace(0.0, 10.0, 20)
        values[7] = bad
        with pytest.raises(NumericError, match="non-finite"):
            MinMaxScaler.fit(values)


def test_prepare_grip_zeroes_then_calibrates():
    t = np.arange(0, 20, 0.05)
    raw = 10.0 + np.where(t < 5.0, 0.0, 100.0)
    out = prepare_grip(TimestampedSeries(t, raw))
    # rest segment maps through the zero of the polynomial
    assert np.abs(out.values[t < 5.0]).max() < 1e-9
    assert out.values[-1] == pytest.approx(calibrate_dynamometer(100.0), abs=1e-9)
