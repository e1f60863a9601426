"""Dynamometer calibration, session zeroing, and min-max scaling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .processing import TimestampedSeries


@dataclass(frozen=True)
class CalibrationPolynomial:
    """Quartic with no constant term mapping raw dynamometer units to newtons."""

    coefficients: tuple[float, float, float, float]

    def __call__(self, raw):
        c1, c2, c3, c4 = self.coefficients
        g = np.asarray(raw, dtype=float)
        out = g * (c1 + g * (c2 + g * (c3 + g * c4)))
        return float(out) if np.isscalar(raw) else out

    def derivative(self, raw):
        c1, c2, c3, c4 = self.coefficients
        g = np.asarray(raw, dtype=float)
        out = c1 + g * (2 * c2 + g * (3 * c3 + g * 4 * c4))
        return float(out) if np.isscalar(raw) else out


# Reference hand-dynamometer calibration (raw units -> N, valid over 0-550 N).
DEFAULT_CALIBRATION = CalibrationPolynomial(
    (1.0629, -2.5880e-4, -9.0028e-8, 7.6152e-10)
)


def calibrate_dynamometer(raw, polynomial: CalibrationPolynomial = DEFAULT_CALIBRATION):
    """Convert raw dynamometer readings to newtons."""
    return polynomial(raw)


def zero_offset(series: TimestampedSeries, zero_window_s: float = 5.0) -> TimestampedSeries:
    """Subtract the mean of the first ``zero_window_s`` seconds from all values."""
    if series.span < zero_window_s:
        raise DataError(
            f"recording spans {series.span:.3f} s, zero window needs {zero_window_s} s"
        )
    head = series.values[series.times < series.times[0] + zero_window_s]
    return TimestampedSeries(series.times, series.values - head.mean())


@dataclass(frozen=True)
class MinMaxScaler:
    """Affine map sending the fitted [lo, hi] range onto [0, 1].

    ``apply`` does not clamp: out-of-range inputs map outside [0, 1].
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise NumericError("degenerate scaler: hi must exceed lo")

    @classmethod
    def fit(cls, values) -> "MinMaxScaler":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise DataError("cannot fit scaler on empty data")
        if not np.isfinite(values).all():
            raise NumericError("cannot fit scaler on non-finite data")
        return cls(float(values.min()), float(values.max()))

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)

    def invert(self, y):
        return np.asarray(y, dtype=float) * (self.hi - self.lo) + self.lo


def prepare_grip(
    series: TimestampedSeries,
    polynomial: CalibrationPolynomial = DEFAULT_CALIBRATION,
    zero_window_s: float = 5.0,
) -> TimestampedSeries:
    """Zero a raw dynamometer stream, then convert it to newtons."""
    zeroed = zero_offset(series, zero_window_s)
    return TimestampedSeries(zeroed.times, polynomial(zeroed.values))
