"""Batched EMG conditioning: spectral masking, rectification, envelope smoothing.

The chain turns a raw EMG batch into a smooth non-negative envelope that
tracks exerted grip force:

    FFT -> per-bin gain mask -> inverse FFT -> |.| -> windowed exponential MA

Smoothing is the only stage with cross-batch state: the first (window - 1)
output samples of a batch draw on the tail of the previous batch's
rectified-masked signal.  Alignment utilities (linear resampling, lagged
peak cross-correlation) live here as well because they operate on the same
streams.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError

NOMINAL_EMG_FS = 992.97
DEFAULT_BATCH_SIZE = 496
GRIP_FS = 200.0
# half-width of the lag search window for peak cross-correlation
DEFAULT_MAX_LAG_S = 0.160


@dataclass(frozen=True)
class SpectralMask:
    """Per-frequency-bin gain vector applied between forward and inverse FFT.

    ``gains[k]`` multiplies the bin centred at ``k * bin_resolution`` Hz;
    entry 0 is the DC bin.  Length must equal ``batch_size // 2 + 1`` of the
    batches it is applied to.
    """

    gains: np.ndarray
    bin_resolution: float = NOMINAL_EMG_FS / DEFAULT_BATCH_SIZE

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", gains)
        if gains.ndim != 1 or gains.size < 2:
            raise ConfigError("mask needs a 1-d gain vector with >= 2 bins")
        if gains.min() < 0:
            raise ConfigError("mask gains must be non-negative")
        if not self.bin_resolution > 0:
            raise ConfigError("bin resolution must be positive")

    def __len__(self) -> int:
        return self.gains.size

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.gains.size) * self.bin_resolution

    def for_batch(self, n_samples: int, fs: float) -> "SpectralMask":
        """Gain vector interpolated onto the bin grid of an ``n_samples`` batch.

        Used for the trailing short batch of a recording, which is
        transformed at its natural length and therefore has coarser bins.
        """
        n_bins = n_samples // 2 + 1
        if n_bins == self.gains.size:
            return self
        new_freqs = np.arange(n_bins) * (fs / n_samples)
        gains = np.interp(new_freqs, self.frequencies, self.gains)
        return SpectralMask(gains, fs / n_samples)


@dataclass(frozen=True)
class SmoothingParams:
    """Windowed exponential moving-average configuration.

    ``decay`` = 0 reduces to a simple trailing mean over ``window_size``
    samples; larger values weight recent samples more heavily.
    """

    window_size: int = 300
    decay: float = 0.0

    def __post_init__(self):
        if int(self.window_size) != self.window_size or self.window_size < 2:
            raise ConfigError("window size must be an integer >= 2")
        object.__setattr__(self, "window_size", int(self.window_size))
        if not 0.0 <= self.decay < 1.0:
            raise ConfigError("decay must lie in [0, 1)")

    def weights(self) -> np.ndarray:
        """Unnormalised lag weights, most recent sample first."""
        return (1.0 - self.decay) ** np.arange(self.window_size)


@dataclass(frozen=True)
class TimestampedSeries:
    """Paired (time, value) arrays with strictly increasing times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise DataError("times and values must be 1-d arrays of equal length")
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise DataError("times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0]) if len(self) else 0.0

    @property
    def rate(self) -> float:
        """Mean sampling rate in Hz."""
        if len(self) < 2:
            raise DataError("rate needs at least 2 samples")
        return (len(self) - 1) / self.span


def apply_spectral_mask(x: np.ndarray, mask: SpectralMask) -> np.ndarray:
    """Multiply the batch spectrum bin-wise by the mask gains.

    ``x`` is one batch or a ``(..., n)`` stack of batches, each transformed
    along the last axis; every row comes out bit-identical to masking it
    alone.  Returns the real signal obtained by inverse FFT, shaped like
    ``x``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    n_bins = n // 2 + 1
    if len(mask) != n_bins:
        raise ConfigError(
            f"mask has {len(mask)} bins but a {n}-sample batch needs {n_bins}"
        )
    return np.fft.irfft(np.fft.rfft(x) * mask.gains, n=n)


def smooth_ema(x: np.ndarray, prev_tail: np.ndarray, params: SmoothingParams) -> np.ndarray:
    """Windowed exponential moving average with carry-over from ``prev_tail``.

    Output sample i averages the trailing ``window_size`` samples with
    weights (1 - decay)**k (k = 0 for the current sample), normalised to
    sum to one.  Samples before the start of the batch are read from
    ``prev_tail`` (zeros for the first batch of a recording).
    """
    w = params.weights()
    tail = np.asarray(prev_tail, dtype=float)
    need = params.window_size - 1
    if tail.size < need:
        raise DataError(
            f"previous tail has {tail.size} samples, window {params.window_size} needs {need}"
        )
    ext = np.concatenate([tail[tail.size - need :], np.asarray(x, dtype=float)])
    return np.convolve(ext, w, mode="valid") / w.sum()


def process_batch(
    x: np.ndarray,
    mask: SpectralMask,
    params: SmoothingParams,
    prev_tail: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run mask -> rectify -> smooth on one batch.

    Returns the non-negative envelope together with the new tail (the last
    ``window_size - 1`` rectified-masked samples) to carry into the next
    batch.
    """
    rectified = np.abs(apply_spectral_mask(x, mask))
    smoothed = smooth_ema(rectified, prev_tail, params)
    tail_src = np.concatenate([np.asarray(prev_tail, dtype=float), rectified])
    return smoothed, tail_src[tail_src.size - (params.window_size - 1) :]


def envelope_batches(
    emg: TimestampedSeries,
    mask: SpectralMask,
    params: SmoothingParams,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[np.ndarray]:
    """Yield the envelope of each ``batch_size`` batch of ``emg`` in order.

    The smoothing tail is carried from batch to batch.  The trailing short
    batch is transformed at its natural length; a 1-sample remainder is
    dropped.
    """
    x = emg.values
    fs = emg.rate
    tail = np.zeros(params.window_size - 1)
    # every start leaves at least 2 samples, so a 1-sample remainder is dropped
    for start in range(0, x.size - 1, batch_size):
        chunk = x[start : start + batch_size]
        out, tail = process_batch(chunk, mask.for_batch(chunk.size, fs), params, tail)
        yield out


def process_recording(
    emg: TimestampedSeries,
    mask: SpectralMask,
    params: SmoothingParams,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> np.ndarray:
    """Envelope of a whole recording, bit-identical to the concatenated
    ``envelope_batches``.

    Aligned with ``emg.times`` minus any dropped 1-sample remainder.  It runs
    batch-major: one ``apply_spectral_mask`` call masks every full batch on
    the ``(n_batches, batch_size)`` reshape and another the trailing short
    batch at its natural length, then the rectified signal is smoothed in
    one pass from a zero tail.  The bits match the stream's because the FFT
    runs the same transform on each row as on a lone batch, and each
    smoothed sample is the same dot product over the same window: the tail
    the stream carries is exactly the preceding slice of that signal.
    """
    x = emg.values
    fs = emg.rate
    n_full = x.size // batch_size
    split = n_full * batch_size
    full = x[:split].reshape(n_full, batch_size)
    masked = [apply_spectral_mask(full, mask.for_batch(batch_size, fs)).ravel()]
    # a short final batch keeps its natural length; a 1-sample remainder is dropped
    if x.size - split >= 2:
        masked.append(apply_spectral_mask(x[split:], mask.for_batch(x.size - split, fs)))
    rectified = np.abs(np.concatenate(masked))
    return smooth_ema(rectified, np.zeros(params.window_size - 1), params)


def default_optimal_mask(
    batch_size: int = DEFAULT_BATCH_SIZE, fs: float = NOMINAL_EMG_FS
) -> SpectralMask:
    """Built-in grip-force mask for ~0.5 s batches of forearm EMG.

    Gain profile over the bin's nominal frequency (bins labelled on the
    2 Hz grid of the default batch length): DC and 2 Hz removed, linear
    rise to unity at 18 Hz, an inverted-U boost peaking at 1.5 over
    32-42 Hz, mains at 50 Hz held at 0.375, a linear 0.5 -> 4.5 ramp from
    52 to 110 Hz, a 4.375 plateau up to 202 Hz, and zero from 204 Hz up.
    """
    if batch_size % 2:
        raise ConfigError("batch size must be even")
    res = fs / batch_size
    f = np.arange(batch_size // 2 + 1) * res
    lab = 2.0 * np.round(f / 2.0)
    gains = np.zeros_like(f)

    ramp_lo = (lab > 2.0) & (lab <= 18.0)
    gains[ramp_lo] = (lab[ramp_lo] - 2.0) / 16.0
    bump = (lab >= 20.0) & (lab <= 48.0)
    gains[bump] = np.interp(lab[bump], [20.0, 32.0, 42.0, 48.0], [0.25, 1.5, 1.5, 0.25])
    gains[lab == 50.0] = 0.375
    ramp_mid = (lab >= 52.0) & (lab <= 110.0)
    gains[ramp_mid] = 0.5 + (lab[ramp_mid] - 52.0) * (4.0 / 58.0)
    gains[(lab > 110.0) & (lab <= 202.0)] = 4.375
    gains[lab >= 204.0] = 0.0
    return SpectralMask(gains, res)


def resample_linear(series: TimestampedSeries, target_times: np.ndarray) -> TimestampedSeries:
    """Piecewise-linear interpolation of the series at ``target_times``.

    Target times outside the source span are clamped to the end values.
    """
    if len(series) < 2:
        raise DataError("resampling needs at least 2 source points")
    target_times = np.asarray(target_times, dtype=float)
    values = np.interp(target_times, series.times, series.values)
    return TimestampedSeries(target_times, values)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth length (2**i * 3**j * 5**k) >= ``n``: the sizes the
    FFT factors fastest, and the length ``scipy.fft.next_fast_len(n,
    real=True)`` picks."""
    best = 1 << (n - 1).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that is >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _window_sums(v: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of ``v`` over its prefixes and over its suffixes of every length
    from ``n - max_lag`` to ``n``; entry ``j`` covers ``n - max_lag + j``
    samples."""
    n = v.size
    prefix = np.cumsum(np.concatenate(([v[: n - max_lag].sum()], v[n - max_lag :])))
    suffix = np.cumsum(np.concatenate(([v[max_lag:].sum()], v[:max_lag][::-1])))
    return prefix, suffix


def peak_cross_correlation(
    a: np.ndarray, b: np.ndarray, max_lag_samples: int
) -> tuple[float, int]:
    """Maximum lagged Pearson correlation between two aligned series.

    Lag ``l`` pairs ``a[i]`` with ``b[i + l]``, so a positive lag means
    ``b`` is delayed relative to ``a``.  Each lag's correlation is computed
    over the overlapping window only, mean-centred and variance-normalised
    on that window.  Returns (peak, lag) for the (signed) maximum; a tie
    goes to the most negative lag.

    Method: both series are mean-centred over their whole length, and the
    lagged cross sums ``sum(a[i] * b[i + l])`` for every lag come from one
    numpy ``rfft``/``irfft`` pair zero-padded to ``_fast_len(n + max_lag)``
    (enough to keep the circular product free of wrap-around).  Every
    overlap window is a prefix of one series and a suffix of the other, so
    its sums and sums of squares come from cumulative sums, and
    ``r = (Sxy - Sx*Sy/m) / sqrt((Sxx - Sx**2/m) * (Syy - Sy**2/m))``.
    A lag is skipped when its window has fewer than 2 samples, or when
    either window variance is at or below round-off (``m * eps`` of the
    window's sum of squares), that is, zero.  A non-finite sample anywhere
    raises ``NumericError``, since the FFT spreads it to every lag.  The
    FFT's round-off is relative to the whole series, so windows of a few
    samples carry more of it (up to ~1e-11 in ``r`` at 2 samples), and ties
    among them may fall to another lag than in a lag-by-lag scan.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    if b.size != n or n < 2:
        raise DataError("series must have equal length >= 2")
    max_lag = int(max_lag_samples)
    if max_lag < 0 or max_lag >= n:
        raise ConfigError("max lag must satisfy 0 <= lag < length")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise NumericError("constant input: correlation undefined")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("non-finite input: correlation undefined")

    a = a - a.mean()
    b = b - b.mean()
    nfft = _fast_len(n + max_lag)
    cross = np.fft.irfft(np.conj(np.fft.rfft(a, nfft)) * np.fft.rfft(b, nfft), nfft)
    sxy = np.concatenate((cross[nfft - max_lag :], cross[: max_lag + 1]))

    lags = np.arange(-max_lag, max_lag + 1)
    j = max_lag - np.abs(lags)
    m = n - np.abs(lags)
    ahead = lags >= 0  # a's window is a prefix and b's a suffix
    a_pre, a_suf = _window_sums(a, max_lag)
    b_pre, b_suf = _window_sums(b, max_lag)
    a2_pre, a2_suf = _window_sums(a * a, max_lag)
    b2_pre, b2_suf = _window_sums(b * b, max_lag)
    sx = np.where(ahead, a_pre[j], a_suf[j])
    sy = np.where(ahead, b_suf[j], b_pre[j])
    sxx = np.where(ahead, a2_pre[j], a2_suf[j])
    syy = np.where(ahead, b2_suf[j], b2_pre[j])

    vx = sxx - sx * sx / m
    vy = syy - sy * sy / m
    roundoff = m * np.finfo(float).eps
    defined = (m >= 2) & (vx > roundoff * sxx) & (vy > roundoff * syy)
    r = np.full(lags.size, -np.inf)
    r[defined] = (sxy - sx * sy / m)[defined] / np.sqrt(vx[defined] * vy[defined])
    k = int(np.argmax(r))
    if not np.isfinite(r[k]):
        raise NumericError("no lag produced a defined correlation")
    return float(r[k]), int(lags[k])
