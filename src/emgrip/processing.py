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
from functools import cached_property

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

    @cached_property
    def _ema_plan(self) -> "_EmaPlan":
        # what smooth_ema needs of these parameters, worked out once
        return _EmaPlan.of(self)


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


# smooth_ema restarts its recursion from a direct window sum at most this
# many samples apart, and at most as far apart as keeps the r**-t factors
# it scales by between restarts within 2**_MAX_SCALE_LOG2
_RESTART_SPAN = 62
_MAX_SCALE_LOG2 = 64


@dataclass(frozen=True)
class _EmaPlan:
    """The values ``smooth_ema`` needs of a ``SmoothingParams``."""

    span: int  # restart spacing L
    leaving: float  # r**window_size, the weight a sample leaves the window with
    weights: np.ndarray  # lag weights, oldest sample first
    up: np.ndarray  # r**-t for t < span
    scale: np.ndarray  # r**t / weights.sum() for t < span

    @classmethod
    def of(cls, params: SmoothingParams) -> "_EmaPlan":
        w = params.weights()
        weights = w[::-1].copy()
        r = 1.0 - params.decay
        span = _RESTART_SPAN
        if r < 1.0:
            span = min(span, 1 + int(_MAX_SCALE_LOG2 / -np.log2(r)))
        t = np.arange(span)
        up, scale = r**-t, r**t / w.sum()
        for a in (weights, up, scale):
            a.flags.writeable = False  # shared by every call
        return cls(span, r**params.window_size, weights, up, scale)


def _smooth_stack(ext: np.ndarray, start: int, q: np.ndarray, plan: _EmaPlan):
    """Turn the recursion inputs ``q`` of outputs ``start`` to ``start +
    q.size`` into those outputs, in place, as ``q.shape[0]`` batches of
    ``q.shape[1]`` samples.

    Output ``i`` reads ``ext[i : i + w]``, and the flat ``q[i]`` holds ``d[i] =
    ext[i + w - 1] - r**w * ext[i - 1]``.  Each batch restarts from a direct
    window sum at offsets 0, L, 2L, ...; in between, the sum ``S`` follows
    ``S[i] = r * S[i-1] + d[i]``, taken in closed form as ``S[a + t] = r**t
    * (S[a] + sum over 0 < j <= t of r**-j * d[a + j])``: one cumulative sum
    along each L-sample block, the batches zero-padded to whole blocks.
    """
    k, m = q.shape
    span, w = plan.span, plan.weights.size
    blocks = -(-m // span)
    padded = q
    if m % span:
        padded = np.zeros((k, blocks * span))
        padded[:, :m] = q
    rows = padded.reshape(k * blocks, span)
    rows *= plan.up
    # the direct sums at the restarts.  np.dot of a 3-d stack takes each
    # window's dot product in a call of its own, so a window's bits do not
    # depend on how many windows one call computes.  A 2-d stack would go
    # to a BLAS gemv, whose rows do not round as lone dot products do.
    step = ext.itemsize
    windows = np.ndarray(
        (k, blocks, w), buffer=ext, offset=start * step, strides=(m * step, span * step, step)
    )
    rows[:, 0] = np.dot(windows, plan.weights).reshape(-1)
    np.add.accumulate(rows, axis=1, out=rows)
    rows *= plan.scale
    if padded is not q:
        q[...] = padded[:, :m]


def smooth_ema(
    x: np.ndarray,
    prev_tail: np.ndarray,
    params: SmoothingParams,
    batch_size: int | None = None,
) -> np.ndarray:
    """Windowed exponential moving average with carry-over from ``prev_tail``.

    Output sample i averages the trailing ``window_size`` samples with
    weights (1 - decay)**k (k = 0 for the current sample), normalised to
    sum to one.  Samples before the start of ``x`` are read from
    ``prev_tail`` (zeros for the first batch of a recording).

    It costs O(len(x)) for any window.  ``x`` is split into ``batch_size``
    batches (one batch when None).  Each batch restarts the weighted sum
    from a direct sum over the window every L samples, counted from the
    batch's first sample.  In between, the sum follows the exact recursion
    ``S[i] = r * S[i-1] + x[i] - r**w * x[i-w]`` with ``r = 1 - decay``.
    L is 62, or less where ``r**-(L-1)`` would pass 2**64: 20 at decay 0.9,
    and 2 at the largest decay below 1.  Every operation acts on each batch
    alone.  So smoothing a signal with ``batch_size`` gives the same bits
    as smoothing its batches one call at a time, each call given the tail
    the one before leaves.  A bad sample at k changes only the outputs from
    k up to, not including, the first restart after k + w - 1.  Round-off
    is that of at most L recursion steps: a few ulp of the window's
    weighted magnitude.
    """
    if batch_size is not None and batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    plan = params._ema_plan
    tail = np.asarray(prev_tail, dtype=float)
    w = params.window_size
    if tail.size < w - 1:
        raise DataError(f"previous tail has {tail.size} samples, window {w} needs {w - 1}")
    x = np.asarray(x, dtype=float)
    ext = np.concatenate([tail[tail.size - (w - 1) :], x])
    n = x.size
    out = np.empty(n)
    if n == 0:
        return out
    # the recursion inputs; the first of every batch becomes a direct sum,
    # and out[0] is set only so that the scaling before it reads no garbage
    out[0] = 0.0
    np.multiply(ext[: n - 1], plan.leaving, out=out[1:])
    np.subtract(ext[w:], out[1:], out=out[1:])
    m = batch_size or n
    n_full, rest = divmod(n, m)
    if n_full:
        _smooth_stack(ext, 0, out[: n - rest].reshape(n_full, m), plan)
    if rest:
        _smooth_stack(ext, n - rest, out[n - rest :].reshape(1, rest), plan)
    return out


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
    batch-major.  One ``apply_spectral_mask`` call masks every full batch on
    the ``(n_batches, batch_size)`` reshape, and another masks the trailing
    short batch at its natural length.  Then one ``smooth_ema`` call, given
    ``batch_size``, smooths the rectified signal from a zero tail.  The bits
    match the stream's for two reasons.  The FFT runs the same transform on
    each row as on a lone batch.  And ``smooth_ema`` restarts at the same
    samples and runs the same arithmetic on each batch, whether it smooths
    one batch or all of them; the tail the stream carries is exactly the
    preceding slice of the rectified signal.
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
    return smooth_ema(rectified, np.zeros(params.window_size - 1), params, batch_size)


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
