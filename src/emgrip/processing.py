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
    entry 0 is the DC bin.  Length must equal ``n // 2 + 1`` for the
    ``n``-sample batches it is applied to.  Gains are finite and non-negative.
    """

    gains: np.ndarray
    bin_resolution: float = NOMINAL_EMG_FS / DEFAULT_BATCH_SIZE

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", gains)
        if gains.ndim != 1 or gains.size < 2:
            raise ConfigError("mask needs a 1-d gain vector with >= 2 bins")
        # min and max carry a NaN, so these two reductions catch NaN and inf
        if not (gains.min() >= 0 and np.isfinite(gains.max())):
            raise ConfigError("mask gains must be finite and non-negative")
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


def _frozen(a: np.ndarray) -> bool:
    """True when no array can write to ``a``'s data: ``a`` and every array
    in its ``base`` chain are read-only, and the chain ends in one that owns
    its data rather than in a foreign buffer."""
    while a.base is not None:
        if a.flags.writeable or type(a.base) is not np.ndarray:
            return False
        a = a.base
    return not a.flags.writeable


@dataclass(frozen=True)
class TimestampedSeries:
    """Paired (time, value) arrays with strictly increasing times.  Both are
    read-only: an input is kept by reference only when it is a float array
    that nothing can write through, that is, it and every array in its
    ``base`` chain are read-only and the last of them owns its data.  Any
    other input is copied once and frozen."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("times", "values"):
            a = getattr(self, name)
            if type(a) is not np.ndarray or a.dtype != float or not _frozen(a):
                a = np.array(a, dtype=float)
                a.flags.writeable = False
                object.__setattr__(self, name, a)
        times, values = self.times, self.values
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


def apply_spectral_mask(
    x: np.ndarray,
    mask: SpectralMask,
    n: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Multiply the batch spectrum bin-wise by the mask gains.

    ``x`` is one batch or a ``(..., n)`` stack of batches, each transformed
    along the last axis; every row comes out bit-identical to masking it
    alone.  Returns the real signal obtained by inverse FFT, shaped like
    ``x``.  An ``n`` given with real batches must be their length.

    ``x`` may also be the ``rfft`` of such batches, a complex array as
    ``BatchSpectra`` holds, with ``n`` the batch length (``2 * (bins - 1)``
    when None, as for ``np.fft.irfft``).  The forward FFT is then skipped
    and the result is bit-identical.  The result is written into ``out``
    when given.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        n = 2 * (x.shape[-1] - 1) if n is None else n
        if x.shape[-1] != n // 2 + 1:
            raise ConfigError(f"a {n}-sample batch has {n // 2 + 1} bins, not {x.shape[-1]}")
        spectrum = x
    else:
        x = np.atleast_1d(x.astype(float, copy=False))
        if n is not None and n != x.shape[-1]:
            raise ConfigError(f"n = {n} does not match the {x.shape[-1]}-sample batch")
        n = x.shape[-1]
        spectrum = None
    n_bins = n // 2 + 1
    if len(mask) != n_bins:
        raise ConfigError(
            f"mask has {len(mask)} bins but a {n}-sample batch needs {n_bins}"
        )
    if spectrum is None:
        spectrum = np.fft.rfft(x)
    return np.fft.irfft(spectrum * mask.gains, n=n, out=out)


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
    up: np.ndarray | None  # r**-t for t < span; None at decay 0, where it is all ones
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
        return cls(span, r**params.window_size, weights, up if r < 1.0 else None, scale)


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
    if plan.up is not None:
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
    n = x.size
    ext = np.concatenate([tail[tail.size - (w - 1) :], x])
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
    keep = params.window_size - 1
    tail_src = rectified
    if rectified.size < keep:
        tail_src = np.concatenate([np.asarray(prev_tail, dtype=float), rectified])
    return smoothed, tail_src[tail_src.size - keep :]


def _batch_split(n: int) -> tuple[int, int]:
    """The number of full ``DEFAULT_BATCH_SIZE`` batches in ``n`` samples, and
    the length of the trailing short batch: it keeps its natural length, and
    a 1-sample remainder is dropped, so that length is 0 or >= 2."""
    n_full, rest = divmod(n, DEFAULT_BATCH_SIZE)
    return n_full, rest if rest >= 2 else 0


def envelope_batches(
    emg: TimestampedSeries,
    mask: SpectralMask,
    params: SmoothingParams,
) -> Iterator[np.ndarray]:
    """Yield the envelope of each ``DEFAULT_BATCH_SIZE`` batch of ``emg`` in
    order, one ``process_batch`` call a batch, as the stream runs them.

    The smoothing tail is carried from batch to batch.  The trailing short
    batch is transformed at its natural length; a 1-sample remainder is
    dropped.
    """
    x = emg.values
    fs = emg.rate
    tail = np.zeros(params.window_size - 1)
    n_full, tail_size = _batch_split(x.size)
    m = DEFAULT_BATCH_SIZE
    for start in range(0, n_full * m + tail_size, m):
        chunk = x[start : start + m]
        out, tail = process_batch(chunk, mask.for_batch(chunk.size, fs), params, tail)
        yield out


@dataclass(frozen=True)
class BatchSpectra:
    """The raw-EMG half of ``process_recording``, built by ``batch_spectra``
    for one recording.

    ``full`` is the ``rfft`` of the ``(n_batches, DEFAULT_BATCH_SIZE)`` stack
    of full batches.  ``tail`` is the ``rfft`` of the trailing short batch at
    its natural length of ``tail_size`` samples; a 1-sample remainder is
    dropped, and then ``tail_size`` is 0 and ``tail`` empty.  ``rate`` is
    the recording's sampling rate, which places the short batch's bins.
    """

    rate: float
    full: np.ndarray
    tail: np.ndarray
    tail_size: int

    @property
    def size(self) -> int:
        """Samples the envelope covers."""
        return self.full.shape[0] * DEFAULT_BATCH_SIZE + self.tail_size


def batch_spectra(emg: TimestampedSeries) -> BatchSpectra:
    """Split ``emg`` into batches as ``envelope_batches`` does and transform
    each, so that a recording processed with many masks is transformed once."""
    x = emg.values
    rate = emg.rate
    n_full, tail_size = _batch_split(x.size)
    split = n_full * DEFAULT_BATCH_SIZE
    full = np.fft.rfft(x[:split].reshape(n_full, DEFAULT_BATCH_SIZE))
    tail = np.fft.rfft(x[split:]) if tail_size else np.empty(0, complex)
    for arr in (full, tail):
        arr.flags.writeable = False  # may be shared by many calls
    return BatchSpectra(rate, full, tail, tail_size)


def process_recording(
    emg: TimestampedSeries | BatchSpectra,
    mask: SpectralMask,
    params: SmoothingParams,
) -> np.ndarray:
    """Envelope of a whole recording in ``DEFAULT_BATCH_SIZE`` batches,
    bit-identical to the concatenated ``envelope_batches``.

    Aligned with ``emg.times`` minus any dropped 1-sample remainder.  It runs
    batch-major.  One ``apply_spectral_mask`` call masks every full batch on
    the ``(n_batches, DEFAULT_BATCH_SIZE)`` reshape, and another masks the
    trailing short batch at its natural length.  Then one ``smooth_ema``
    call, given the batch size, smooths the rectified signal from a zero
    tail.  The bits match the stream's for two reasons.  The FFT runs the
    same transform on each row as on a lone batch.  And ``smooth_ema`` restarts at the same
    samples and runs the same arithmetic on each batch, whether it smooths
    one batch or all of them; the tail the stream carries is exactly the
    preceding slice of the rectified signal.

    ``emg`` may also be the recording's ``batch_spectra``, so that a
    recording processed many times is transformed once.
    """
    spectra = emg if isinstance(emg, BatchSpectra) else batch_spectra(emg)
    m = DEFAULT_BATCH_SIZE
    n = spectra.size
    split = n - spectra.tail_size
    # both calls write into one array, so the two parts need no concatenation
    rectified = np.empty(n)
    full_mask = mask.for_batch(m, spectra.rate)
    apply_spectral_mask(spectra.full, full_mask, m, rectified[:split].reshape(-1, m))
    if spectra.tail_size:
        tail_mask = mask.for_batch(spectra.tail_size, spectra.rate)
        apply_spectral_mask(spectra.tail, tail_mask, spectra.tail_size, rectified[split:])
    np.abs(rectified, out=rectified)
    return smooth_ema(rectified, np.zeros(params.window_size - 1), params, m)


def default_optimal_mask() -> SpectralMask:
    """Built-in grip-force mask for ``DEFAULT_BATCH_SIZE`` batches of forearm
    EMG at ``NOMINAL_EMG_FS``, ~0.5 s each.

    Gain profile over the bin's nominal frequency (bins labelled on the
    2 Hz grid): DC and 2 Hz removed, linear rise to unity at 18 Hz, an
    inverted-U boost peaking at 1.5 over 32-42 Hz, mains at 50 Hz held at
    0.375, a linear 0.5 -> 4.5 ramp from 52 to 110 Hz, a 4.375 plateau up
    to 202 Hz, and zero from 204 Hz up.
    """
    res = NOMINAL_EMG_FS / DEFAULT_BATCH_SIZE
    f = np.arange(DEFAULT_BATCH_SIZE // 2 + 1) * res
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


def resample_linear(series: TimestampedSeries, target_times: np.ndarray) -> np.ndarray:
    """Values of the piecewise-linear interpolation of the series at
    ``target_times``.

    Target times outside the source span are clamped to the end values.
    """
    if len(series) < 2:
        raise DataError("resampling needs at least 2 source points")
    return np.interp(np.asarray(target_times, dtype=float), series.times, series.values)


def _blocks(n: int, max_lag: int) -> tuple[int, int, int]:
    """The block count K, block length B and transform length L of
    ``peak_cross_correlation`` for series of length ``n``.

    L is the smallest power of two >= max(1024, 4 * (2 * max_lag + 1)),
    2048 at the default lag of 159 samples, or >= n + 2 * max_lag when that
    is smaller, so that a series shorter than one block is a single block.
    B = L - 2 * max_lag and K = ceil(n / B)."""
    span = 2 * max_lag
    nfft = 1 << (min(max(1024, 4 * (span + 1)), n + span) - 1).bit_length()
    block = nfft - span
    return -(-n // block), block, nfft


def _window_sums(v: np.ndarray, max_lag: int) -> np.ndarray:
    """Sums of ``v`` and of its square over its prefixes and over its
    suffixes of every length from ``n - max_lag`` to ``n``, one a row
    (prefix, suffix, square prefix, square suffix); entry ``j`` of a row
    covers ``n - max_lag + j`` samples."""
    n = v.size
    head, tail = v[: n - max_lag], v[max_lag:]  # the shortest windows
    rest, lead = v[n - max_lag :], v[:max_lag][::-1]  # what longer ones add
    sums = np.empty((4, max_lag + 1))
    sums[:, 0] = head.sum(), tail.sum(), head @ head, tail @ tail
    sums[0, 1:], sums[1, 1:] = rest, lead
    np.multiply(rest, rest, out=sums[2, 1:])
    np.multiply(lead, lead, out=sums[3, 1:])
    return np.cumsum(sums, axis=1, out=sums)


@dataclass(frozen=True)
class XcorrSide:
    """The second series' half of ``peak_cross_correlation``, built by
    ``xcorr_side`` for a series of length ``n = centred.size`` and a
    ``max_lag``.

    ``centred`` is the mean-centred series.  With K, B and L = B + 2 *
    max_lag from ``_blocks(n, max_lag)``, ``spectra`` is the ``(K, L // 2 +
    1)`` stack of the ``rfft``s of K overlapping segments of it: segment
    ``k`` holds samples ``k * B`` to ``(k + 1) * B + max_lag``, then the
    ``max_lag`` samples before ``k * B``, zero outside the series.  This
    circular layout puts lag ``l`` of the cross sums at index ``l mod L``,
    so a single block is the plain zero-padded transform.  ``pre``/``suf``
    and ``sq_pre``/``sq_suf`` are the ``_window_sums`` of the centred
    series.  All six arrays are read-only.
    """

    max_lag: int
    centred: np.ndarray
    spectra: np.ndarray
    pre: np.ndarray
    suf: np.ndarray
    sq_pre: np.ndarray
    sq_suf: np.ndarray


def _centre(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x`` minus its mean, written to ``out``; a constant or non-finite
    ``x`` is a ``NumericError``."""
    # min and max carry a NaN, and an inf shows in one of them, so these two
    # reductions check every sample without a mask the size of the series
    lo, hi = x.min(), x.max()
    if hi - lo == 0:
        raise NumericError("constant input: correlation undefined")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError("non-finite input: correlation undefined")
    return np.subtract(x, x.mean(), out=out)


def xcorr_side(x: np.ndarray, max_lag_samples: int) -> XcorrSide:
    """Check, centre and transform one series for ``peak_cross_correlation``.

    Raises as ``peak_cross_correlation`` does for this series alone: a
    length below 2 is a ``DataError``, a lag outside ``0 <= lag < n`` a
    ``ConfigError``, and a constant or non-finite series a ``NumericError``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise DataError("series must have length >= 2")
    max_lag = int(max_lag_samples)
    if max_lag < 0 or max_lag >= n:
        raise ConfigError("max lag must satisfy 0 <= lag < length")
    k, block, nfft = _blocks(n, max_lag)
    padded = np.zeros(k * block + 2 * max_lag)
    c = _centre(x, padded[max_lag : max_lag + n])
    segments = np.lib.stride_tricks.sliding_window_view(padded, nfft)[::block]
    # each segment starts at its block, and its lead wraps round to the end
    spectra = np.fft.rfft(np.roll(segments, -max_lag, axis=1))
    sums = _window_sums(c, max_lag)
    for arr in (padded, c, spectra, sums):
        arr.flags.writeable = False  # a side may be shared by many calls
    return XcorrSide(max_lag, c, spectra, *sums)


# r within this of the peak may be a tie that the FFT's round-off (at worst
# ~1e-11, in 2-sample windows) split; neighbouring lags of real series are
# orders of magnitude further apart
_NEAR_PEAK = 1e-9


def peak_cross_correlation(
    a: np.ndarray,
    b: np.ndarray | XcorrSide,
    max_lag_samples: int,
) -> tuple[float, int]:
    """Maximum lagged Pearson correlation between two aligned series.

    Lag ``l`` pairs ``a[i]`` with ``b[i + l]``, so a positive lag means
    ``b`` is delayed relative to ``a``.  Each lag's correlation is computed
    over the overlapping window only, mean-centred and variance-normalised
    on that window.  Returns (peak, lag) for the (signed) maximum; a tie
    goes to the most negative lag.

    ``b`` may also be the ``xcorr_side`` of the series, so that a series
    correlated with many others is checked and transformed once; the result
    is bit-identical to passing the array.  A side built for another length
    is a ``DataError``, and one built for another ``max_lag`` a
    ``ConfigError``.

    Method: both series are mean-centred over their whole length, and the
    lagged cross sums ``sum(a[i] * b[i + l])`` of every lag come from
    overlap-save block correlation (Stockham 1966).  ``_blocks`` picks a
    block length B and a transform length L = B + 2 * max_lag from ``n``
    and ``max_lag``.  ``a`` is cut into K zero-padded blocks of B samples,
    and b's side holds the ``rfft``s of the K matching segments of ``b``,
    each reaching ``max_lag`` samples past its block on both sides.  The
    conjugated block spectra of ``a`` times the segment spectra, summed
    over the blocks, give the cross sums of every lag in one ``irfft`` of
    length L, free of wrap-around.  Every overlap window is a prefix of one
    series and a suffix of the other, so its sums and sums of squares come
    from cumulative sums, and
    ``r = (Sxy - Sx*Sy/m) / sqrt((Sxx - Sx**2/m) * (Syy - Sy**2/m))``.
    A lag is skipped when its window has fewer than 2 samples, or when
    either window variance is at or below round-off (``m * eps`` of the
    window's sum of squares), that is, zero.  A constant series, or a
    non-finite sample anywhere, raises ``NumericError``; the FFT would
    spread a bad sample to every lag.  The FFT's round-off is relative to
    a block and its segment, and can split lags that tie exactly, such as
    ``l`` and ``-l`` when ``b = -a``; so the lags whose ``r`` is within
    1e-9 of the peak get their cross sums again as direct dot products
    before the tie rule picks one.  The window sums' round-off is relative
    to the whole series, so windows of a few samples carry more of it (up
    to ~1e-11 in ``r`` at 2 samples), and ties among them may fall to
    another lag than in a lag-by-lag scan.
    """
    a = np.asarray(a, dtype=float)
    prepared = isinstance(b, XcorrSide)
    if not prepared:
        b = np.asarray(b, dtype=float)
    n = a.size
    if (b.centred if prepared else b).size != n or n < 2:
        raise DataError("series must have equal length >= 2")
    max_lag = int(max_lag_samples)
    if max_lag < 0 or max_lag >= n:
        raise ConfigError("max lag must satisfy 0 <= lag < length")
    if prepared and b.max_lag != max_lag:
        raise ConfigError(f"side was built for max lag {b.max_lag}, not {max_lag}")
    k, block, nfft = _blocks(n, max_lag)
    # a's blocks, one a row of a zero-padded (K, B) stack
    stack = np.zeros(k * block)
    c = _centre(a, stack[:n])
    y = b if prepared else xcorr_side(b, max_lag)

    spectra = np.fft.rfft(stack.reshape(k, block), nfft)
    np.conjugate(spectra, out=spectra)
    spectra *= y.spectra
    cross = np.fft.irfft(spectra.sum(axis=0), nfft)
    sxy = np.concatenate((cross[nfft - max_lag :], cross[: max_lag + 1]))

    lags = np.arange(-max_lag, max_lag + 1)
    j = max_lag - np.abs(lags)
    m = n - np.abs(lags)
    ahead = lags >= 0  # a's window is a prefix and b's a suffix
    pre, suf, sq_pre, sq_suf = _window_sums(c, max_lag)
    sx = np.where(ahead, pre[j], suf[j])
    sy = np.where(ahead, y.suf[j], y.pre[j])
    sxx = np.where(ahead, sq_pre[j], sq_suf[j])
    syy = np.where(ahead, y.sq_suf[j], y.sq_pre[j])

    vx = sxx - sx * sx / m
    vy = syy - sy * sy / m
    roundoff = m * np.finfo(float).eps
    defined = (m >= 2) & (vx > roundoff * sxx) & (vy > roundoff * syy)
    r = np.full(lags.size, -np.inf)

    def pearson(at):
        return (sxy[at] - sx[at] * sy[at] / m[at]) / np.sqrt(vx[at] * vy[at])

    r[defined] = pearson(defined)
    peak = r.max()
    if not np.isfinite(peak):
        raise NumericError("no lag produced a defined correlation")
    near = np.flatnonzero(r >= peak - _NEAR_PEAK)
    for i, lag in zip(near, lags[near]):
        lo, hi = max(lag, 0), n + min(lag, 0)  # b's window
        sxy[i] = c[lo - lag : hi - lag] @ y.centred[lo:hi]
    r[near] = pearson(near)
    best = int(np.argmax(r))
    return float(r[best]), int(lags[best])
