"""Variance-based sensitivity analysis for the signal-processing decision vector.

The tunable space has 250 dimensions: 248 spectral-mask gains (DC excluded),
the smoothing window size, and the smoothing decay factor.  The objective is
1 minus the mean peak cross-correlation between processed EMG and grip force
over a set of ``Recording``s, so lower is better.  The spectra of each
recording's raw EMG batches and the grip side of its correlation do not
depend on the candidate, so each frozen ``Recording`` caches them once.

Provided machinery: Latin hypercube and Saltelli/radial samplers, grouped
Sobol first/total-order estimators with bootstrap confidence intervals, the
cheaper RBD-FAST first-order estimator, per-variable projection summaries,
and an append-only record of bounds-narrowing decisions (the narrowing
judgement itself stays manual).  ``emgrip.io`` writes and reads their files.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .processing import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MAX_LAG_S,
    NOMINAL_EMG_FS,
    BatchSpectra,
    SmoothingParams,
    SpectralMask,
    XcorrSide,
    batch_spectra,
    peak_cross_correlation,
    process_recording,
    resample_linear,
    xcorr_side,
)

N_MASK_VARS = DEFAULT_BATCH_SIZE // 2  # non-DC bins: 248


def _default_names(dim: int) -> tuple[str, ...]:
    """Names of ``dim`` unnamed variables: x0, x1, ..."""
    return tuple(f"x{i}" for i in range(dim))


@dataclass(frozen=True)
class Bounds:
    """Per-variable (lower, upper) box, with optional names and group labels."""

    lower: np.ndarray
    upper: np.ndarray
    names: tuple[str, ...] | None = None
    groups: tuple[str, ...] | None = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ConfigError("lower/upper must be 1-d arrays of equal length")
        if np.any(lower > upper):
            raise ConfigError("lower bound exceeds upper bound")
        for attr in ("names", "groups"):
            val = getattr(self, attr)
            if val is not None:
                if len(val) != lower.size:
                    raise ConfigError(f"{attr} length must match dimension")
                object.__setattr__(self, attr, tuple(val))
        finite = np.isfinite(lower) & np.isfinite(upper)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ConfigError(
                f"{self.variable_names()[i]}: bounds must be finite, got [{lower[i]}, {upper[i]}]"
            )

    @property
    def dim(self) -> int:
        return self.lower.size

    def scale(self, unit: np.ndarray) -> np.ndarray:
        """Map samples from the unit hypercube into the box."""
        return self.lower + np.asarray(unit, dtype=float) * (self.upper - self.lower)

    def contains(self, other: "Bounds") -> bool:
        """True when ``other`` is nested inside (or equal to) this box."""
        return bool(
            other.dim == self.dim
            and np.all(other.lower >= self.lower)
            and np.all(other.upper <= self.upper)
        )

    def variable_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return _default_names(self.dim)


def default_decision_bounds() -> Bounds:
    """Initial search box for the 250-variable decision vector.

    Mask gains range over [0, 5] per non-DC bin, the window size over [2,
    DEFAULT_BATCH_SIZE - 1] and the decay over [0, 0.05].  Mask variables
    are named by their nominal bin frequency in ``DEFAULT_BATCH_SIZE``
    batches at ``NOMINAL_EMG_FS``.  Group labels support the coarse
    three-group analysis (mask / window / decay).
    """
    lower = np.concatenate([np.zeros(N_MASK_VARS), [2, 0.0]])
    upper = np.concatenate([np.full(N_MASK_VARS, 5.0), [DEFAULT_BATCH_SIZE - 1, 0.05]])
    res = NOMINAL_EMG_FS / DEFAULT_BATCH_SIZE
    names = tuple(
        f"mask_{2 * round((k + 1) * res / 2):d}hz" for k in range(N_MASK_VARS)
    ) + ("window_size", "decay")
    groups = ("mask",) * N_MASK_VARS + ("window_size", "decay")
    return Bounds(lower, upper, names, groups)


@dataclass(frozen=True)
class DecisionVector:
    """One candidate processing configuration: mask gains + smoothing."""

    mask_gains: np.ndarray
    window_size: int
    decay: float

    def __post_init__(self):
        gains = np.asarray(self.mask_gains, dtype=float)
        object.__setattr__(self, "mask_gains", gains)
        if gains.ndim != 1:
            raise ConfigError("mask gains must be a 1-d array")

    @classmethod
    def from_array(cls, x: np.ndarray) -> "DecisionVector":
        """Split a flat sample [mask..., window, decay]; window is rounded."""
        x = np.asarray(x, dtype=float)
        if x.size < 3:
            raise ConfigError("decision vector needs at least 3 entries")
        return cls(x[:-2], int(round(x[-2])), float(x[-1]))

    def to_mask(self, bin_resolution: float) -> SpectralMask:
        """Spectral mask with the DC gain pinned to zero."""
        return SpectralMask(np.concatenate([[0.0], self.mask_gains]), bin_resolution)

    def smoothing(self) -> SmoothingParams:
        return SmoothingParams(self.window_size, self.decay)


@dataclass(frozen=True)
class SensitivityResult:
    """First/total-order indices per variable or group, with optional CIs.

    Estimator noise can push indices slightly outside [0, 1]; values are
    reported as computed, never clipped; ``io.write_indices`` writes them.
    There is one name per index and per CI row: any other count is a
    ``ConfigError``.
    """

    names: tuple[str, ...]
    first_order: np.ndarray
    total_order: np.ndarray | None = None
    first_ci: np.ndarray | None = None  # (G, 2) percentile bounds
    total_ci: np.ndarray | None = None

    def __post_init__(self):
        rows = {
            "indices": self.first_order, "total_order indices": self.total_order,
            "first_ci rows": self.first_ci, "total_ci rows": self.total_ci,
        }
        for what, values in rows.items():
            count = None if values is None else len(np.atleast_1d(values))
            if count not in (None, len(self.names)):
                raise ConfigError(f"{len(self.names)} names for {count} {what}")


def _group_table(dim: int, groups) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Resolve per-variable labels into (names, column-index lists).

    ``groups`` may be None (every variable its own group) or a sequence of
    ``dim`` labels; group order follows first appearance.
    """
    if groups is None:
        return _default_names(dim), [np.array([i]) for i in range(dim)]
    if len(groups) != dim:
        raise ConfigError("group labels must cover every variable")
    names: list[str] = []
    for g in groups:
        if g not in names:
            names.append(str(g))
    cols = [np.flatnonzero([g == name for g in groups]) for name in names]
    return tuple(names), cols


def latin_hypercube(bounds: Bounds, n: int, seed=None) -> np.ndarray:
    """Stratified (n x dim) sample: one point per equal-probability stratum
    and variable, uniformly placed within its stratum."""
    if n < 1:
        raise ConfigError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    strata = np.tile(np.arange(n, dtype=float), (bounds.dim, 1))
    strata = rng.permuted(strata, axis=1).T
    unit = (strata + rng.random((n, bounds.dim))) / n
    return bounds.scale(unit)


def saltelli_sample(bounds: Bounds, n_base: int, groups=None, seed=None) -> np.ndarray:
    """Radial sample block [A; B; AB_1; ...; AB_G] for Sobol estimation.

    A and B come from a scrambled low-discrepancy sequence (deterministic
    under ``seed``); AB_g copies A with group g's columns swapped in from B.
    Total rows: n_base * (G + 2).  Powers of two for ``n_base`` keep the
    sequence balanced.
    """
    # imported here: scipy.stats takes ~0.9 s to load, and only Sobol
    # designs need it
    from scipy.stats import qmc

    if n_base < 1:
        raise ConfigError("need n_base >= 1")
    if groups is None:
        groups = bounds.groups
    _, group_cols = _group_table(bounds.dim, groups)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        base = qmc.Sobol(d=2 * bounds.dim, scramble=True, seed=seed).random(n_base)
    a = bounds.scale(base[:, : bounds.dim])
    b = bounds.scale(base[:, bounds.dim :])
    blocks = [a, b]
    for cols in group_cols:
        ab = a.copy()
        ab[:, cols] = b[:, cols]
        blocks.append(ab)
    return np.vstack(blocks)


def _sobol_point_estimate(fa, fb, fab):
    """First-order (product estimator) and total-order (squared-difference
    estimator) indices from paired sample blocks; zero for every group when
    the pooled outputs are all equal.  That is tested on the outputs, not on
    their variance: a constant whose mean does not round back to itself has
    a variance of round-off, and dividing by it would make indices of it."""
    pooled = np.concatenate([fa, fb])
    mean = pooled.mean()
    var = pooled.var()
    if np.ptp(pooled) == 0:
        g = fab.shape[0]
        return np.zeros(g), np.zeros(g)
    fa_c, fb_c, fab_c = fa - mean, fb - mean, fab - mean
    s1 = (fb_c * (fab_c - fa_c)).mean(axis=1) / var
    st = 0.5 * ((fa_c - fab_c) ** 2).mean(axis=1) / var
    return s1, st


def _bootstrap_ci(point_estimate, point: np.ndarray, n: int, n_boot: int, seed) -> np.ndarray:
    """Percentile 95% CIs of ``point`` widened just enough to contain it,
    shaped ``point.shape + (2,)``.  Each of ``n_boot`` replicas draws its
    ``n`` rows as ``rng.integers(0, n, size=n)``, and ``point_estimate(rows)``
    gives its estimate; so both estimators see the same draws under a seed."""
    rng = np.random.default_rng(seed)
    boot = np.empty((n_boot, *point.shape))
    for replica in boot:
        replica[...] = point_estimate(rng.integers(0, n, size=n))
    lo, hi = np.percentile(boot, [2.5, 97.5], axis=0)
    return np.stack([np.minimum(lo, point), np.maximum(hi, point)], axis=-1)


def sobol_indices(
    samples: np.ndarray,
    outputs: np.ndarray,
    groups=None,
    n_boot: int = 0,
    seed=None,
) -> SensitivityResult:
    """Grouped Sobol indices from outputs laid out as saltelli_sample rows.

    Results are named by ``groups``, in order of first appearance (x0,
    x1, ... when None); pass unique names, say ``bounds.variable_names()``,
    to analyse and name every variable separately.

    Bootstrap (when ``n_boot`` > 0) resamples base-sample indices, keeping
    each (A, B, AB_*) row triple paired, and reports percentile 95% CIs:
    each replica's indices are the point estimate of its drawn rows, and
    the draws are those ``rbdfast_indices`` makes under the same seed.
    """
    if n_boot < 0:
        raise ConfigError("n_boot must be >= 0")
    samples = np.asarray(samples, dtype=float)
    outputs = np.asarray(outputs, dtype=float).ravel()
    group_names, group_cols = _group_table(samples.shape[1], groups)
    g = len(group_cols)
    if samples.shape[0] != outputs.size or outputs.size % (g + 2):
        raise DataError("outputs do not match the sampler layout")
    if not (np.isfinite(samples).all() and np.isfinite(outputs).all()):
        raise DataError("samples and outputs must be finite")
    n = outputs.size // (g + 2)
    fa = outputs[:n]
    fb = outputs[n : 2 * n]
    fab = outputs[2 * n :].reshape(g, n)

    s1, st = _sobol_point_estimate(fa, fb, fab)
    first_ci = total_ci = None
    if n_boot > 0:
        first_ci, total_ci = _bootstrap_ci(
            lambda rows: _sobol_point_estimate(fa[rows], fb[rows], fab[:, rows]),
            np.array([s1, st]), n, n_boot, seed,
        )

    return SensitivityResult(group_names, s1, st, first_ci, total_ci)


def rbdfast_sample(bounds: Bounds, n: int, seed=None) -> np.ndarray:
    """Design for RBD-FAST: each variable follows an independently permuted
    triangular sweep of [0, 1], scaled to its bounds."""
    if n < 2:
        raise ConfigError("need n >= 2 samples")
    rng = np.random.default_rng(seed)
    s = -np.pi + 2 * np.pi * np.arange(n) / n
    sweep = 0.5 + np.arcsin(np.sin(s)) / np.pi
    unit = np.empty((n, bounds.dim))
    for i in range(bounds.dim):
        unit[:, i] = sweep[rng.permutation(n)]
    return bounds.scale(unit)


def _rank_keys(x):
    """(d, n) keys of the (n, d) design ``x``: each value's dense rank in its
    column shifted left by ``(n - 1).bit_length()``, in the least int dtype."""
    n = x.shape[0]
    bits = (n - 1).bit_length()
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if n << bits <= np.iinfo(t).max)
    order = np.argsort(x.T, axis=1)
    xs = np.take_along_axis(x.T, order, axis=1)
    dense = np.zeros(order.shape, dtype=dtype)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=dense[:, 1:])
    return np.take_along_axis(dense << bits, np.argsort(order, axis=1), axis=1)


def _rbdfast_point_estimate(keys, y, idx, harmonics):
    """Bias-corrected first-order index of every column of the design with
    ``_rank_keys`` ``keys`` and outputs ``y``, on its rows ``idx``; zero for
    every column when those outputs are all equal, as in ``_sobol_point_estimate``."""
    n = idx.size
    packed = keys[:, idx] | np.arange(n, dtype=keys.dtype)
    packed.sort(axis=1)
    order = (packed & ((1 << (n - 1).bit_length()) - 1)).T
    ordered = np.concatenate([order[0::2], order[1::2][::-1]], axis=0)
    y = y[idx]
    yp = y[ordered]
    var = yp.var(axis=0)
    zero = np.ptp(y) == 0
    spectrum = np.abs(np.fft.rfft(yp, axis=0)) ** 2 / (n * n)
    s1 = 2.0 * spectrum[1 : harmonics + 1].sum(axis=0) / np.where(zero, 1.0, var)
    lam = 2.0 * harmonics / n  # small-sample bias correction
    return np.where(zero, 0.0, s1 - lam / (1.0 - lam) * (1.0 - s1))


def rbdfast_indices(
    samples: np.ndarray,
    outputs: np.ndarray,
    harmonics: int = 10,
    n_boot: int = 0,
    seed=None,
    names: tuple[str, ...] | None = None,
) -> SensitivityResult:
    """First-order indices by the random-balance-design Fourier method.

    Outputs are reordered per variable onto a periodic path; the index is
    the bias-corrected share of spectral power in the first ``harmonics``
    frequencies.  Bootstrap resamples points (keeping x/y rows paired)
    for percentile 95% CIs: each replica's indices are the point estimate
    of its drawn rows, and the draws are those ``sobol_indices`` makes
    under the same seed.

    Each column is ranked once; a draw's path is one integer sort of the
    distinct keys ``rank << bits | position`` of its rows, which order as a
    stable sort of the drawn values does, so every number is bit for bit a
    float argsort's.  NaN has no rank: non-finite input is a ``DataError``.
    """
    samples = np.asarray(samples, dtype=float)
    outputs = np.asarray(outputs, dtype=float).ravel()
    n, d = samples.shape
    if outputs.size != n:
        raise DataError("one output per sample row required")
    if not (np.isfinite(samples).all() and np.isfinite(outputs).all()):
        raise DataError("samples and outputs must be finite")
    if harmonics < 1 or harmonics >= n // 2:
        raise ConfigError("harmonics must satisfy 1 <= M < n/2")
    if n_boot < 0:
        raise ConfigError("n_boot must be >= 0")

    keys = _rank_keys(samples)
    s1 = _rbdfast_point_estimate(keys, outputs, np.arange(n), harmonics)
    first_ci = None
    if n_boot > 0:
        first_ci = _bootstrap_ci(
            lambda idx: _rbdfast_point_estimate(keys, outputs, idx, harmonics), s1, n, n_boot, seed
        )

    return SensitivityResult(
        names or _default_names(d), s1, None, first_ci, None
    )


def _grip_side(emg, grip, n: int) -> XcorrSide:
    """``grip`` on the first ``n`` EMG timestamps as an ``xcorr_side`` for a
    max lag of ``DEFAULT_MAX_LAG_S`` in EMG samples.  An ``n`` that leaves
    no lag window is a ``DataError`` stating the minimum."""
    max_lag = int(round(DEFAULT_MAX_LAG_S * emg.rate))
    if n <= max_lag:
        raise DataError(
            f"{n} EMG samples, fewer than the {max_lag + 1} that the "
            f"+-{DEFAULT_MAX_LAG_S} s lag window needs"
        )
    grip_on_emg = resample_linear(grip, emg.times[:n])
    return xcorr_side(grip_on_emg, max_lag)


def envelope_grip_xcorr(envelope: np.ndarray, emg, grip) -> tuple[float, int]:
    """Peak lagged correlation between an EMG envelope and grip force.

    ``grip`` is resampled onto the first ``envelope.size`` EMG timestamps
    and lags are searched within +-``DEFAULT_MAX_LAG_S``.  Returns (peak,
    lag in EMG samples) as ``peak_cross_correlation`` does.  Nothing is
    kept between calls; ``objective`` reuses each ``Recording``'s cached side.
    """
    side = _grip_side(emg, grip, envelope.size)
    return peak_cross_correlation(envelope, side, side.max_lag)


def recording_sides(emg, grip) -> tuple[BatchSpectra, XcorrSide]:
    """What ``objective`` needs of one recording whatever the candidate: the
    ``batch_spectra`` of ``emg`` and the ``_grip_side`` of ``grip``.
    ``Recording.sa_sides`` keeps the pair with the recording."""
    spectra = batch_spectra(emg)
    return spectra, _grip_side(emg, grip, spectra.size)


def objective(dataset, dv: DecisionVector) -> float:
    """1 minus the mean peak cross-correlation over a set of ``Recording``s.

    Each recording's EMG is processed in ``DEFAULT_BATCH_SIZE`` batches with
    the candidate mask and smoothing, then correlated with its grip force
    on the EMG clock.  Near 0 for configurations that track grip well.

    Two parts of that work depend on the recording alone: the ``rfft`` of
    its raw EMG batches (``batch_spectra``) and the grip side of the
    correlation (grip resampled onto the EMG clock, checked, centred and
    transformed).  Both are built once, by ``recording_sides``, and cached
    on the frozen ``Recording`` (``sa_sides``) with its read-only series.
    So they never go stale, and results are those of ``process_recording``
    and ``envelope_grip_xcorr`` on the raw series.  What does depend on the
    candidate (the masked ``irfft``, smoothing, the ``rfft``s of the
    envelope's blocks and the one short cross ``irfft``) allocates its own
    temporaries, a few envelopes' worth at the peak, and keeps none of them.
    """
    smoothing = dv.smoothing()
    peaks = []
    for rec in dataset:
        spectra, side = rec.sa_sides
        mask = dv.to_mask(spectra.rate / DEFAULT_BATCH_SIZE)
        envelope = process_recording(spectra, mask, smoothing)
        peaks.append(peak_cross_correlation(envelope, side, side.max_lag)[0])
    if not peaks:
        raise DataError("empty dataset")
    return 1.0 - float(np.mean(peaks))


def map_objective(dataset, sample_matrix: np.ndarray) -> np.ndarray:
    """Evaluate the objective for every row of a sample matrix, in row order."""
    rows = np.asarray(sample_matrix, dtype=float)
    return np.asarray([objective(dataset, DecisionVector.from_array(x)) for x in rows])


@dataclass(frozen=True)
class ProjectionSummary:
    """Binned view of the objective along one variable."""

    centers: np.ndarray
    bin_means: np.ndarray
    trend: np.ndarray
    counts: np.ndarray


def projection_summary(
    samples: np.ndarray, outputs: np.ndarray, var_index: int, n_bins: int = 20
) -> ProjectionSummary:
    """Mean output per equal-width bin of one variable, plus a smoothed trend.

    The trend is a centred moving average (window 3) over the bin means,
    ignoring empty bins; the stand-in for scatterplot smoothers.
    """
    if n_bins < 2:
        raise ConfigError("need at least 2 bins")
    x = np.asarray(samples, dtype=float)[:, var_index]
    y = np.asarray(outputs, dtype=float).ravel()
    edges = np.linspace(x.min(), x.max(), n_bins + 1)
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    sums = np.bincount(which, weights=y, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    trend = np.full(n_bins, np.nan)
    for i in range(n_bins):
        window = means[max(0, i - 1) : i + 2]
        window = window[np.isfinite(window)]
        if window.size:
            trend[i] = window.mean()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return ProjectionSummary(centers, means, trend, counts)


@dataclass(frozen=True)
class NarrowingStep:
    step: int
    bounds: Bounds
    top: tuple[tuple[str, float], ...]
    no_op: bool = False


class NarrowingRecord:
    """Append-only log of bounds-narrowing decisions.

    Each appended step must be nested inside the previous bounds; identical
    bounds are accepted but flagged as no-ops.  The judgement of where to
    narrow stays with the analyst; this object only records it.
    ``io.write_narrowing`` and ``io.read_narrowing`` keep it in a file.
    """

    def __init__(self, initial: Bounds):
        self.steps: list[NarrowingStep] = [NarrowingStep(0, initial, ())]

    @property
    def current(self) -> Bounds:
        return self.steps[-1].bounds

    def append(self, bounds: Bounds, top: list[tuple[str, float]] = ()) -> NarrowingStep:
        """Record a nested box; one with the previous names and no group
        labels of its own keeps the previous step's groups."""
        prev = self.current
        if not prev.contains(bounds):
            raise DataError("new bounds must be nested inside the previous step")
        if bounds.groups is None and bounds.names == prev.names:
            bounds = replace(bounds, groups=prev.groups)
        no_op = bool(
            np.array_equal(prev.lower, bounds.lower)
            and np.array_equal(prev.upper, bounds.upper)
        )
        step = NarrowingStep(len(self.steps), bounds, tuple((str(n), float(v)) for n, v in top), no_op)
        self.steps.append(step)
        return step
