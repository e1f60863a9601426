"""Variance-based sensitivity analysis for the signal-processing decision vector.

The tunable space has 250 dimensions: 248 spectral-mask gains (DC excluded),
the smoothing window size, and the smoothing decay factor.  The objective is
1 minus the mean peak cross-correlation between processed EMG and grip force
over a set of recordings, so lower is better.  The spectra of each
recording's raw EMG batches and the grip side of its correlation do not
depend on the candidate, so the objective builds them once per recording and
keeps them with the recording and its two immutable series.

Provided machinery: Latin hypercube and Saltelli/radial samplers, grouped
Sobol first/total-order estimators with bootstrap confidence intervals, the
cheaper RBD-FAST first-order estimator, per-variable projection summaries,
and an append-only record of bounds-narrowing decisions (the narrowing
judgement itself stays manual).
"""
from __future__ import annotations

import threading
import warnings
import weakref
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
    Workspace,
    XcorrSide,
    batch_spectra,
    peak_cross_correlation,
    process_recording,
    resample_linear,
    xcorr_side,
)

N_MASK_VARS = DEFAULT_BATCH_SIZE // 2  # non-DC bins: 248


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
        return tuple(f"x{i}" for i in range(self.dim))


def default_decision_bounds(
    mask_hi: float = 5.0,
    window: tuple[float, float] = (2, 495),
    decay: tuple[float, float] = (0.0, 0.05),
    bin_resolution: float = NOMINAL_EMG_FS / DEFAULT_BATCH_SIZE,
) -> Bounds:
    """Initial search box for the 250-variable decision vector.

    Mask gains range over [0, mask_hi] per non-DC bin; variables are named
    by their nominal bin frequency.  Group labels support the coarse
    three-group analysis (mask / window / decay).
    """
    lower = np.concatenate([np.zeros(N_MASK_VARS), [window[0]], [decay[0]]])
    upper = np.concatenate([np.full(N_MASK_VARS, mask_hi), [window[1]], [decay[1]]])
    names = tuple(
        f"mask_{2 * round((k + 1) * bin_resolution / 2):d}hz" for k in range(N_MASK_VARS)
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

    def to_mask(
        self, bin_resolution: float = NOMINAL_EMG_FS / DEFAULT_BATCH_SIZE
    ) -> SpectralMask:
        """Spectral mask with the DC gain pinned to zero."""
        return SpectralMask(np.concatenate([[0.0], self.mask_gains]), bin_resolution)

    def smoothing(self) -> SmoothingParams:
        return SmoothingParams(self.window_size, self.decay)


@dataclass(frozen=True)
class SensitivityResult:
    """First/total-order indices per variable or group, with optional CIs.

    Estimator noise can push indices slightly outside [0, 1]; values are
    reported as computed, never clipped.
    """

    names: tuple[str, ...]
    first_order: np.ndarray
    total_order: np.ndarray | None = None
    first_ci: np.ndarray | None = None  # (G, 2) percentile bounds
    total_ci: np.ndarray | None = None

    def to_text(self) -> str:
        cols = ["variable", "S1"]
        if self.first_ci is not None:
            cols += ["S1_lo", "S1_hi"]
        if self.total_order is not None:
            cols += ["ST"]
            if self.total_ci is not None:
                cols += ["ST_lo", "ST_hi"]
        lines = ["\t".join(cols)]
        for i, name in enumerate(self.names):
            row = [name, repr(float(self.first_order[i]))]
            if self.first_ci is not None:
                row += [repr(float(self.first_ci[i, 0])), repr(float(self.first_ci[i, 1]))]
            if self.total_order is not None:
                row += [repr(float(self.total_order[i]))]
                if self.total_ci is not None:
                    row += [repr(float(self.total_ci[i, 0])), repr(float(self.total_ci[i, 1]))]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def _group_table(dim: int, groups) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Resolve per-variable labels into (names, column-index lists).

    ``groups`` may be None (every variable its own group) or a sequence of
    ``dim`` labels; group order follows first appearance.
    """
    if groups is None:
        return tuple(f"x{i}" for i in range(dim)), [np.array([i]) for i in range(dim)]
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


def _sobol_bootstrap(fa, fb, fab, idx):
    """``_sobol_point_estimate`` of every bootstrap replica at once: row ``j``
    of the (c, n) ``idx`` resamples the base points of replica ``j``.

    A replica's sum over its draws is a sum over the base points weighted by
    how often each was drawn, so the (g, n) blocks meet all replicas in two
    (c, n) @ (n, g) products rather than a (c, g, n) gather.  The pooled
    mean and variance are taken on the drawn rows as the point estimate
    takes them, so a constant replica is exactly the one it would zero.
    """
    c, n = idx.shape
    pooled = np.concatenate([fa[idx], fb[idx]], axis=1)
    mean = pooled.mean(axis=1, keepdims=True)
    var = pooled.var(axis=1, keepdims=True)
    zero = pooled.max(axis=1, keepdims=True) == pooled.min(axis=1, keepdims=True)
    rows = (idx + n * np.arange(c)[:, None]).ravel()
    drawn = np.bincount(rows, minlength=c * n).reshape(c, n)
    fb_c = (pooled[:, n:] - mean).ravel()
    fb_weight = np.bincount(rows, weights=fb_c, minlength=c * n).reshape(c, n)
    diff = fab - fa  # fab_c - fa_c: the pooled mean cancels
    s1 = fb_weight @ diff.T
    st = 0.5 * (drawn @ (diff * diff).T)
    scale = n * np.where(zero, 1.0, var)
    return np.where(zero, 0.0, s1 / scale), np.where(zero, 0.0, st / scale)


def _contain(ci: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Widen percentile intervals just enough to contain the point estimate."""
    ci[:, 0] = np.minimum(ci[:, 0], point)
    ci[:, 1] = np.maximum(ci[:, 1], point)
    return ci


def sobol_indices(
    samples: np.ndarray,
    outputs: np.ndarray,
    groups=None,
    n_boot: int = 0,
    seed=None,
    names: tuple[str, ...] | None = None,
) -> SensitivityResult:
    """Grouped Sobol indices from outputs laid out as saltelli_sample rows.

    Bootstrap (when ``n_boot`` > 0) resamples base-sample indices, keeping
    each (A, B, AB_*) row triple paired, and reports percentile 95% CIs.
    """
    if n_boot < 0:
        raise ConfigError("n_boot must be >= 0")
    samples = np.asarray(samples, dtype=float)
    outputs = np.asarray(outputs, dtype=float).ravel()
    group_names, group_cols = _group_table(samples.shape[1], groups)
    g = len(group_cols)
    if samples.shape[0] != outputs.size or outputs.size % (g + 2):
        raise DataError("outputs do not match the sampler layout")
    n = outputs.size // (g + 2)
    fa = outputs[:n]
    fb = outputs[n : 2 * n]
    fab = outputs[2 * n :].reshape(g, n)

    s1, st = _sobol_point_estimate(fa, fb, fab)
    first_ci = total_ci = None
    if n_boot > 0:
        rng = np.random.default_rng(seed)
        s1_boot = np.empty((n_boot, g))
        st_boot = np.empty((n_boot, g))
        # each (c, n) array of a chunk holds at most 2**19 entries (4 MiB);
        # successive integers() calls continue one stream, so the draws do
        # not depend on the chunking
        chunk = max(1, min(n_boot, 2**19 // max(n, 1)))
        done = 0
        while done < n_boot:
            c = min(chunk, n_boot - done)
            idx = rng.integers(0, n, size=(c, n))
            s1_boot[done : done + c], st_boot[done : done + c] = _sobol_bootstrap(fa, fb, fab, idx)
            done += c
        first_ci = np.percentile(s1_boot, [2.5, 97.5], axis=0).T
        total_ci = np.percentile(st_boot, [2.5, 97.5], axis=0).T
        first_ci = _contain(first_ci, s1)
        total_ci = _contain(total_ci, st)

    return SensitivityResult(
        names or group_names, s1, st, first_ci, total_ci
    )


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


def _rbdfast_point_estimate(x, y, harmonics):
    """Bias-corrected first-order index of every column of the (n, d)
    sample matrix ``x`` for the outputs ``y``; zero for every column when
    the outputs are all equal, as in ``_sobol_point_estimate``."""
    order = np.argsort(x, axis=0, kind="stable")
    ordered = np.concatenate([order[0::2], order[1::2][::-1]], axis=0)
    yp = y[ordered]
    n = yp.shape[0]
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
    for percentile 95% CIs.
    """
    samples = np.asarray(samples, dtype=float)
    outputs = np.asarray(outputs, dtype=float).ravel()
    n, d = samples.shape
    if outputs.size != n:
        raise DataError("one output per sample row required")
    if harmonics < 1 or harmonics >= n // 2:
        raise ConfigError("harmonics must satisfy 1 <= M < n/2")
    if n_boot < 0:
        raise ConfigError("n_boot must be >= 0")

    s1 = _rbdfast_point_estimate(samples, outputs, harmonics)
    first_ci = None
    if n_boot > 0:
        rng = np.random.default_rng(seed)
        boot = np.empty((n_boot, d))
        for k in range(n_boot):
            idx = rng.integers(0, n, size=n)
            boot[k] = _rbdfast_point_estimate(samples[idx], outputs[idx], harmonics)
        first_ci = _contain(np.percentile(boot, [2.5, 97.5], axis=0).T, s1)

    return SensitivityResult(
        names or tuple(f"x{i}" for i in range(d)), s1, None, first_ci, None
    )


def _max_lag(emg) -> int:
    """``DEFAULT_MAX_LAG_S`` in samples of ``emg``."""
    return int(round(DEFAULT_MAX_LAG_S * emg.rate))


def _grip_side(emg, grip, n: int) -> tuple[XcorrSide, int]:
    """``grip`` on the first ``n`` EMG timestamps as an ``xcorr_side``, and
    the max lag it was built for."""
    grip_on_emg = resample_linear(grip, emg.times[:n]).values
    max_lag = _max_lag(emg)
    return xcorr_side(grip_on_emg, max_lag), max_lag


def envelope_grip_xcorr(envelope: np.ndarray, emg, grip) -> tuple[float, int]:
    """Peak lagged correlation between an EMG envelope and grip force.

    ``grip`` is resampled onto the first ``envelope.size`` EMG timestamps
    and lags are searched within +-``DEFAULT_MAX_LAG_S``.  Returns (peak,
    lag in EMG samples) as ``peak_cross_correlation`` does.  Nothing is
    kept between calls; ``objective`` reuses each recording's grip side.
    """
    side, max_lag = _grip_side(emg, grip, envelope.size)
    return peak_cross_correlation(envelope, side, max_lag)


# id(recording) -> (its emg and grip series, the EMG batch spectra, the grip
# side, max_lag); a weakref.finalize drops the entry with its recording
_RECORDING_SIDES: dict[int, tuple] = {}

# one Workspace per thread, shared by every recording it processes
_SCRATCH = threading.local()


def _recording_sides(rec) -> tuple[BatchSpectra, XcorrSide, int]:
    """A recording's ``batch_spectra`` and ``_grip_side``, reused while it
    holds the same two series (whose arrays are read-only)."""
    emg, grip = rec.emg, rec.grip
    key = id(rec)
    entry = _RECORDING_SIDES.get(key)
    if entry is not None and entry[0] is emg and entry[1] is grip:
        return entry[2:]
    spectra = batch_spectra(emg, DEFAULT_BATCH_SIZE)
    side, max_lag = _grip_side(emg, grip, spectra.size)
    if entry is None:
        try:
            weakref.finalize(rec, _RECORDING_SIDES.pop, key, None)
        except TypeError:  # no weak references to it, so nothing to key on
            return spectra, side, max_lag
    _RECORDING_SIDES[key] = (emg, grip, spectra, side, max_lag)
    return spectra, side, max_lag


def objective(dataset, dv: DecisionVector) -> float:
    """1 minus the mean peak cross-correlation over a set of recordings.

    Each recording's EMG is processed in ``DEFAULT_BATCH_SIZE`` batches with
    the candidate mask and smoothing, then correlated with its grip force
    on the EMG clock.  Near 0 for configurations that track grip well.

    Two parts of that work depend on the recording alone: the ``rfft`` of
    its raw EMG batches (``batch_spectra``) and the grip side of the
    correlation (grip resampled onto the EMG clock, checked, centred and
    transformed).  Both are built once per recording, kept until it is
    garbage-collected, and reused while it holds the same two series, whose
    arrays are read-only.  So results are those of ``process_recording``
    and ``envelope_grip_xcorr`` on the raw series.  What does depend on the
    candidate (the masked ``irfft``, smoothing, the ``rfft``s of the
    envelope's blocks and the one short cross ``irfft``) runs in one
    ``Workspace`` per thread, sized to the largest recording it has seen.
    """
    work = getattr(_SCRATCH, "work", None)
    if work is None:
        work = _SCRATCH.work = Workspace()
    smoothing = dv.smoothing()
    peaks = []
    for rec in dataset:
        spectra, side, max_lag = _recording_sides(rec)
        mask = dv.to_mask(spectra.rate / DEFAULT_BATCH_SIZE)
        envelope = process_recording(spectra, mask, smoothing, DEFAULT_BATCH_SIZE, work)
        peaks.append(peak_cross_correlation(envelope, side, max_lag, work)[0])
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

    def to_text(self) -> str:
        """'== step' sections of 'name<TAB>lower<TAB>upper[<TAB>group]' rows."""
        lines = []
        for s in self.steps:
            lines.append(f"== step {s.step}{' (no-op)' if s.no_op else ''}")
            names = s.bounds.variable_names()
            for i in range(s.bounds.dim):
                row = f"{names[i]}\t{float(s.bounds.lower[i])!r}\t{float(s.bounds.upper[i])!r}"
                lines.append(row if s.bounds.groups is None else f"{row}\t{s.bounds.groups[i]}")
            if s.top:
                lines.append("top: " + ", ".join(f"{n}={v!r}" for n, v in s.top))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "NarrowingRecord":
        """Parse ``to_text`` output; a malformed line is a DataError naming it."""
        record = None
        step_no = None
        names: list[str] = []
        lows: list[float] = []
        highs: list[float] = []
        groups: list[str] = []
        tops: list[tuple[str, float]] = []

        def flush():
            nonlocal record
            if step_no is None:
                return
            bounds = Bounds(np.array(lows), np.array(highs), tuple(names), tuple(groups) or None)
            if record is None:
                record = cls(bounds)
            else:
                record.append(bounds, tops)

        for no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("== step"):
                    flush()
                    step_no = int(line.split()[2])
                    names, lows, highs, groups, tops = [], [], [], [], []
                elif step_no is None:
                    raise ValueError("row before the first '== step' line")
                elif line.startswith("top:"):
                    if record is None:
                        raise ValueError("'top:' line in step 0, which records no narrowing decision")
                    for part in line[4:].split(","):
                        name, val = part.strip().rsplit("=", 1)
                        tops.append((name, float(val)))
                else:
                    fields = line.split("\t")
                    if len(fields) not in (3, 4):
                        raise ValueError(f"expected 3 or 4 tab-separated fields, got {len(fields)}")
                    names.append(fields[0])
                    lows.append(float(fields[1]))
                    highs.append(float(fields[2]))
                    groups.extend(fields[3:])
            except (ValueError, IndexError) as exc:
                raise DataError(f"line {no}: {exc}: {line!r}") from None
        flush()
        if record is None:
            raise DataError("empty narrowing record")
        return record
