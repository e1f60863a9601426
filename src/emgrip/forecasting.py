"""Short-horizon grip-force forecasting from the estimated-grip stream.

Per incoming batch the latest estimates are LOWESS-smoothed, Hankel-lifted,
thinned to a coarser snapshot grid, augmented with pairwise products of
log-shifted entries, and decomposed into Ritz pairs by a residual-refined
DMD.  The lift acts on each column alone, so thinning first gives the same
snapshots as thinning after it while lifting only the kept columns.  Mode
amplitudes are refit by least squares and the modes are powered forward to
cover the next batch.  The model is retrained from scratch every batch so
it always reflects the latest dynamics.  Each step hands values to the
next: ``fit_dmd`` returns a frozen ``DmdModel`` that records its snapshot
count, ``fit_amplitudes`` returns the amplitudes, and ``forecast`` takes
both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calibration import MinMaxScaler
from .errors import ConfigError, DataError, NumericError
from .estimation import hankel_lift

# condition number above which the normal-equations amplitude solve is
# swapped for an SVD-based minimum-norm least squares
_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ForecastHyperparams:
    """Tuning knobs for the per-batch forecaster.

    Window sizes are expressed as multipliers of the decimated batch length
    (62 samples for the default stream): ``smooth_modifier`` sizes the
    LOWESS neighbourhood and ``window_modifier`` the training window.
    """

    window_modifier: float = 1.3
    smooth_modifier: float = 1.1
    thin_step: int = 7
    delays: int = 8
    n_modes: int = 4

    def __post_init__(self):
        modifiers = (self.window_modifier, self.smooth_modifier)
        if not all(math.isfinite(m) and m >= 1 for m in modifiers):
            raise ConfigError(f"window modifiers must be finite and >= 1, got {modifiers}")
        if not 3 <= self.thin_step <= 8:
            raise ConfigError("thin step must lie in [3, 8]")
        if not 4 <= self.delays <= 10:
            raise ConfigError("delay count must lie in [4, 10]")
        if self.n_modes < 1:
            raise ConfigError("need at least one mode")


@dataclass(frozen=True)
class DmdModel:
    """Ritz pairs of the one-step propagator on thinned snapshots."""

    ritz_values: np.ndarray       # complex, shape (l,)
    ritz_vectors: np.ndarray      # complex, shape (rows, l), unit columns
    residuals: np.ndarray         # per-mode ||A z - lambda z||
    n_snapshots: int              # snapshots fitted; forecasts start here

    @property
    def n_modes(self) -> int:
        return self.ritz_values.size


@lru_cache(maxsize=16)
def _lowess_weights(n: int, window: int):
    """Tricube weights and data-independent moments for ``lowess_smooth``.

    They depend only on ``(n, window)``, so the streaming forecaster (one
    size per hyperparameter set) builds them once.  The arrays are shared by
    every caller and therefore read-only.
    """
    x = np.arange(n, dtype=float)
    # pairwise distances on the index grid; bandwidth = window-th nearest
    dist = np.abs(x[:, None] - x[None, :])
    h = np.partition(dist, window - 1, axis=1)[:, window - 1]
    u = np.clip(dist / h[:, None], 0.0, 1.0)
    w = (1.0 - u**3) ** 3
    # row sums, first moments and the zero-guarded 2x2 determinant
    sw = w.sum(axis=1)
    swx = w @ x
    swxx = w @ (x * x)
    denom = sw * swxx - swx**2
    denom = np.where(denom == 0, 1.0, denom)
    for arr in (x, w, sw, swx, denom):
        arr.flags.writeable = False
    return x, w, sw, swx, denom


def lowess_smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Locally weighted linear smoothing on a uniformly indexed series.

    Each point is replaced by a tricube-weighted linear fit over its
    ``window`` nearest neighbours, evaluated at its own index, in a single
    pass with no robustness reweighting.  Series no longer than the window
    degrade to a single global linear fit.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if window < 3:
        raise ConfigError("window must be >= 3 points")
    if n <= window:
        if n < 2:
            return y.copy()
        x = np.arange(n, dtype=float)
        coeffs = np.polyfit(x, y, 1)
        return np.polyval(coeffs, x)

    x, w, sw, swx, denom = _lowess_weights(n, window)
    swy = w @ y
    swxy = w @ (x * y)
    slope = (sw * swxy - swx * swy) / denom
    intercept = (swy - slope * swx) / sw
    return intercept + slope * x


def _check_log_shift(values: np.ndarray) -> None:
    if (values <= -10.0).any():
        raise DataError("entries must exceed -10 for the log shift")


@lru_cache(maxsize=16)
def _row_pairs(rows: int):
    """Lexicographic (p, q) index pairs p < q, shared and read-only."""
    pairs = np.triu_indices(rows, k=1)  # row-major: lexicographic pairs
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


def log_interaction_lift(delay_block: np.ndarray) -> np.ndarray:
    """Pairwise products of ln(entry + 10) over all distinct delay-row pairs.

    Rows follow lexicographic pair order; C(rows, 2) output rows.  The +10
    shift keeps arguments positive for entries above -10.
    """
    h = np.asarray(delay_block, dtype=float)
    if h.ndim != 2 or h.shape[0] < 2:
        raise DataError("delay block needs at least 2 rows")
    _check_log_shift(h)
    logs = np.log(h + 10.0)
    p, q = _row_pairs(h.shape[0])
    return logs[p] * logs[q]


def thin(matrix: np.ndarray, step: int) -> np.ndarray:
    """Keep every ``step``-th column counting backward from the last.

    The newest snapshot is always retained; column order is preserved.
    """
    m = np.asarray(matrix)
    if step < 1:
        raise ConfigError("step must be >= 1")
    start = (m.shape[1] - 1) % step
    return m[:, start::step]


def _conjugate_units(eigvals: np.ndarray) -> list[list[int]]:
    """Group eigenvalue indices into conjugate pairs (or real singletons).

    ``np.linalg.eigvals`` of a real matrix is LAPACK ``xGEEV``, which returns
    real eigenvalues with an imaginary part of exactly 0 and each complex
    conjugate pair in consecutive entries, positive imaginary part first, as
    exact conjugates.  The units are read straight from that layout: a
    positive imaginary part opens a pair with the next entry, and that
    entry's negative one is then skipped.
    """
    units: list[list[int]] = []
    for i, imag in enumerate(np.asarray(eigvals).imag.tolist()):
        if imag == 0:
            units.append([i])
        elif imag > 0:
            units.append([i, i + 1])
    return units


def fit_dmd(snapshots: np.ndarray, n_modes: int) -> DmdModel:
    """Residual-refined DMD of a snapshot sequence.

    The data are QR-compressed when tall, the shift operator is formed in
    the compressed coordinates through an SVD of the first snapshot block,
    and every eigenvalue's Ritz vector is refined to minimise the data-
    driven residual ||A z - lambda z||.  The ``n_modes`` modes with the
    smallest residuals are kept, with complex-conjugate pairs kept or
    dropped together so reconstructions stay real.  Only when two units
    (pairs or real singletons) have exactly equal residuals are the
    projected energies ||z^H C|| computed, to break that tie in favour of
    the larger; full Ritz vectors are assembled for the kept modes alone.
    The model records the number of snapshots it was fitted on.
    """
    s = np.asarray(snapshots, dtype=float)
    if s.ndim != 2:
        raise DataError("snapshots must be a 2-d matrix")
    rows, m = s.shape
    if m < n_modes + 1:
        raise DataError(f"{m} snapshots cannot support {n_modes} modes")

    if rows > m:
        q, c = np.linalg.qr(s)
    else:
        q, c = None, s

    # every factor below is real, so .T is the conjugate transpose
    x, y = c[:, :-1], c[:, 1:]
    u, sv, vh = np.linalg.svd(x, full_matrices=False)
    # a handful of values: Python floats cut the rank cheaper than NumPy calls
    values = sv.tolist()
    tol = values[0] * 1e-12 if values and values[0] > 0 else 0.0
    rank = max(1, sum(v > tol for v in values))
    if rank < len(values):
        u, sv, vh = u[:, :rank], sv[:rank], vh[:rank]
    b = (y @ vh.T) / sv
    eigvals = np.linalg.eigvals(u.T @ b)

    # a conjugate partner's residual problem is the exact conjugate of its
    # leader's: refine each unit's leader only, all in one stacked SVD, and
    # mirror the partner
    units = _conjugate_units(eigvals)
    leaders = [unit[0] for unit in units]
    stack = b[None] - eigvals[leaders, None, None] * u[None]
    _, sig, wh = np.linalg.svd(stack, full_matrices=False)
    lead_vectors = u @ wh[:, -1].conj().T
    residual = sig[:, -1].tolist()

    if len(set(residual)) == len(residual):
        ranked = sorted(range(len(units)), key=residual.__getitem__)
    else:
        # an exact tie goes to the unit of larger projected energy
        energy = _projected_energy(units, lead_vectors, c)
        ranked = sorted(
            range(len(units)),
            key=lambda k: (residual[k], -max(energy[i] for i in units[k])),
        )
    # units are visited in residual order and members share their unit's
    # residual, so the kept modes come out sorted by residual
    picked: list[int] = []
    count = 0
    for k in ranked:
        if count + len(units[k]) <= n_modes:
            picked.append(k)
            count += len(units[k])
        if count == n_modes:
            break

    # kept mode j is eigenvalue modes[j] of unit lead[j]; a partner's Ritz
    # vector is its leader's conjugated
    modes = [i for k in picked for i in units[k]]
    lead = [k for k in picked for _ in units[k]]
    partners = [j for j, k in enumerate(lead) if modes[j] != units[k][0]]
    z = lead_vectors[:, lead].astype(complex, copy=False)
    z[:, partners] = z[:, partners].conj()
    if q is not None:
        z = q @ z
    return DmdModel(eigvals[modes], z, sig[lead, -1], m)


def _projected_energy(units, lead_vectors, c) -> list[float]:
    """||z^H C|| per eigenvalue, partners mirroring their leader's vector."""
    vectors = np.empty((c.shape[0], sum(len(unit) for unit in units)), dtype=complex)
    for k, unit in enumerate(units):
        vectors[:, unit[0]] = lead_vectors[:, k]
        if len(unit) == 2:
            vectors[:, unit[1]] = lead_vectors[:, k].conj()
    return np.linalg.norm(vectors.conj().T @ c, axis=1).tolist()


def fit_amplitudes(model: DmdModel, snapshots: np.ndarray) -> np.ndarray:
    """Mode amplitudes minimising the snapshot reconstruction error.

    Solves min_a sum_i ||s_i - Z diag(lambda^(i-1)) a||^2 through the
    Hadamard-structured normal equations; when those are ill-conditioned
    the dense system gets an SVD-based minimum-norm least-squares solve
    (``np.linalg.lstsq``).  The conditioning test is the one
    ``np.linalg.cond(gram) < 1e12`` makes, taken on the singular values
    ``cond`` itself computes, without its per-call overhead.  ``model`` is
    only read; the amplitudes are returned for ``forecast``.
    """
    s = np.asarray(snapshots, dtype=float)
    m = s.shape[1]
    lam = model.ritz_values
    z = model.ritz_vectors
    if m > 1 and not lam.any():
        raise NumericError("all-zero eigenvalues cannot fit multiple snapshots")

    vand = lam[None, :] ** np.arange(m)[:, None]          # (m, l)
    vand_h = vand.conj().T
    z_h = z.conj().T
    gram = z_h @ z
    gram *= vand_h @ vand
    rhs = z_h @ s
    rhs *= vand_h
    rhs = rhs.sum(axis=1)
    # np.linalg.cond(gram) < limit, from the singular values cond takes: a
    # zero smallest value or a NaN ratio takes the fallback
    sv = np.linalg.svd(gram, compute_uv=False).tolist()
    if sv[-1] > 0 and sv[0] / sv[-1] < _CONDITION_LIMIT:
        alpha = np.linalg.solve(gram, rhs)
    else:
        dense = np.vstack([z * vand[i][None, :] for i in range(m)])
        alpha, *_ = np.linalg.lstsq(dense, s.T.reshape(-1), rcond=None)
    return alpha


def forecast(
    model: DmdModel,
    amplitudes: np.ndarray,
    n_ahead: int,
    readout_row: int = 0,
    scaler: MinMaxScaler | None = None,
    clamp: tuple[float, float] | None = None,
) -> np.ndarray:
    """Extrapolate the readout row ``n_ahead`` thinned steps past the data.

    Powers start at ``model.n_snapshots``, the step after the last snapshot
    fitted.  Values are the real part of the mode sum weighted by
    ``amplitudes`` (from ``fit_amplitudes``); ``clamp`` bounds them (in
    pre-scaler units) and ``scaler`` optionally maps them back to newtons.
    """
    steps = np.arange(model.n_snapshots, model.n_snapshots + n_ahead)
    powers = model.ritz_values[None, :] ** steps[:, None]
    vals = (powers @ (model.ritz_vectors[readout_row] * amplitudes)).real
    if clamp is not None:
        vals = np.minimum(np.maximum(vals, clamp[0]), clamp[1])
    if scaler is not None:
        vals = scaler.invert(vals)
    return vals


def predict_batch(
    estimates_scaled: np.ndarray,
    hyper: ForecastHyperparams,
    scaler: MinMaxScaler,
    batch_samples: int = 62,
) -> np.ndarray | None:
    """Forecasts (newtons) covering the next batch, or None while warming up.

    The tail of the scaled estimate stream is smoothed (the LOWESS window
    reaches into the previous batches), the training window's delay block
    is thinned and then log-lifted, a fresh DMD model is fitted, and the
    readout row holding the newest sample is powered forward.  Forecasts
    are clamped to the calibration grip range before inverse scaling.
    """
    est = np.asarray(estimates_scaled, dtype=float)
    n_pred = round(hyper.window_modifier * batch_samples)
    n_smooth = round(hyper.smooth_modifier * batch_samples)
    n_ahead = math.ceil(batch_samples / hyper.thin_step)
    if est.size < n_pred:
        return None

    segment = est[-(n_pred + n_smooth):]
    smoothed = lowess_smooth(segment, n_smooth)
    window = smoothed[-n_pred:]

    # thinning drops some window samples before the lift sees them, so the
    # log-shift domain is checked on the whole window
    _check_log_shift(window)
    delay_block = thin(hankel_lift(window, hyper.delays), hyper.thin_step)
    lifted = np.vstack([log_interaction_lift(delay_block), delay_block])

    model = fit_dmd(lifted, hyper.n_modes)
    alpha = fit_amplitudes(model, lifted)
    # the readout is the last delay row, the one holding the newest sample
    return forecast(model, alpha, n_ahead, lifted.shape[0] - 1, scaler=scaler, clamp=(0.0, 1.0))


def grid_search(
    evaluate,
    *,
    window_modifiers,
    smooth_modifiers,
    thin_steps,
    delay_counts,
    mode_counts,
):
    """Rank hyperparameter combinations by mean + median wMAPE on a corpus.

    ``evaluate(hyper) -> per-recording wMAPE array`` is injected by the
    caller (the streaming simulator provides one); every grid axis is a
    required keyword, which ``emgrip tune`` fills from its flags.  Ties in
    the score break lexicographically on the hyperparameter tuple, so the
    ranking is total and deterministic.  Returns rows of
    (hyper, mean_wmape, median_wmape, score) sorted best first.  A NaN or
    infinite wMAPE (say, a recording too short to forecast) has no rank: it
    is a ``DataError`` naming the first combination that returned one.
    """
    combos = [
        ForecastHyperparams(wm, sm, ts, d, nm)
        for wm in window_modifiers
        for sm in smooth_modifiers
        for ts in thin_steps
        for d in delay_counts
        for nm in mode_counts
    ]
    if not combos:
        raise DataError("empty hyperparameter grid")
    rows = []
    for hyper in combos:
        wmapes = np.asarray(evaluate(hyper), dtype=float)
        if not np.isfinite(wmapes).all():
            raise DataError(f"non-finite wMAPE for {hyper}")
        mean = float(wmapes.mean())
        median = float(np.median(wmapes))
        rows.append((hyper, mean, median, mean + median))
    rows.sort(
        key=lambda r: (
            r[3],
            r[0].window_modifier,
            r[0].smooth_modifier,
            r[0].thin_step,
            r[0].delays,
            r[0].n_modes,
        )
    )
    return rows
