"""Static Koopman-style estimation of grip force from the EMG envelope.

Both streams are downsampled, min-max scaled, and lifted: a Hankel block of
time-shifted copies plus, for the EMG side, binary indicator observables
marking which cell of a power-spaced grid the (base, tau1, tau2) delay
triple falls in.  A matrix K mapping lifted EMG to the grip Hankel block is
fitted on a calibration recording by minimum-norm least squares, singular
values <= 1e-10 * s_max dropped; at inference only the base-state readout
row is applied to the data under the batch window.

A column lies in at most one cell, so the indicator rows partition the
columns (the dictionary of Ulam's method) and are mutually orthogonal.  The
calibration lift therefore keeps E as a ``LiftedMatrix``: the Hankel block
plus each column's cell, with no 0/1 rows written out.  The fit eliminates
the cells exactly: per-cell means come off the Hankel rows and off G, the
reduced problem in the Hankel rows alone is solved with the 1e-10 cut-off
relative to that reduced block, and each cell's weight is back-substituted
from its means.  A reduced block of deficient rank falls back to one solve
over all of E, which keeps the minimum-norm solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .calibration import MinMaxScaler
from .errors import ConfigError, DataError, NumericError
from .processing import (
    DEFAULT_BATCH_SIZE,
    NOMINAL_EMG_FS,
    SmoothingParams,
    SpectralMask,
    TimestampedSeries,
    process_recording,
    resample_linear,
)

_RCOND = 1e-10  # relative singular-value cut-off of the operator fit
GRIP_FLOOR = -1.0  # scaled units; estimates are clamped at or above it


@dataclass(frozen=True)
class HankelParams:
    """Time-delay embedding depth and stream decimation factor."""

    delays: int = 60
    downsample: int = 8

    def __post_init__(self):
        if self.delays < 0:
            raise ConfigError("delay count must be >= 0")
        if self.downsample < 1:
            raise ConfigError("downsample factor must be >= 1")


@dataclass(frozen=True)
class IndicatorGrid:
    """Power-spaced partition of the unit cube over three delay coordinates.

    Edges are (i / divisions) ** exponent, so cells crowd toward zero where
    the scaled envelope spends most of its time.  Cells seen in less than
    ``min_density`` of training columns are dropped.
    """

    divisions: int = 22
    exponent: float = 1.8
    tau1: int = 29
    tau2: int = 59
    min_density: float = 0.001

    def __post_init__(self):
        if self.divisions < 1:
            raise ConfigError("divisions must be >= 1")
        if (self.divisions + 2) ** 3 > np.iinfo(np.intp).max:
            # the cell lookup indexes (divisions + 2)**3 padded cells
            raise ConfigError(f"divisions {self.divisions} is too large to index the cells")
        if not self.exponent > 0:
            raise ConfigError("exponent must be positive")
        if not (1 <= self.tau1 < self.tau2):
            raise ConfigError("need 1 <= tau1 < tau2")
        if not 0.0 <= self.min_density <= 1.0:
            raise ConfigError("min_density must lie in [0, 1]")

    @cached_property
    def edges(self) -> np.ndarray:
        # worked out once per grid and shared by every lookup, so read-only
        edges = power_grid_bounds(self.divisions, self.exponent)
        edges.flags.writeable = False
        return edges

    @cached_property
    def search_edges(self) -> np.ndarray:
        """``edges`` with the first moved to the largest float below 0.

        A left bisection into them puts a coordinate in (edges[c],
        edges[c + 1]] at c + 1, and 0 and -0.0 at 1 with the rest of cell 0;
        negatives and -inf go to 0, values above 1, +inf and NaN to
        divisions + 1.
        """
        edges = self.edges.copy()
        edges[0] = np.nextafter(0.0, -1.0)
        edges.flags.writeable = False
        return edges


def hankel_lift(series: np.ndarray, delays: int) -> np.ndarray:
    """(delays+1) x (N-delays) matrix whose row r is the series shifted by r.

    Column n therefore holds the contiguous window series[n : n+delays+1].
    """
    return _hankel_view(series, delays).copy()


def _hankel_view(series: np.ndarray, delays: int) -> np.ndarray:
    """``hankel_lift`` as a read-only view whose rows overlap in memory."""
    x = np.ascontiguousarray(series, dtype=float)
    if x.ndim != 1:
        raise DataError("series must be 1-d")
    n_cols = x.size - delays
    if n_cols < 1 or delays < 0:
        raise DataError(f"series of {x.size} samples cannot embed {delays} delays")
    # the plain constructor: sliding_window_view's argument handling costs
    # ten times the copy of a per-batch window
    step = x.itemsize
    view = np.ndarray((delays + 1, n_cols), float, x, strides=(step, step))
    view.flags.writeable = False
    return view


def power_grid_bounds(divisions: int, exponent: float) -> np.ndarray:
    """Grid edges b_i = (i / divisions) ** exponent for i = 0..divisions."""
    if divisions < 1 or not exponent > 0:
        raise ConfigError("divisions >= 1 and exponent > 0 required")
    return (np.arange(divisions + 1) / divisions) ** exponent


def _padded_cells(hankel: np.ndarray, grid: IndicatorGrid) -> np.ndarray:
    """Cell index (i * n + j) * n + k per Hankel column, n = divisions + 2.

    i, j and k bisect the (base, tau1, tau2) coordinates into
    ``grid.search_edges``: 1..divisions are the grid's cells, 0 and n - 1
    pad it below 0 and above 1 (NaN included), so a column with any
    coordinate outside [0, 1] or not finite lies in a padding cell.  Cell c
    holds (edges[c], edges[c + 1]], and cell 0 also edges[0]: a point on a
    shared edge belongs to the lower-index cell, keeping the cells disjoint.
    """
    if hankel.shape[0] <= grid.tau2:
        raise ConfigError(
            f"grid taus ({grid.tau1}, {grid.tau2}) need at least {grid.tau2 + 1} Hankel rows"
        )
    n = grid.divisions + 2
    ijk = grid.search_edges.searchsorted(hankel[[0, grid.tau1, grid.tau2]])
    return [n * n, n, 1] @ ijk


def _dense_cells(padded: np.ndarray, grid: IndicatorGrid) -> np.ndarray:
    """Grid cells holding at least ``min_density`` of the columns, as
    ascending flat indices (i * divisions + j) * divisions + k."""
    n = grid.divisions + 2
    counts = np.bincount(padded, minlength=n**3).reshape(n, n, n)[1:-1, 1:-1, 1:-1]
    return np.flatnonzero(counts >= grid.min_density * padded.size)


def _cell_table(kept: np.ndarray, divisions: int) -> np.ndarray:
    """The ascending flat ``kept`` cells in ``_padded_cells``' encoding,
    followed by (divisions + 2)**3, which is above every cell."""
    n = divisions + 2
    ijk = np.unravel_index(np.asarray(kept, dtype=np.intp), (divisions,) * 3)
    table = np.append(np.ravel_multi_index(np.add(ijk, 1), (n, n, n)), n**3)
    table.flags.writeable = False
    return table


def _kept_positions(padded: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Position in ``table`` of each column's cell, found by one bisection;
    -1 for a column outside every kept cell."""
    pos = table.searchsorted(padded)
    pos[table[pos] != padded] = -1
    return pos


def _mark_cells(rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Set ``rows[cells[n], n]`` to 1 in a zeroed block with one row more
    than there are kept cells: the columns outside them (-1) mark the spare
    last row.  Returns the block without that row."""
    rows[cells, np.arange(cells.size)] = 1.0
    return rows[:-1]


def indicator_observables(
    hankel: np.ndarray, grid: IndicatorGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Binary observable rows for every sufficiently dense grid cell.

    Row r of the result marks the columns whose (base, tau1, tau2) triple
    falls in the r-th kept cell; cells covering fewer than ``min_density``
    of the columns are dropped.  Returns (rows, kept_flat_indices); flat
    indices run over divisions**3 candidate cells.
    """
    padded = _padded_cells(hankel, grid)
    kept = _dense_cells(padded, grid)
    cells = _kept_positions(padded, _cell_table(kept, grid.divisions))
    return _mark_cells(np.zeros((kept.size + 1, padded.size)), cells), kept


def indicator_rows_for(
    hankel: np.ndarray, model: EstimatorModel, rows: np.ndarray
) -> np.ndarray:
    """Write the indicator rows of ``model``'s kept cells into ``rows``, a
    (kept.size + 1) x columns block whose last row is spare, and return
    the kept.size x columns 0/1 block above it (inference path).

    Each column's cell comes from one bisection of its three delay
    coordinates into ``grid.search_edges`` and one of that cell into
    ``model.cell_table``.  Columns landing in cells outside ``kept`` (or
    outside [0, 1]^3) get all-zero observables.
    """
    cells = _kept_positions(_padded_cells(hankel, model.grid), model.cell_table)
    rows.fill(0.0)
    return _mark_cells(rows, cells)


@dataclass(frozen=True)
class LiftedMatrix:
    """The lifted calibration matrix E, kept as the two parts it is made of.

    ``dense`` is the EMG Hankel block, (delays+1) x N; ``cells[n]`` is the
    position in the kept cell list of column n's grid cell, or -1 when the
    column lies in no kept cell.  E is ``dense`` stacked over ``n_cells``
    0/1 indicator rows, row r set where ``cells == r``; the rows are never
    written out unless ``toarray`` asks for them.
    """

    dense: np.ndarray
    cells: np.ndarray
    n_cells: int

    def __post_init__(self):
        if self.dense.ndim != 2 or np.shape(self.cells) != self.dense.shape[1:]:
            raise DataError("cells must hold one entry per column of the dense block")
        if self.cells.size and not -1 <= self.cells.min() <= self.cells.max() < self.n_cells:
            raise DataError(f"cells must lie in [-1, {self.n_cells})")

    @property
    def shape(self) -> tuple[int, int]:
        return self.dense.shape[0] + self.n_cells, self.dense.shape[1]

    def toarray(self) -> np.ndarray:
        """E as one dense array: the Hankel block over its indicator rows."""
        m = self.dense.shape[0]
        e = np.zeros((self.shape[0] + 1, self.shape[1]))
        e[:m] = self.dense
        _mark_cells(e[m:], self.cells)
        return e[:-1]


def build_lifted_matrices(
    emg_ds: np.ndarray,
    grip_ds: np.ndarray,
    emg_scaler: MinMaxScaler,
    grip_scaler: MinMaxScaler,
    params: HankelParams,
    grid: IndicatorGrid,
) -> tuple[LiftedMatrix, np.ndarray, np.ndarray]:
    """Scaled, lifted data matrices for fitting the static operator.

    Returns (E, G, kept).  E is a ``LiftedMatrix``: the EMG Hankel block,
    a read-only view of the scaled series, plus each column's position in
    ``kept``; its 0/1 indicator rows are not built.  G is the grip Hankel
    block, a read-only view of the scaled grip.  Both inputs must already
    share timestamps (same downsampled grid).
    """
    emg_ds = np.asarray(emg_ds, dtype=float)
    grip_ds = np.asarray(grip_ds, dtype=float)
    if emg_ds.size != grip_ds.size:
        raise DataError("EMG and grip series must have equal length")
    he = _hankel_view(emg_scaler.apply(emg_ds), params.delays)
    padded = _padded_cells(he, grid)
    kept = _dense_cells(padded, grid)
    cells = _kept_positions(padded, _cell_table(kept, grid.divisions))
    hg = _hankel_view(grip_scaler.apply(grip_ds), params.delays)
    return LiftedMatrix(he, cells, kept.size), hg, kept


def fit_static_koopman(e: LiftedMatrix | np.ndarray, g: np.ndarray) -> np.ndarray:
    """Frobenius-optimal linear map K with G ~= K E, the minimum-norm least
    squares solution with singular values <= 1e-10 * s_max dropped.

    A plain array E goes through one solve.  For a ``LiftedMatrix`` the
    indicator rows are eliminated exactly, as in the first block of a
    Householder QR: they are orthogonal, so for any K_dense the best weight
    of a cell is the cell's mean of G - K_dense E_dense.  Subtracting
    per-cell means from the dense rows of E and from G leaves a
    least-squares problem in the dense rows alone (61 unknowns per G row
    instead of 232 on the default calibration), solved with the 1e-10
    cut-off taken relative to that reduced block; then K_cell = mean_G -
    K_dense @ mean_E, and a cell with no columns gets exactly 0.  When the
    reduced block has rank below its row count, ``e.toarray()`` goes through
    one solve instead, so a rank-deficient fit keeps its minimum-norm
    solution.
    """
    lifted = e if isinstance(e, LiftedMatrix) else None
    dense = lifted.dense if lifted is not None else np.asarray(e, dtype=float)
    g = np.asarray(g, dtype=float)
    if dense.size == 0 or g.size == 0 or dense.shape[1] != g.shape[1]:
        raise DataError("E and G must be non-empty with equal column counts")
    if not (np.isfinite(dense).all() and np.isfinite(g).all()):
        raise NumericError("E and G must be finite")
    k = _fit_eliminating_cells(lifted, g) if lifted is not None else None
    if k is None:
        full = lifted.toarray() if lifted is not None else dense
        k = np.linalg.lstsq(full.T, g.T, rcond=_RCOND)[0].T
    # row-major like a model read from file, so both give bit-equal estimates
    return np.ascontiguousarray(k)


def _fit_eliminating_cells(e: LiftedMatrix, g: np.ndarray) -> np.ndarray | None:
    """K with E's indicator rows eliminated; None when the reduced solve is
    rank-deficient."""
    m = e.dense.shape[0]
    inside = e.cells >= 0
    counts = np.bincount(e.cells[inside], minlength=e.n_cells)
    occupied = np.flatnonzero(counts)
    counts = counts[occupied]
    # rows of d and y are the columns of E_dense and G, cell by cell; the
    # columns outside every cell sort first and are not centred
    order = np.argsort(e.cells, kind="stable")
    ends = np.cumsum(counts) + (e.cells.size - np.count_nonzero(inside))
    starts = ends - counts
    d = e.dense.T[order]
    y = g.T[order]
    mean_d = np.add.reduceat(d, starts, axis=0) / counts[:, None]
    mean_y = np.add.reduceat(y, starts, axis=0) / counts[:, None]
    # exact arithmetic needs no centred G (the centred d is orthogonal to
    # the cell means), but centring it keeps K ~4x closer to the SVD route
    for a, b, md, my in zip(starts.tolist(), ends.tolist(), mean_d, mean_y):
        d[a:b] -= md
        y[a:b] -= my
    k_dense, _, rank, _ = np.linalg.lstsq(d, y, rcond=_RCOND)
    if rank < m:
        return None
    k = np.zeros((g.shape[0], e.shape[0]))
    k[:, :m] = k_dense.T
    k[:, m + occupied] = mean_y.T - k_dense.T @ mean_d.T
    return k


@dataclass(frozen=True)
class EstimatorModel:
    """Fitted static operator plus everything needed to replay it.

    ``mask`` and ``smoothing`` are the signal chain the operator was fitted
    on; it is only valid for envelopes processed the same way, in
    ``batch_size`` batches, which is always ``DEFAULT_BATCH_SIZE``.
    """

    k: np.ndarray
    emg_scaler: MinMaxScaler
    grip_scaler: MinMaxScaler
    hankel: HankelParams
    grid: IndicatorGrid
    kept: np.ndarray
    mask: SpectralMask
    smoothing: SmoothingParams
    fs: float = NOMINAL_EMG_FS
    batch_size: ClassVar[int] = DEFAULT_BATCH_SIZE

    def __post_init__(self):
        # the stream checks a recording's rate against fs, a check NaN or inf would pass
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise DataError(f"fs must be finite and positive, got {self.fs!r}")
        want = (self.hankel.delays + 1, self.lifted_dim)
        if np.shape(self.k) != want:
            raise DataError(f"K is {np.shape(self.k)}, expected {want}; refit with `fit`")
        # inference looks cells up by bisection, so an unsorted, repeated or
        # out-of-grid entry would silently move weights to the wrong cells
        n_cells = self.grid.divisions**3
        kept = self.kept
        if kept.ndim != 1 or (
            kept.size and (kept[0] < 0 or kept[-1] >= n_cells or (np.diff(kept) <= 0).any())
        ):
            raise DataError(f"kept cells must be strictly increasing within [0, {n_cells})")

    @cached_property
    def cell_table(self) -> np.ndarray:
        """``kept`` as the bisection table of ``indicator_rows_for``, built
        once per model: kept.size + 1 entries, whatever ``divisions`` is."""
        return _cell_table(self.kept, self.grid.divisions)

    @property
    def lifted_dim(self) -> int:
        return self.hankel.delays + 1 + self.kept.size

    def min_window(self) -> int:
        return (self.hankel.delays + 1) * self.hankel.downsample


def fit_estimator(
    emg: TimestampedSeries,
    grip: TimestampedSeries,
    mask: SpectralMask,
    smoothing: SmoothingParams,
    hankel: HankelParams = HankelParams(),
    grid: IndicatorGrid = IndicatorGrid(),
) -> EstimatorModel:
    """Train the static estimator on one calibration recording.

    The EMG is processed in ``DEFAULT_BATCH_SIZE`` batches with the given
    mask/smoothing (``process_recording``, bit-identical to the stream),
    grip is resampled onto the EMG clock, both are decimated and min-max
    scaled on this recording, and the lifted matrices are solved in one
    shot.
    """
    if grid.tau2 > hankel.delays - 1:
        raise ConfigError("tau2 must be at most delays - 1")
    processed = process_recording(emg, mask, smoothing)
    grip_on_emg = resample_linear(grip, emg.times[: processed.size])
    step = hankel.downsample
    emg_ds = processed[::step]
    grip_ds = grip_on_emg[::step]
    if emg_ds.size <= hankel.delays:
        raise DataError("calibration recording too short for the delay depth")
    emg_scaler = MinMaxScaler.fit(emg_ds)
    grip_scaler = MinMaxScaler.fit(grip_ds)
    e, g, kept = build_lifted_matrices(
        emg_ds, grip_ds, emg_scaler, grip_scaler, hankel, grid
    )
    k = fit_static_koopman(e, g)
    return EstimatorModel(
        k, emg_scaler, grip_scaler, hankel, grid, kept, mask, smoothing, fs=emg.rate
    )


def estimate_window_scaled(model: EstimatorModel, window: np.ndarray) -> np.ndarray:
    """Scaled grip estimates for one window of processed EMG samples.

    The window is decimated, scaled, and lifted with the frozen grid; the
    estimate series comes from the base-state readout row and is floored
    at ``GRIP_FLOOR``.  Estimate i aligns with decimated window
    position i.  ``indicator_rows_for`` writes the 0/1 rows straight into
    the lifted block, each column's cell found by bisection into the grid
    edges and then into ``model.cell_table``, which is built once per model.
    """
    window = np.asarray(window, dtype=float)
    if window.size < model.min_window():
        raise DataError(
            f"window of {window.size} samples is shorter than {model.min_window()}"
        )
    ds = model.emg_scaler.apply(window[:: model.hankel.downsample])
    he = hankel_lift(ds, model.hankel.delays)
    # the lifted columns over one spare row for indicator_rows_for
    lifted = np.empty((model.lifted_dim + 1, he.shape[1]))
    lifted[: he.shape[0]] = he
    indicator_rows_for(he, model, lifted[he.shape[0] :])
    est = model.k[0] @ lifted[:-1]
    return np.maximum(est, GRIP_FLOOR)


def estimate_batch(model: EstimatorModel, window: np.ndarray) -> np.ndarray:
    """Grip estimates in newtons for one window of processed EMG samples."""
    return model.grip_scaler.invert(estimate_window_scaled(model, window))
