import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from emgrip.calibration import MinMaxScaler
from emgrip.errors import ConfigError, DataError, NumericError
from emgrip.estimation import (
    GRIP_FLOOR,
    EstimatorModel,
    HankelParams,
    IndicatorGrid,
    LiftedMatrix,
    _hankel_view,
    _RCOND,
    build_lifted_matrices,
    estimate_batch,
    estimate_window_scaled,
    fit_estimator,
    fit_static_koopman,
    hankel_lift,
    indicator_observables,
    power_grid_bounds,
)
from emgrip.metrics import wmape
from emgrip.processing import (
    SmoothingParams,
    SpectralMask,
    TimestampedSeries,
    process_recording,
    resample_linear,
)
from emgrip.synth import synth_recording

import cell_oracle


class TestHankelLift:
    def test_direct_instantiation(self):
        h = hankel_lift(np.array([1.0, 2, 3, 4, 5]), 2)
        assert np.array_equal(h, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_zero_delays(self):
        x = np.arange(7.0)
        h = hankel_lift(x, 0)
        assert h.shape == (1, 7)
        assert np.array_equal(h[0], x)

    def test_sliding_window_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(40)
        d = 6
        h = hankel_lift(x, d)
        for n in range(h.shape[1]):
            assert np.array_equal(h[:, n], x[n : n + d + 1])

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            hankel_lift(np.zeros(5), 5)


class TestPowerGridBounds:
    def test_uniform_when_exponent_one(self):
        assert np.allclose(power_grid_bounds(2, 1.0), [0.0, 0.5, 1.0])

    def test_first_edge_value(self):
        edges = power_grid_bounds(22, 1.8)
        assert edges[1] == pytest.approx((1 / 22) ** 1.8)
        assert edges[1] == pytest.approx(0.00388, abs=5e-5)

    def test_strictly_increasing_endpoint_exact(self):
        for div, expo in [(2, 1.0), (5, 0.7), (22, 1.8), (40, 3.0)]:
            edges = power_grid_bounds(div, expo)
            assert edges[0] == 0.0 and edges[-1] == 1.0
            assert np.all(np.diff(edges) > 0)


def _naive_cell(value, edges):
    """Lowest-index closed interval [b_i, b_{i+1}] containing the value."""
    for i in range(edges.size - 1):
        if edges[i] <= value <= edges[i + 1]:
            return i
    return -1


def _naive_indicator(hankel, grid):
    edges = grid.edges
    div = grid.divisions
    n_cols = hankel.shape[1]
    rows = np.zeros((div**3, n_cols))
    for n in range(n_cols):
        i = _naive_cell(hankel[0, n], edges)
        j = _naive_cell(hankel[grid.tau1, n], edges)
        k = _naive_cell(hankel[grid.tau2, n], edges)
        if i >= 0 and j >= 0 and k >= 0:
            rows[(i * div + j) * div + k, n] = 1.0
    return rows


class TestIndicatorObservables:
    def test_single_column_example(self):
        grid = IndicatorGrid(divisions=2, exponent=1.0, tau1=1, tau2=2, min_density=0.0)
        h = np.array([[0.2], [0.7], [0.4]])
        rows, kept = indicator_observables(h, grid)
        hot = kept[rows[:, 0] == 1.0]
        assert hot.size == 1
        # (i, j, k) = (0, 1, 0) -> flat index 0*4 + 1*2 + 0
        assert hot[0] == 2

    def test_all_data_one_cell(self):
        grid = IndicatorGrid(divisions=4, exponent=1.0, tau1=1, tau2=2)
        h = np.full((3, 50), 0.1)
        rows, kept = indicator_observables(h, grid)
        assert rows.shape[0] == 1
        assert np.all(rows == 1.0)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(5)
        grid = IndicatorGrid(divisions=5, exponent=1.8, tau1=1, tau2=2, min_density=0.0)
        h = rng.uniform(-0.1, 1.1, size=(3, 1000))  # some triples out of range
        rows, kept = indicator_observables(h, grid)
        naive = _naive_indicator(h, grid)
        assert np.array_equal(kept, np.arange(grid.divisions**3))
        assert np.array_equal(rows, naive)

    def test_disjoint_and_candidate_count(self):
        rng = np.random.default_rng(6)
        grid = IndicatorGrid(divisions=22, exponent=1.8, tau1=1, tau2=2, min_density=0.0)
        h = rng.uniform(0, 1, size=(3, 500))
        rows, kept = indicator_observables(h, grid)
        assert kept.size <= 22**3
        assert rows.shape[0] == kept.size
        assert np.all(rows.sum(axis=0) <= 1.0)

    def test_density_filter(self):
        grid = IndicatorGrid(divisions=2, exponent=1.0, tau1=1, tau2=2, min_density=0.5)
        h = np.array([[0.1] * 9 + [0.9], [0.1] * 9 + [0.9], [0.1] * 9 + [0.9]])
        rows, kept = indicator_observables(h, grid)
        assert kept.size == 1  # the 10% cell is dropped

    def test_boundary_tie_goes_to_lower_cell(self):
        grid = IndicatorGrid(divisions=2, exponent=1.0, tau1=1, tau2=2, min_density=0.0)
        h = np.full((3, 1), 0.5)  # exactly on the shared edge
        rows, kept = indicator_observables(h, grid)
        hot = kept[rows[:, 0] == 1.0]
        assert hot[0] == 0  # cell (0, 0, 0)

    def test_out_of_range_hits_no_cell(self):
        grid = IndicatorGrid(divisions=3, exponent=1.0, tau1=1, tau2=2, min_density=0.0)
        h = np.array([[1.2], [0.5], [0.5]])
        rows, kept = indicator_observables(h, grid)
        assert np.array_equal(kept, np.arange(27))
        assert np.all(rows == 0.0)

    def test_tau_out_of_range_rejected(self):
        grid = IndicatorGrid(divisions=2, exponent=1.0, tau1=3, tau2=5)
        with pytest.raises(ConfigError):
            indicator_observables(np.zeros((4, 10)), grid)


class TestBuildLiftedMatrices:
    def _scalers(self):
        return MinMaxScaler(0.0, 1.0), MinMaxScaler(0.0, 1.0)

    def test_degenerate_grid_plain_hankel(self):
        rng = np.random.default_rng(1)
        emg = rng.uniform(0.2, 0.8, 50)
        grip = rng.uniform(0.2, 0.8, 50)
        params = HankelParams(delays=4, downsample=1)
        # data spread over several cells, so no cell reaches 100% density
        grid = IndicatorGrid(divisions=2, exponent=1.0, tau1=1, tau2=3, min_density=1.0)
        es, gs = self._scalers()
        e, g, kept = build_lifted_matrices(emg, grip, es, gs, params, grid)
        assert kept.size == 0
        assert e.shape == (5, 46)
        assert g.shape == (5, 46)

    def test_row_counts(self):
        rng = np.random.default_rng(2)
        emg = rng.uniform(0, 1, 80)
        grip = rng.uniform(0, 1, 80)
        params = HankelParams(delays=6, downsample=1)
        grid = IndicatorGrid(divisions=3, exponent=1.0, tau1=2, tau2=5, min_density=0.0)
        es, gs = self._scalers()
        e, g, kept = build_lifted_matrices(emg, grip, es, gs, params, grid)
        assert e.shape[0] == 7 + kept.size
        # G is the grip Hankel block alone: no rows pad it to E's height
        assert g.shape == (7, e.shape[1])

    def test_e_is_hankel_over_indicator_rows(self):
        rng = np.random.default_rng(4)
        emg = rng.uniform(0, 1, 300)
        grip = rng.uniform(0, 1, 300)
        params = HankelParams(delays=6, downsample=1)
        grid = IndicatorGrid(divisions=3, exponent=1.8, tau1=2, tau2=5, min_density=0.01)
        es, gs = self._scalers()
        e, g, kept = build_lifted_matrices(emg, grip, es, gs, params, grid)
        he = hankel_lift(emg, params.delays)
        rows, want_kept = indicator_observables(he, grid)
        assert np.array_equal(kept, want_kept)
        assert np.array_equal(e.dense, he) and not e.dense.flags.writeable
        assert np.array_equal(e.toarray(), np.vstack([he, rows]))
        assert np.array_equal(g, hankel_lift(grip, params.delays)) and not g.flags.writeable

    def test_zero_grip_hankel_block_zero(self):
        rng = np.random.default_rng(3)
        emg = rng.uniform(0, 1, 60)
        grip = np.zeros(60)
        params = HankelParams(delays=5, downsample=1)
        grid = IndicatorGrid(divisions=2, exponent=1.0, tau1=1, tau2=4, min_density=0.0)
        es = MinMaxScaler(0.0, 1.0)
        gs = MinMaxScaler(0.0, 100.0)  # fitted on the calibration range
        _, g, _ = build_lifted_matrices(emg, grip, es, gs, params, grid)
        assert np.all(g == 0.0)

    def test_length_mismatch_rejected(self):
        es, gs = self._scalers()
        with pytest.raises(DataError):
            build_lifted_matrices(
                np.zeros(30), np.zeros(29), es, gs, HankelParams(2, 1), IndicatorGrid(2, 1.0, 1, 1 + 1)
            )


class TestFitStaticKoopman:
    def test_scalar_map(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal((6, 60))
        k = fit_static_koopman(e, 2.0 * e)
        assert np.abs(k - 2.0 * np.eye(6)).max() < 1e-8

    def test_recovers_random_map(self):
        rng = np.random.default_rng(4)
        e = rng.standard_normal((20, 300))
        a = rng.standard_normal((20, 20))
        k = fit_static_koopman(e, a @ e)
        assert np.linalg.norm(k - a) / np.linalg.norm(a) < 1e-8

    def test_rank_deficient_matches_lstsq_residual(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((3, 40))
        e = np.vstack([base, base[0] + base[1]])  # rank 3 with 4 rows
        g = rng.standard_normal((4, 40))
        k = fit_static_koopman(e, g)
        res = np.linalg.norm(g - k @ e)
        kt, *_ = np.linalg.lstsq(e.T, g.T, rcond=None)
        res_ref = np.linalg.norm(g - kt.T @ e)
        assert res == pytest.approx(res_ref, abs=1e-8)

    def test_global_minimum_under_perturbation(self):
        rng = np.random.default_rng(6)
        e = rng.standard_normal((8, 50))
        g = rng.standard_normal((8, 50))
        k = fit_static_koopman(e, g)
        res0 = np.linalg.norm(g - k @ e)
        for _ in range(25):
            dk = rng.standard_normal(k.shape)
            dk *= 1e-3 / np.linalg.norm(dk)
            assert np.linalg.norm(g - (k + dk) @ e) >= res0 - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_static_koopman(np.zeros((0, 0)), np.zeros((0, 0)))

    @pytest.mark.parametrize("side", ["e", "g", "lifted"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, side, bad):
        rng = np.random.default_rng(7)
        mats = {"e": rng.standard_normal((5, 40)), "g": rng.standard_normal((3, 40))}
        mats["g" if side == "g" else "e"][1, 7] = bad
        e = LiftedMatrix(mats["e"], np.zeros(40, dtype=int), 1) if side == "lifted" else mats["e"]
        with pytest.raises(NumericError):
            fit_static_koopman(e, mats["g"])


def _svd_oracle(e, g, rcond=1e-10):
    """Reference solve: SVD pseudoinverse with the same rcond rank rule."""
    u, s, vt = np.linalg.svd(e, full_matrices=False)
    keep = s > rcond * s[0]
    return ((g @ vt[keep].T) / s[keep]) @ u[:, keep].T


def _spy_lstsq(monkeypatch):
    """Record the coefficient-matrix shape of every ``np.linalg.lstsq`` call."""
    shapes = []
    real = np.linalg.lstsq

    def spy(a, b, rcond=None):
        shapes.append(np.shape(a))
        return real(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return shapes


def _partition_rows(cells, n_cells):
    """0/1 rows, one per cell; column j is set in row cells[j] (none if -1)."""
    rows = np.zeros((n_cells, cells.size))
    inside = cells >= 0
    rows[cells[inside], np.flatnonzero(inside)] = 1.0
    return rows


class TestFitMatchesSvdOracle:
    @staticmethod
    def _check(e, g):
        k = fit_static_koopman(e, g)
        ref = _svd_oracle(e.toarray() if isinstance(e, LiftedMatrix) else e, g)
        assert k.shape == (g.shape[0], e.shape[0])
        assert np.abs(k - ref).max() <= 1e-10 * np.abs(ref).max()
        zero = ~g.any(axis=1)
        assert np.all(k[zero] == 0.0)
        return k

    def test_full_rank(self):
        rng = np.random.default_rng(11)
        self._check(rng.standard_normal((12, 200)), rng.standard_normal((5, 200)))

    def test_rank_deficient(self):
        rng = np.random.default_rng(12)
        e = rng.standard_normal((10, 150))
        e[9] = e[2] + e[5]
        self._check(e, rng.standard_normal((4, 150)))

    def test_zero_row_in_e(self):
        rng = np.random.default_rng(13)
        e = rng.standard_normal((10, 150))
        e[4] = 0.0
        k = self._check(e, rng.standard_normal((6, 150)))
        # a dead observable gets no weight, up to round-off
        assert np.abs(k[:, 4]).max() <= 1e-12 * np.abs(k).max()

    def test_zero_rows_in_g_give_zero_rows_of_k(self):
        rng = np.random.default_rng(14)
        e = rng.standard_normal((10, 150))
        g = np.vstack([rng.standard_normal((4, 150)), np.zeros((6, 150))])
        g[1] = 0.0
        k = self._check(e, g)
        assert np.count_nonzero(k.any(axis=1)) == 3

    def test_partition_block_with_empty_cells(self, monkeypatch):
        rng = np.random.default_rng(15)
        # cells 7..9 stay empty; -1 columns fall outside every cell
        cells = rng.integers(-1, 7, 300)
        e = LiftedMatrix(rng.standard_normal((6, 300)), cells, 10)
        assert np.array_equal(e.toarray(), np.vstack([e.dense, _partition_rows(cells, 10)]))
        g = np.vstack([rng.standard_normal((4, 300)), np.zeros((1, 300))])
        shapes = _spy_lstsq(monkeypatch)
        k = self._check(e, g)
        assert shapes == [(300, 6)]
        assert np.all(k[:, 6 + 7 :] == 0.0)

    def test_rank_deficient_dense_part_falls_back(self, monkeypatch):
        rng = np.random.default_rng(16)
        dense = rng.standard_normal((6, 300))
        dense[5] = dense[1] - 2.0 * dense[3]
        e = LiftedMatrix(dense, rng.integers(-1, 8, 300), 8)
        shapes = _spy_lstsq(monkeypatch)
        self._check(e, rng.standard_normal((4, 300)))
        assert shapes == [(300, 6), (300, 14)]

    def test_array_with_partition_block_takes_one_full_solve(self, monkeypatch):
        # only a LiftedMatrix says which rows are cells; an array is solved whole
        rng = np.random.default_rng(15)
        e = np.vstack([rng.standard_normal((6, 300)), _partition_rows(rng.integers(-1, 7, 300), 8)])
        shapes = _spy_lstsq(monkeypatch)
        self._check(e, rng.standard_normal((4, 300)))
        assert shapes == [(300, 14)]

    def test_lifted_matrix_without_cells(self, monkeypatch):
        rng = np.random.default_rng(18)
        e = LiftedMatrix(rng.standard_normal((6, 300)), np.full(300, -1), 3)
        shapes = _spy_lstsq(monkeypatch)
        k = self._check(e, rng.standard_normal((4, 300)))
        assert shapes == [(300, 6)]
        assert np.all(k[:, 6:] == 0.0)

    @pytest.mark.parametrize(
        "cells, n_cells", [(np.zeros(39, dtype=int), 1), (np.full(40, 2), 2), (np.full(40, -2), 2)]
    )
    def test_lifted_matrix_rejects_bad_cells(self, cells, n_cells):
        with pytest.raises(DataError):
            LiftedMatrix(np.zeros((5, 40)), cells, n_cells)

    def test_overlapping_binary_rows_take_the_generic_path(self, monkeypatch):
        rng = np.random.default_rng(17)
        binary = (rng.random((8, 300)) < 0.3).astype(float)
        assert (binary.sum(axis=0) > 1).any()
        e = np.vstack([rng.standard_normal((6, 300)), binary])
        shapes = _spy_lstsq(monkeypatch)
        self._check(e, rng.standard_normal((4, 300)))
        assert shapes == [(300, 14)]

    def test_seed42_fit_solves_only_the_dense_rows(self, monkeypatch, calib_recording, mask, smoothing):
        shapes = _spy_lstsq(monkeypatch)
        model = fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing)
        assert model.kept.size > 0
        assert [cols for _, cols in shapes] == [model.hankel.delays + 1]

    def test_seed42_calibration(self, calib_recording, mask, smoothing):
        e, g, _ = build_lifted_matrices(*_calibration_lift_args(calib_recording, mask, smoothing))
        assert g.shape == (HankelParams().delays + 1, e.shape[1])
        assert g.any(axis=1).all()
        self._check(e, g)


def _calibration_lift_args(recording, mask, smoothing, grid=IndicatorGrid()):
    """``build_lifted_matrices`` arguments as ``fit_estimator`` forms them."""
    params = HankelParams()
    processed = process_recording(recording.emg, mask, smoothing)
    grip = resample_linear(recording.grip, recording.emg.times[: processed.size])
    emg_ds, grip_ds = processed[:: params.downsample], grip[:: params.downsample]
    return emg_ds, grip_ds, MinMaxScaler.fit(emg_ds), MinMaxScaler.fit(grip_ds), params, grid


def _oracle_build_lifted_matrices(emg_ds, grip_ds, emg_scaler, grip_scaler, params, grid):
    """The lift that wrote E's indicator rows out as a dense 0/1 block."""
    emg_ds = np.asarray(emg_ds, dtype=float)
    grip_ds = np.asarray(grip_ds, dtype=float)
    if emg_ds.size != grip_ds.size:
        raise DataError("EMG and grip series must have equal length")
    he = _hankel_view(emg_scaler.apply(emg_ds), params.delays)
    kept = cell_oracle.dense_cells(cell_oracle.flat_cells(he, grid), grid)
    e = np.vstack([he, cell_oracle.indicator_rows(he, grid, kept)])
    hg = hankel_lift(grip_scaler.apply(grip_ds), params.delays)
    return e, hg, kept


def _oracle_fit(e, g):
    """The fit that found the 0/1 block by scanning E, then eliminated it."""
    k = _oracle_fit_eliminating_partition(e, g)
    if k is None:
        k = np.linalg.lstsq(e.T, g.T, rcond=_RCOND)[0].T
    return np.ascontiguousarray(k)


def _oracle_fit_eliminating_partition(e, g):
    binary = ((e == 0.0) | (e == 1.0)).all(axis=1)
    dense_rows = np.flatnonzero(~binary)
    m = dense_rows[-1] + 1 if dense_rows.size else 0
    block = e[m:]  # a view: the block is never copied
    if block.shape[0] == 0:
        return None
    hits = block.sum(axis=0)
    if hits.max() > 1.0:
        return None
    inside = hits > 0.0
    cell = np.where(inside, block.argmax(axis=0), -1)
    counts = np.bincount(cell[inside], minlength=block.shape[0])
    occupied = np.flatnonzero(counts)
    counts = counts[occupied]
    # columns outside every cell sort first and are not centred
    order = np.argsort(cell, kind="stable")
    first = e.shape[1] - np.count_nonzero(inside)
    starts = first + np.cumsum(counts) - counts
    d = e[:m, order]
    y = g[:, order]
    mean_d = np.add.reduceat(d, starts, axis=1) / counts
    mean_y = np.add.reduceat(y, starts, axis=1) / counts
    d[:, first:] -= np.repeat(mean_d, counts, axis=1)
    y[:, first:] -= np.repeat(mean_y, counts, axis=1)
    k_dense, _, rank, _ = np.linalg.lstsq(d.T, y.T, rcond=_RCOND)
    if rank < m:
        return None
    k = np.zeros((g.shape[0], e.shape[0]))
    k[:, :m] = k_dense.T
    k[:, m + occupied] = mean_y - k_dense.T @ mean_d
    return k


class TestFitFromCells:
    """The cell-based lift and fit against the dense 0/1-block ones, bit for bit."""

    @pytest.mark.parametrize("seed", [42, 47, 1234])
    def test_bit_identical_to_dense_block_fit(self, seed, calib_recording, mask, smoothing):
        recording = calib_recording if seed == 42 else synth_recording(seed=seed)
        args = _calibration_lift_args(recording, mask, smoothing)
        e, g, kept = build_lifted_matrices(*args)
        want_e, want_g, want_kept = _oracle_build_lifted_matrices(*args)
        assert np.array_equal(kept, want_kept) and np.array_equal(g, want_g)
        assert e.shape == want_e.shape
        assert np.array_equal(e.toarray(), want_e)
        k = fit_static_koopman(e, g)
        assert k.flags.c_contiguous
        assert np.array_equal(k, _oracle_fit(want_e, want_g))

    def test_fit_estimator_k_is_the_oracle_k(self, model, calib_recording, mask, smoothing):
        e, g, _ = _oracle_build_lifted_matrices(*_calibration_lift_args(calib_recording, mask, smoothing))
        assert np.array_equal(model.k, _oracle_fit(e, g))

    def test_warm_fit_peak(self, calib_recording, mask, smoothing):
        # no 0/1 block, no centring temporaries and no copy of G's Hankel
        # block: the whole warm seed-42 fit reads 4.7 MB, against 6.4 MB
        # with G copied and 14.4 MB when E's 0/1 block was built and centred
        # through np.repeat
        fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing)
        tracemalloc.start()
        try:
            fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5e6

    def test_every_cell_kept_scales_with_k(self, calib_recording, mask, smoothing):
        # min_density 0 keeps all 22**3 cells: a dense E would be 308 MB; the
        # fit reads 11.7 MB, 5.2 MB of which is K itself
        grid = IndicatorGrid(min_density=0.0)
        fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing, grid=grid)
        tracemalloc.start()
        try:
            model = fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(model.kept, np.arange(grid.divisions**3))
        assert peak <= model.k.nbytes + 8e6
        e, _, _ = build_lifted_matrices(*_calibration_lift_args(calib_recording, mask, smoothing, grid))
        counts = np.bincount(e.cells[e.cells >= 0], minlength=e.n_cells)
        cell_k = model.k[:, model.hankel.delays + 1 :]
        assert np.count_nonzero(counts == 0) > 9000
        assert np.all(cell_k[:, counts == 0] == 0.0)
        assert np.all(cell_k[:, counts > 0].any(axis=0))


def _linear_coupling_model():
    """Grip is a scaled, delayed copy of the envelope: exactly learnable."""
    t = np.arange(1200) / 100.0
    emg = 1.0 + 0.5 * np.sin(2 * np.pi * 0.05 * t) + 0.3 * np.sin(2 * np.pi * 0.13 * t + 1.0)
    shift = 3  # decimated steps
    grip = 0.5 * np.concatenate([np.full(shift, emg[0]), emg[:-shift]])
    params = HankelParams(delays=10, downsample=2)
    grid = IndicatorGrid(divisions=3, exponent=1.8, tau1=2, tau2=9, min_density=0.0)
    es = MinMaxScaler.fit(emg[::2])
    gs = MinMaxScaler.fit(grip[::2])
    e, g, kept = build_lifted_matrices(emg[::2], grip[::2], es, gs, params, grid)
    k = fit_static_koopman(e, g)
    mask = SpectralMask(np.ones(51), bin_resolution=1.0)  # 100-sample batches at 100 Hz
    model = EstimatorModel(
        k, es, gs, params, grid, kept, mask, SmoothingParams(10, 0.0), fs=100.0
    )
    return model, emg, grip


class TestEstimateBatch:
    def test_linear_coupling_recovered(self):
        model, emg, grip = _linear_coupling_model()
        window = emg[300:340]
        est = estimate_batch(model, window)
        truth = grip[300:340:2][: est.size]
        assert wmape(truth, est) <= 1.0

    def test_window_too_short_rejected(self):
        model, emg, _ = _linear_coupling_model()
        with pytest.raises(DataError):
            estimate_batch(model, emg[:20])

    def test_scaled_floor_applies(self):
        model, emg, _ = _linear_coupling_model()
        scaled = estimate_window_scaled(model, emg[:40])
        assert np.all(scaled >= GRIP_FLOOR)

    def test_operator_shape_checked(self):
        model, _, _ = _linear_coupling_model()
        padded = np.vstack([model.k, np.zeros((model.kept.size, model.lifted_dim))])
        with pytest.raises(DataError, match="refit with `fit`"):
            replace(model, k=padded)
        with pytest.raises(DataError):
            replace(model, kept=model.kept[:-1])

    @pytest.mark.parametrize(
        "kept",
        [[0, 2, 1, *range(3, 27)], [-1, *range(1, 27)], [0, 0, *range(2, 27)], [*range(26), 27]],
        ids=["swapped", "negative", "duplicate", "out_of_grid"],
    )
    def test_kept_must_increase_within_the_grid(self, kept):
        model, _, _ = _linear_coupling_model()
        assert np.array_equal(model.kept, np.arange(27))
        with pytest.raises(DataError, match=r"strictly increasing within \[0, 27\)"):
            replace(model, kept=np.array(kept))

    def test_zero_window_is_clamped_offset_response(self):
        model, emg, _ = _linear_coupling_model()
        est = estimate_window_scaled(model, np.zeros(40))
        assert np.all(est >= GRIP_FLOOR)
        assert np.all(np.isfinite(est))


class TestFitEstimator:
    def test_affine_grip_equivariance(self, calib_recording, test_recording, mask, smoothing):
        m1 = fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing)
        a, b = 2.5, -7.0
        grip2 = TimestampedSeries(
            calib_recording.grip.times, a * calib_recording.grip.values + b
        )
        m2 = fit_estimator(calib_recording.emg, grip2, mask, smoothing)
        proc = process_recording(test_recording.emg, mask, smoothing)
        window = proc[:976]
        e1 = estimate_batch(m1, window)
        e2 = estimate_batch(m2, window)
        assert np.abs(e2 - (a * e1 + b)).max() < 1e-8

    def test_estimates_bounded_below_by_inverse_floor(self, model, stream_result):
        floor_n = model.grip_scaler.invert(GRIP_FLOOR)
        assert np.all(stream_result.estimates >= floor_n - 1e-12)

    def test_kept_cells_within_bound(self, model):
        assert model.kept.size <= model.grid.divisions**3
        assert model.k.shape == (model.hankel.delays + 1, model.lifted_dim)

    def test_training_time_budget(self, calib_recording, mask, smoothing, model):
        start = time.perf_counter()
        fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing)
        assert time.perf_counter() - start <= 1.5

    def test_tau_versus_delays_validated(self, calib_recording, mask, smoothing):
        with pytest.raises(ConfigError):
            fit_estimator(
                calib_recording.emg,
                calib_recording.grip,
                mask,
                smoothing,
                HankelParams(delays=30),
                IndicatorGrid(),  # tau2 = 59 > delays - 1
            )

    def test_estimation_lifts_the_decimated_window(self):
        # the batch path must equal decimating first, then scaling + lifting
        model, emg, _ = _linear_coupling_model()
        window = emg[100:180]
        got = estimate_window_scaled(model, window)
        ds = model.emg_scaler.apply(window[:: model.hankel.downsample])
        he = hankel_lift(ds, model.hankel.delays)
        lifted = np.vstack([he, cell_oracle.indicator_rows(he, model.grid, model.kept)])
        want = np.maximum(model.k[0] @ lifted, GRIP_FLOOR)
        assert np.array_equal(got, want)
