import dataclasses

import numpy as np
import pytest

import emgrip.forecasting
from emgrip.calibration import MinMaxScaler
from emgrip.errors import ConfigError, DataError
from emgrip.estimation import hankel_lift
from emgrip.forecasting import (
    ForecastHyperparams,
    _conjugate_units,
    _lowess_weights,
    fit_amplitudes,
    fit_dmd,
    forecast,
    grid_search,
    log_interaction_lift,
    lowess_smooth,
    predict_batch,
    thin,
)

LAM_TRUE = np.array(
    [
        0.98 * np.exp(0.3j),
        0.98 * np.exp(-0.3j),
        0.9 * np.exp(0.8j),
        0.9 * np.exp(-0.8j),
    ]
)


def two_sinusoid_snapshots(n=80, delays=7):
    k = np.arange(n)
    x = np.real(LAM_TRUE[0] ** k) + np.real(LAM_TRUE[2] ** k)
    return hankel_lift(x, delays)


def dense_lowess(values, window):
    """The original LOWESS: weights rebuilt from the distance matrix per call."""
    y = np.asarray(values, dtype=float)
    n = y.size
    x = np.arange(n, dtype=float)
    if n <= window:
        if n < 2:
            return y.copy()
        return np.polyval(np.polyfit(x, y, 1), x)
    dist = np.abs(x[:, None] - x[None, :])
    h = np.partition(dist, window - 1, axis=1)[:, window - 1]
    u = np.clip(dist / h[:, None], 0.0, 1.0)
    w = (1.0 - u**3) ** 3
    sw = w.sum(axis=1)
    swx = w @ x
    swy = w @ y
    swxx = w @ (x * x)
    swxy = w @ (x * y)
    denom = sw * swxx - swx**2
    denom = np.where(denom == 0, 1.0, denom)
    slope = (sw * swxy - swx * swy) / denom
    intercept = (swy - slope * swx) / sw
    return intercept + slope * x


def per_eigenvalue_refinement(snapshots):
    """The original residual-DMD refinement: one SVD per eigenvalue.

    Returns every eigenvalue with its refined Ritz vector (in snapshot
    coordinates) and residual, before any mode selection.
    """
    s = np.asarray(snapshots, dtype=float)
    rows, m = s.shape
    q, c = np.linalg.qr(s) if rows > m else (None, s)
    x, y = c[:, :-1], c[:, 1:]
    u, sv, vh = np.linalg.svd(x, full_matrices=False)
    tol = sv[0] * 1e-12 if sv.size and sv[0] > 0 else 0.0
    rank = max(1, int(np.sum(sv > tol)))
    u, sv, vh = u[:, :rank], sv[:rank], vh[:rank]
    b = (y @ vh.conj().T) / sv
    eigvals = np.linalg.eigvals(u.conj().T @ b)
    vectors = np.empty((c.shape[0], eigvals.size), dtype=complex)
    residuals = np.empty(eigvals.size)
    for idx, lam in enumerate(eigvals):
        _, sig, wh = np.linalg.svd(b - lam * u, full_matrices=False)
        residuals[idx] = sig[-1]
        vectors[:, idx] = u @ wh[-1].conj()
    if q is not None:
        vectors = q @ vectors
    return eigvals, vectors, residuals


def reference_conjugate_units(eigvals):
    """The original conjugate pairing, on NumPy scalars."""
    units = []
    used = np.zeros(eigvals.size, dtype=bool)
    for i, lam in enumerate(eigvals):
        if used[i]:
            continue
        used[i] = True
        if abs(lam.imag) <= 1e-14 * max(1.0, abs(lam)):
            units.append([i])
            continue
        partner = None
        best = np.inf
        for j in range(i + 1, eigvals.size):
            if used[j]:
                continue
            gap = abs(np.conj(lam) - eigvals[j])
            if gap < best:
                best, partner = gap, j
        if partner is not None and best <= 1e-8 * max(1.0, abs(lam)):
            used[partner] = True
            units.append([i, partner])
        else:
            units.append([i])
    return units


def reference_fit_dmd(snapshots, n_modes):
    """The original fit_dmd: every Ritz vector and every projected energy
    built before selection.  Returns (ritz_values, ritz_vectors, residuals)."""
    s = np.asarray(snapshots, dtype=float)
    rows, m = s.shape
    q, c = np.linalg.qr(s) if rows > m else (None, s)
    x, y = c[:, :-1], c[:, 1:]
    u, sv, vh = np.linalg.svd(x, full_matrices=False)
    tol = sv[0] * 1e-12 if sv.size and sv[0] > 0 else 0.0
    rank = max(1, int(np.sum(sv > tol)))
    u, sv, vh = u[:, :rank], sv[:rank], vh[:rank]
    b = (y @ vh.conj().T) / sv
    eigvals = np.linalg.eigvals(u.conj().T @ b)
    units = reference_conjugate_units(eigvals)
    leaders = [unit[0] for unit in units]
    stack = b[None] - eigvals[leaders, None, None] * u[None]
    _, sig, wh = np.linalg.svd(stack, full_matrices=False)
    lead_vectors = u @ wh[:, -1].conj().T
    vectors = np.empty((c.shape[0], eigvals.size), dtype=complex)
    residuals = np.empty(eigvals.size)
    vectors[:, leaders] = lead_vectors
    residuals[leaders] = sig[:, -1]
    for k, unit in enumerate(units):
        if len(unit) == 2:
            vectors[:, unit[1]] = lead_vectors[:, k].conj()
            residuals[unit[1]] = sig[k, -1]
    energy = np.linalg.norm(vectors.conj().T @ c, axis=1)
    units.sort(key=lambda unit: (residuals[unit].min(), -energy[unit].max()))
    chosen = []
    for unit in units:
        if len(chosen) + len(unit) <= n_modes:
            chosen.extend(unit)
        if len(chosen) == n_modes:
            break
    order = np.argsort(residuals[chosen], kind="stable")
    chosen = [chosen[i] for i in order]
    z = vectors[:, chosen]
    if q is not None:
        z = q @ z
    return eigvals[chosen], z, residuals[chosen]


def assert_matches_reference(snapshots, n_modes):
    model = fit_dmd(snapshots, n_modes)
    values, vectors, residuals = reference_fit_dmd(snapshots, n_modes)
    for got, want in ((model.ritz_values, values), (model.ritz_vectors, vectors),
                      (model.residuals, residuals)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestLowess:
    def test_linear_data_unchanged(self):
        y = 3.0 * np.arange(60) - 4.0
        out = lowess_smooth(y, 13)
        assert np.abs(out - y).max() < 1e-10

    def test_constant_data_unchanged(self):
        y = np.full(40, 2.5)
        out = lowess_smooth(y, 9)
        assert np.abs(out - y).max() < 1e-12

    def test_matches_pointwise_wls_oracle(self):
        rng = np.random.default_rng(0)
        n, window = 80, 17
        y = np.sin(np.arange(n) * 0.2) + 0.1 * rng.standard_normal(n)
        out = lowess_smooth(y, window)
        x = np.arange(n, dtype=float)
        for i in range(n):
            d = np.abs(x - x[i])
            h = np.sort(d)[window - 1]
            w = np.clip(d / h, 0, 1)
            w = (1 - w**3) ** 3
            A = np.array([[w.sum(), (w * x).sum()], [(w * x).sum(), (w * x * x).sum()]])
            b = np.array([(w * y).sum(), (w * x * y).sum()])
            beta = np.linalg.solve(A, b)
            assert abs(out[i] - (beta[0] + beta[1] * x[i])) < 1e-6

    def test_linear_superposition(self):
        rng = np.random.default_rng(1)
        y1 = rng.standard_normal(50)
        y2 = rng.standard_normal(50)
        out = lowess_smooth(y1 + y2, 11)
        ref = lowess_smooth(y1, 11) + lowess_smooth(y2, 11)
        assert np.abs(out - ref).max() < 1e-9

    def test_short_series_degrades_to_global_fit(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        out = lowess_smooth(y, 9)
        assert np.allclose(out, y, atol=1e-10)

    def test_window_minimum(self):
        with pytest.raises(ConfigError):
            lowess_smooth(np.zeros(10), 2)

    def test_bit_identical_to_dense_oracle(self):
        rng = np.random.default_rng(8)
        # alternate sizes so cached weights of one shape never serve another;
        # (4, 9) and (9, 9) take the n <= window polyfit fallback
        sizes = [(149, 68), (40, 9), (149, 68), (4, 9), (9, 9), (10, 9), (40, 9), (149, 68)]
        for n, window in sizes:
            y = np.sin(np.arange(n) * 0.13) + 0.2 * rng.standard_normal(n)
            y[n // 3] += 3.0  # an outlier
            out = lowess_smooth(y, window)
            assert np.array_equal(out, dense_lowess(y, window)), (n, window)

    def test_cached_weights_read_only(self):
        lowess_smooth(np.arange(30.0), 7)
        for arr in _lowess_weights(30, 7):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestLogInteractionLift:
    def test_single_pair_example(self):
        g1, g2, g3 = 0.4, -0.2, 1.1
        block = np.array([[g1, g2], [g2, g3]])
        out = log_interaction_lift(block)
        want = [
            np.log(g1 + 10) * np.log(g2 + 10),
            np.log(g2 + 10) * np.log(g3 + 10),
        ]
        assert out.shape == (1, 2)
        assert np.allclose(out[0], want, atol=1e-15)

    def test_row_count_for_eight_delays(self):
        block = np.random.default_rng(2).uniform(0, 1, (9, 20))
        assert log_interaction_lift(block).shape == (36, 20)

    def test_zero_entries_give_log_ten_squared(self):
        out = log_interaction_lift(np.zeros((3, 4)))
        assert np.allclose(out, np.log(10.0) ** 2)

    def test_domain_error(self):
        with pytest.raises(DataError):
            log_interaction_lift(np.array([[0.0, -10.0], [0.0, 0.0]]))


class TestThin:
    def test_step_one_identity(self):
        m = np.arange(12).reshape(3, 4)
        assert np.array_equal(thin(m, 1), m)

    def test_backward_stride_keeps_last(self):
        m = np.arange(10)[None, :]
        out = thin(m, 3)
        assert np.array_equal(out[0], [0, 3, 6, 9])

    def test_always_retains_final_column(self):
        rng = np.random.default_rng(3)
        for cols in range(2, 30):
            m = rng.standard_normal((2, cols))
            for step in range(1, 9):
                out = thin(m, step)
                assert np.array_equal(out[:, -1], m[:, -1])

    def test_rate_within_band(self):
        # 124 Hz decimated stream thinned by 7 -> ~17.7 Hz, inside 16-41 Hz
        assert 16.0 <= 124.0 / 7 <= 41.0


class TestFitDmd:
    def test_scalar_decay(self):
        s = (0.9 ** np.arange(30))[None, :]
        model = fit_dmd(s, 1)
        assert abs(model.ritz_values[0] - 0.9) < 1e-10

    def test_two_damped_sinusoids_spectrum(self):
        snaps = two_sinusoid_snapshots()
        model = fit_dmd(snaps, 4)
        got = np.sort_complex(model.ritz_values)
        want = np.sort_complex(LAM_TRUE)
        assert np.abs(got - want).max() < 1e-6

    def test_kept_residuals_not_worse_than_dropped(self):
        rng = np.random.default_rng(4)
        # rank-6 data, keep 4 modes
        k = np.arange(60)
        x = (
            np.real(LAM_TRUE[0] ** k)
            + np.real(LAM_TRUE[2] ** k)
            + 0.3 * np.real((0.7 * np.exp(1.1j)) ** k)
        )
        snaps = hankel_lift(x + 1e-9 * rng.standard_normal(60), 9)
        full = fit_dmd(snaps, 6)
        kept = fit_dmd(snaps, 4)
        dropped = [lv for lv in full.ritz_values if np.abs(kept.ritz_values - lv).min() > 1e-6]
        if dropped:
            worst_kept = kept.residuals.max()
            best_dropped = min(
                full.residuals[np.argmin(np.abs(full.ritz_values - lv))] for lv in dropped
            )
            assert worst_kept <= best_dropped + 1e-12

    def test_conjugate_pairs_kept_together(self):
        snaps = two_sinusoid_snapshots()
        model = fit_dmd(snaps, 4)
        vals = np.sort_complex(model.ritz_values)
        assert np.allclose(np.sort_complex(np.conj(vals)), vals, atol=1e-9)

    def test_unit_norm_vectors(self):
        model = fit_dmd(two_sinusoid_snapshots(), 4)
        norms = np.linalg.norm(model.ritz_vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-10)

    @pytest.mark.parametrize("case", ["two_sinusoids", "random", "all_real"])
    def test_matches_per_eigenvalue_refinement(self, case):
        rng = np.random.default_rng(9)
        if case == "two_sinusoids":
            snaps = two_sinusoid_snapshots()
        elif case == "random":
            snaps = rng.standard_normal((12, 9))
        else:
            k = np.arange(40)
            snaps = hankel_lift(0.95**k + 0.6**k - 0.3 * 0.8**k, 6)
        eigvals, vectors, residuals = per_eigenvalue_refinement(snaps)
        assert np.isrealobj(eigvals) == (case == "all_real")
        if case != "all_real":
            assert np.iscomplexobj(eigvals) and np.any(eigvals.imag != 0)

        model = fit_dmd(snaps, eigvals.size)  # keep every mode
        assert model.n_modes == eigvals.size
        scale = np.linalg.norm(snaps, 2)
        for j, lam in enumerate(model.ritz_values):
            (i,) = np.flatnonzero(eigvals == lam)
            assert np.isclose(model.residuals[j], residuals[i], rtol=1e-10, atol=1e-13 * scale)
            phase = np.vdot(vectors[:, i], model.ritz_vectors[:, j])
            assert abs(abs(phase) - 1.0) < 1e-10
            assert np.allclose(model.ritz_vectors[:, j], phase * vectors[:, i], atol=1e-10)

        # kept conjugate pairs are exact mirrors of each other
        for unit in _conjugate_units(model.ritz_values):
            if len(unit) == 2:
                a, b = unit
                assert model.ritz_values[b] == np.conj(model.ritz_values[a])
                assert np.array_equal(model.ritz_vectors[:, b], model.ritz_vectors[:, a].conj())
                assert model.residuals[b] == model.residuals[a]

    def test_bit_identical_to_reference_on_stream_snapshots(
        self, monkeypatch, test_recording, model, mask, smoothing
    ):
        from emgrip.simulate import stream_simulate

        seen = []
        original = emgrip.forecasting.fit_dmd

        def capture(snapshots, n_modes):
            seen.append((np.array(snapshots), n_modes))
            return original(snapshots, n_modes)

        monkeypatch.setattr(emgrip.forecasting, "fit_dmd", capture)
        stream_simulate(test_recording, model, mask, smoothing)
        monkeypatch.undo()
        assert len(seen) > 50
        for snapshots, n_modes in seen:
            assert_matches_reference(snapshots, n_modes)

    @pytest.mark.parametrize("shape", [(45, 11), (12, 9), (5, 14), (2, 6), (30, 4)])
    def test_bit_identical_to_reference_on_random_matrices(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for trial in range(4):
            snapshots = rng.standard_normal(shape)
            if trial % 2:  # rank 2 exercises the rank cut
                snapshots = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
            for n_modes in range(1, min(shape[1] - 1, 6) + 1):
                assert_matches_reference(snapshots, n_modes)

    def test_exact_residual_tie_broken_by_energy_like_reference(self):
        # eigvals gives (-1, 0); both real units have a residual of exactly
        # 0, and 0 has the larger projected energy, so it ranks first and
        # takes the one slot
        snapshots = np.array([[0.0, 1.0, -1.0], [2.0, 0.0, 0.0]])
        values, _, residuals = reference_fit_dmd(snapshots, 2)
        assert np.isrealobj(values) and values.tolist() == [0.0, -1.0]
        assert residuals[0] == residuals[1]
        for n_modes in (1, 2):
            assert_matches_reference(snapshots, n_modes)
        assert fit_dmd(snapshots, 1).ritz_values.tolist() == [0.0]

    @pytest.mark.parametrize("size", [2, 5, 8, 13, 21])
    def test_conjugate_units_match_reference_on_random_spectra(self, size):
        rng = np.random.default_rng(size)
        complex_spectra = 0
        for _ in range(20):
            eigvals = np.linalg.eigvals(rng.standard_normal((size, size)))
            complex_spectra += np.iscomplexobj(eigvals)
            assert _conjugate_units(eigvals) == reference_conjugate_units(eigvals)
        assert complex_spectra > 0

    def test_model_is_frozen_and_records_its_snapshots(self):
        snaps = two_sinusoid_snapshots()
        model = fit_dmd(snaps, 4)
        assert model.n_snapshots == snaps.shape[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.n_snapshots = 0
        before = dataclasses.astuple(model)
        fit_amplitudes(model, snaps)
        after = dataclasses.astuple(model)
        assert after[3] == before[3]
        for got, want in zip(after[:3], before[:3]):
            assert np.array_equal(got, want)

    def test_insufficient_snapshots_rejected(self):
        with pytest.raises(DataError):
            fit_dmd(np.zeros((3, 4)), 4)

    def test_one_step_reconstruction_on_linear_dynamics(self):
        snaps = two_sinusoid_snapshots()
        model = fit_dmd(snaps, 4)
        alpha = fit_amplitudes(model, snaps)
        m = snaps.shape[1]
        powers = model.ritz_values[None, :] ** np.arange(m)[:, None]
        recon = np.real((powers * alpha[None, :]) @ model.ritz_vectors.T).T
        err = np.linalg.norm(snaps[:, 1:] - recon[:, 1:]) / np.linalg.norm(snaps[:, 1:])
        assert err < 1e-8


class TestFitAmplitudes:
    def test_exact_model_class_recovered(self):
        rng = np.random.default_rng(5)
        lam = np.array([0.95 * np.exp(0.2j), 0.95 * np.exp(-0.2j)])
        z1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z = np.column_stack([z1, z1.conj()])  # conjugate pair keeps data real
        z /= np.linalg.norm(z, axis=0)
        alpha_true = np.array([1.3 - 0.4j, 1.3 + 0.4j])
        m = 25
        snaps = np.real(
            (lam[None, :] ** np.arange(m)[:, None] * alpha_true[None, :]) @ z.T
        ).T
        from emgrip.forecasting import DmdModel

        model = DmdModel(lam, z, np.zeros(2), m)
        alpha = fit_amplitudes(model, snaps)
        recon = np.real(
            (lam[None, :] ** np.arange(m)[:, None] * alpha[None, :]) @ z.T
        ).T
        assert np.linalg.norm(snaps - recon) / np.linalg.norm(snaps) < 1e-8

    def test_single_mode_single_snapshot_projection(self):
        from emgrip.forecasting import DmdModel

        z = np.array([[0.6], [0.8]], dtype=complex)
        g = np.array([[1.0], [2.0]])
        model = DmdModel(np.array([0.9 + 0j]), z, np.zeros(1), 1)
        alpha = fit_amplitudes(model, g)
        want = (z[:, 0].conj() @ g[:, 0]) / (z[:, 0].conj() @ z[:, 0])
        assert abs(alpha[0] - want) < 1e-12

    def test_ill_conditioned_falls_back_to_qr(self):
        from emgrip.forecasting import DmdModel

        rng = np.random.default_rng(6)
        # near-duplicate eigenvalues make the normal equations explode
        lam = np.array([0.9 + 0j, 0.9 + 1e-13 + 0j])
        z = rng.standard_normal((5, 2)).astype(complex)
        z /= np.linalg.norm(z, axis=0)
        m = 12
        snaps = np.real(
            (lam[None, :] ** np.arange(m)[:, None] * np.array([1.0, 0.5])[None, :]) @ z.T
        ).T
        model = DmdModel(lam, z, np.zeros(2), m)
        alpha = fit_amplitudes(model, snaps)
        recon = np.real(
            (lam[None, :] ** np.arange(m)[:, None] * alpha[None, :]) @ z.T
        ).T
        dense = np.vstack([z * (lam[None, :] ** i) for i in range(m)])
        ref, *_ = np.linalg.lstsq(dense, snaps.T.reshape(-1), rcond=None)
        recon_ref = np.real(
            (lam[None, :] ** np.arange(m)[:, None] * ref[None, :]) @ z.T
        ).T
        res = np.linalg.norm(snaps - recon)
        res_ref = np.linalg.norm(snaps - recon_ref)
        assert res <= res_ref + 1e-6

    @pytest.mark.parametrize("gap", [None, 1e-9, 1e-3, 0.1], ids=["zero_mode", "near", "mild", "well"])
    def test_branch_is_the_cond_test(self, gap):
        # the solve runs exactly where np.linalg.cond(gram) < 1e12 held, and
        # a gram whose smallest singular value is 0 falls back with no warning
        import warnings

        from emgrip.forecasting import _CONDITION_LIMIT, DmdModel

        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 1)).astype(complex)
        if gap is None:
            z = np.hstack([z, np.zeros_like(z)])  # gram's second row and column are 0
            lam = np.array([0.9, 0.5], dtype=complex)
        else:
            z = np.hstack([z, z + gap * rng.standard_normal((5, 1))])
            lam = np.array([0.9, 0.9 + gap], dtype=complex)
        m = 12
        snaps = rng.standard_normal((5, m))
        model = DmdModel(lam, z, np.zeros(2), m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = fit_amplitudes(model, snaps)
        vand = lam[None, :] ** np.arange(m)[:, None]
        gram = (z.conj().T @ z) * (vand.conj().T @ vand)
        with np.errstate(all="ignore"):
            solved = np.linalg.cond(gram) < _CONDITION_LIMIT
        if solved:
            rhs = ((z.conj().T @ snaps) * vand.conj().T).sum(axis=1)
            want = np.linalg.solve(gram, rhs)
        else:
            dense = np.vstack([z * vand[i][None, :] for i in range(m)])
            want = np.linalg.lstsq(dense, snaps.T.reshape(-1), rcond=None)[0]
        assert solved == (gap is not None and gap >= 1e-3)
        assert np.array_equal(alpha, want)


class TestForecast:
    def test_geometric_decay(self):
        m = 20
        s = (0.9 ** (np.arange(m) - (m - 1)))[None, :]  # ends at state 1
        model = fit_dmd(s, 1)
        alpha = fit_amplitudes(model, s)
        out = forecast(model, alpha, 3, 0)
        assert np.abs(out - [0.9, 0.81, 0.729]).max() < 1e-10

    def test_clamp_bounds_respected(self):
        m = 20
        s = (1.1 ** np.arange(m))[None, :]  # growing: forecasts would exceed 1
        s = s / s.max()
        model = fit_dmd(s, 1)
        alpha = fit_amplitudes(model, s)
        out = forecast(model, alpha, 5, 0, clamp=(0.0, 1.0))
        assert out.max() <= 1.0

    def test_scaler_maps_to_newtons(self):
        m = 15
        s = np.full((1, m), 0.5)
        model = fit_dmd(s, 1)
        alpha = fit_amplitudes(model, s)
        out = forecast(model, alpha, 2, 0, scaler=MinMaxScaler(0.0, 200.0), clamp=(0.0, 1.0))
        assert np.allclose(out, 100.0, atol=1e-6)


class TestPredictBatch:
    def test_warm_up_returns_none(self):
        scaler = MinMaxScaler(0.0, 100.0)
        assert predict_batch(np.zeros(10), ForecastHyperparams(), scaler) is None

    def test_default_hyperparameters(self):
        h = ForecastHyperparams()
        assert (h.window_modifier, h.smooth_modifier, h.thin_step, h.delays, h.n_modes) == (
            1.3, 1.1, 7, 8, 4,
        )

    def test_constant_plateau_forecast(self):
        scaler = MinMaxScaler(0.0, 100.0)
        est = np.full(300, 0.6)
        out = predict_batch(est, ForecastHyperparams(), scaler)
        assert out is not None
        actual = np.full(out.size, 60.0)
        from emgrip.metrics import wmape

        assert wmape(actual, out) <= 2.0

    def test_forecasts_inside_calibration_range(self):
        rng = np.random.default_rng(7)
        scaler = MinMaxScaler(5.0, 80.0)
        est = np.clip(0.5 + 0.3 * np.sin(np.arange(400) * 0.05) + 0.2 * rng.standard_normal(400), -1, 2)
        out = predict_batch(est, ForecastHyperparams(), scaler)
        assert out.min() >= 5.0 - 1e-9
        assert out.max() <= 80.0 + 1e-9

    def test_log_shift_checked_in_columns_thinning_drops(self, monkeypatch):
        # without smoothing the window is the raw tail; window[0] lies only
        # in delay column 0, which thinning drops before the log lift
        monkeypatch.setattr(emgrip.forecasting, "lowess_smooth", lambda v, w: np.array(v))
        hyper = ForecastHyperparams()
        n_pred = round(hyper.window_modifier * 62)
        est = np.full(400, 0.5)
        est[-n_pred] = -10.0
        window = est[-n_pred:]
        assert thin(hankel_lift(window, hyper.delays), hyper.thin_step).min() > -10.0
        with pytest.raises(DataError, match="log shift"):
            predict_batch(est, hyper, MinMaxScaler(0.0, 100.0))

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            ForecastHyperparams(thin_step=2)
        with pytest.raises(ConfigError):
            ForecastHyperparams(delays=11)
        for value in (np.nan, np.inf, 0.9):
            with pytest.raises(ConfigError, match="finite and >= 1"):
                ForecastHyperparams(window_modifier=value)
            with pytest.raises(ConfigError, match="finite and >= 1"):
                ForecastHyperparams(smooth_modifier=value)


class TestGridSearch:
    def test_single_point_grid(self):
        rows = grid_search(
            window_modifiers=(1.3,),
            smooth_modifiers=(1.1,),
            thin_steps=(7,),
            delay_counts=(8,),
            mode_counts=(4,),
            evaluate=lambda h: [12.0, 14.0],
        )
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(13.0)
        assert rows[0][2] == pytest.approx(13.0)

    def test_deterministic_total_order_with_ties(self):
        rows = grid_search(
            window_modifiers=(1.2, 1.3),
            smooth_modifiers=(1.1,),
            thin_steps=(7, 8),
            delay_counts=(8,),
            mode_counts=(4,),
            evaluate=lambda h: [10.0],
        )
        combos = [(r[0].window_modifier, r[0].thin_step) for r in rows]
        assert combos == [(1.2, 7), (1.2, 8), (1.3, 7), (1.3, 8)]

    def test_best_not_worse_than_median(self):
        def evaluate(h):
            return [10.0 + h.thin_step + h.window_modifier]

        rows = grid_search(
            window_modifiers=(1.2, 1.3, 1.4),
            smooth_modifiers=(1.1,),
            thin_steps=(7, 8),
            delay_counts=(8,),
            mode_counts=(4,),
            evaluate=evaluate,
        )
        scores = [r[3] for r in rows]
        assert scores[0] <= np.median(scores)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_wmape_names_the_combination(self, bad):
        def evaluate(h):
            return [20.0, bad if h.window_modifier == 1.3 else 21.0]

        with pytest.raises(DataError, match=r"non-finite wMAPE for .*window_modifier=1\.3,"):
            grid_search(
                evaluate,
                window_modifiers=(1.2, 1.3, 1.4),
                smooth_modifiers=(1.1,),
                thin_steps=(7,),
                delay_counts=(8,),
                mode_counts=(4,),
            )
