import dataclasses
import gc
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import emgrip.sensitivity
from emgrip.errors import ConfigError, DataError, NumericError
from emgrip.io import Recording, read_narrowing, write_narrowing
from emgrip.processing import (
    DEFAULT_MAX_LAG_S,
    TimestampedSeries,
    peak_cross_correlation,
    process_recording,
    resample_linear,
)
from emgrip.sensitivity import (
    Bounds,
    DecisionVector,
    NarrowingRecord,
    default_decision_bounds,
    latin_hypercube,
    map_objective,
    objective,
    projection_summary,
    rbdfast_indices,
    rbdfast_sample,
    saltelli_sample,
    sobol_indices,
)
from emgrip.sensitivity import _rank_keys, _sobol_point_estimate
from emgrip.synth import SynthProfile, synth_recording

ISHIGAMI_S1 = 0.3139
ISHIGAMI_S2 = 0.4424


def ishigami(x, a=7.0, b=0.1):
    return np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 + b * x[:, 2] ** 4 * np.sin(x[:, 0])


def unit_bounds(d):
    return Bounds(np.zeros(d), np.ones(d))


def pi_bounds():
    return Bounds(np.full(3, -np.pi), np.full(3, np.pi))


class TestLatinHypercube:
    def test_one_sample_per_stratum(self):
        x = latin_hypercube(unit_bounds(1), 4, seed=0)[:, 0]
        strata = np.floor(np.sort(x) * 4).astype(int)
        assert np.array_equal(strata, [0, 1, 2, 3])

    def test_deterministic_under_seed(self):
        a = latin_hypercube(unit_bounds(5), 32, seed=9)
        b = latin_hypercube(unit_bounds(5), 32, seed=9)
        assert np.array_equal(a, b)

    def test_marginals_uniform_many_dims(self):
        # every variable gets exactly one sample per stratum
        n, d = 128, 25
        x = latin_hypercube(unit_bounds(d), n, seed=1)
        for i in range(d):
            counts = np.bincount(np.floor(x[:, i] * n).astype(int), minlength=n)
            assert counts.max() == 1

    def test_scaled_to_bounds(self):
        b = Bounds(np.array([2.0, -1.0]), np.array([4.0, 1.0]))
        x = latin_hypercube(b, 50, seed=2)
        assert x[:, 0].min() >= 2.0 and x[:, 0].max() <= 4.0
        assert x[:, 1].min() >= -1.0 and x[:, 1].max() <= 1.0


class TestSaltelliSample:
    def test_row_count_formula(self):
        s = saltelli_sample(unit_bounds(6), 8, groups=["a", "a", "b", "b", "c", "c"], seed=0)
        assert s.shape == (8 * (3 + 2), 6)

    def test_group_column_swap(self):
        groups = ["g1", "g1", "g2"]
        s = saltelli_sample(unit_bounds(3), 16, groups=groups, seed=3)
        a, b = s[:16], s[16:32]
        ab1, ab2 = s[32:48], s[48:64]
        assert np.array_equal(ab1[:, :2], b[:, :2]) and np.array_equal(ab1[:, 2], a[:, 2])
        assert np.array_equal(ab2[:, 2], b[:, 2]) and np.array_equal(ab2[:, :2], a[:, :2])

    def test_deterministic_under_seed(self):
        assert np.array_equal(
            saltelli_sample(unit_bounds(4), 16, seed=5),
            saltelli_sample(unit_bounds(4), 16, seed=5),
        )

    def test_pinned_design(self):
        # where scipy.stats.qmc is imported must not move a single row
        b = Bounds(np.array([0.0, 1.0, -2.0]), np.array([1.0, 3.0, 2.0]), ("a", "b", "c"))
        s = saltelli_sample(b, 4, groups=("a", "b", "c"), seed=11)
        assert s.shape == (20, 3)
        np.testing.assert_allclose(
            s[:2],
            [[0.3534756787121296, 1.983100850135088, 0.2556617446243763],
             [0.6135021913796663, 2.5250584930181503, -0.9291158355772495]],
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            s[-1], [0.05944837909191847, 2.1963183023035526, -1.8270041644573212], rtol=1e-14
        )
        assert s.sum() == pytest.approx(42.678264720365405, rel=1e-14)


class TestSobolIndices:
    def test_constant_output_all_zero(self):
        s = saltelli_sample(unit_bounds(3), 16, seed=1)
        res = sobol_indices(s, np.full(s.shape[0], 2.5))
        assert np.all(res.first_order == 0.0)
        assert np.all(res.total_order == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_round_off_constant_output_all_zero(self):
        # the mean of 0.1s does not round back to 0.1 at every count, so
        # their variance is ~1e-34 rather than 0; with the AB block varying,
        # dividing by it gave indices of ~1e17
        s = saltelli_sample(unit_bounds(3), 3, seed=0)
        for y in (np.full(s.shape[0], 0.1), np.concatenate([np.full(6, 0.1), np.arange(9.0)])):
            assert y[:6].var() > 0  # the pooled A and B outputs
            res = sobol_indices(s, y, n_boot=20, seed=1)
            assert np.array_equal(res.first_order, np.zeros(3))
            assert np.array_equal(res.total_order, np.zeros(3))
            assert np.array_equal(res.first_ci, np.zeros((3, 2)))
            assert np.array_equal(res.total_ci, np.zeros((3, 2)))

    @pytest.mark.filterwarnings("error")
    def test_small_spread_on_large_offset_keeps_indices(self):
        # var ~8e-18 of a mean square of 1, below any n * eps rule on the
        # variance; the outputs still vary, so the indices must be those of
        # the spread alone
        s = saltelli_sample(unit_bounds(3), 64, seed=4)
        res = sobol_indices(s, 1.0 + 1e-8 * s[:, 0], n_boot=20, seed=1)
        want = sobol_indices(s, s[:, 0], n_boot=20, seed=1)
        assert res.first_order[0] > 0.5
        np.testing.assert_allclose(res.first_order, want.first_order, rtol=0, atol=1e-6)
        np.testing.assert_allclose(res.total_order, want.total_order, rtol=0, atol=1e-6)
        np.testing.assert_allclose(res.first_ci, want.first_ci, rtol=0, atol=1e-6)

    def test_single_active_variable(self):
        s = saltelli_sample(unit_bounds(2), 2**12, seed=2)
        res = sobol_indices(s, s[:, 0])
        assert res.first_order[0] == pytest.approx(1.0, abs=0.02)
        assert res.first_order[1] == pytest.approx(0.0, abs=0.02)

    def test_ishigami_analytic(self):
        s = saltelli_sample(pi_bounds(), 2**14, seed=7)
        res = sobol_indices(s, ishigami(s))
        assert res.first_order[0] == pytest.approx(ISHIGAMI_S1, abs=0.02)
        assert res.first_order[1] == pytest.approx(ISHIGAMI_S2, abs=0.02)
        assert res.first_order[2] == pytest.approx(0.0, abs=0.02)
        assert np.all(res.total_order >= res.first_order - 0.02)

    def test_additive_first_order_sums_to_one(self):
        s = saltelli_sample(unit_bounds(3), 2**14, seed=4)
        res = sobol_indices(s, s.sum(axis=1))
        assert res.first_order.sum() == pytest.approx(1.0, abs=0.03)

    def test_bootstrap_ci_contains_point_estimate(self):
        s = saltelli_sample(pi_bounds(), 2**10, seed=8)
        res = sobol_indices(s, ishigami(s), n_boot=200, seed=8)
        assert res.first_ci is not None
        for i in range(3):
            assert res.first_ci[i, 0] <= res.first_order[i] <= res.first_ci[i, 1]

    def test_ci_width_shrinks_with_base_sample(self):
        widths = []
        for n in (2**8, 2**10):
            s = saltelli_sample(pi_bounds(), n, seed=9)
            res = sobol_indices(s, ishigami(s), n_boot=200, seed=9)
            widths.append((res.first_ci[:, 1] - res.first_ci[:, 0]).mean())
        assert widths[1] < widths[0]

    def test_grouped_indices(self):
        groups = ("g", "g", "z")
        s = saltelli_sample(unit_bounds(3), 2**12, groups=groups, seed=5)
        res = sobol_indices(s, s[:, 0] + s[:, 1], groups=groups)
        assert res.names == ("g", "z")
        assert res.first_order[0] == pytest.approx(1.0, abs=0.03)
        assert res.first_order[1] == pytest.approx(0.0, abs=0.03)

    def test_unique_names_as_groups_name_the_ungrouped_indices(self):
        names = ("a", "b", "c")
        s = saltelli_sample(pi_bounds(), 2**8, seed=5)
        want = sobol_indices(s, ishigami(s))
        res = sobol_indices(s, ishigami(s), groups=names)
        assert res.names == names and want.names == ("x0", "x1", "x2")
        assert np.array_equal(res.first_order, want.first_order)
        assert np.array_equal(res.total_order, want.total_order)

    def test_layout_mismatch_rejected(self):
        s = saltelli_sample(unit_bounds(3), 8, seed=0)
        with pytest.raises(DataError):
            sobol_indices(s, np.zeros(s.shape[0] - 1))

    @pytest.mark.parametrize("where", ["output", "sample"])
    def test_non_finite_input_rejected(self, where):
        s = saltelli_sample(unit_bounds(3), 8, seed=0)
        y = s[:, 0].copy()
        if where == "output":
            y[3] = np.nan
        else:
            s[3, 1] = np.nan
        with pytest.raises(DataError, match="finite"):
            sobol_indices(s, y, n_boot=10, seed=0)

    def test_negative_bootstrap_count_rejected(self):
        s = saltelli_sample(unit_bounds(3), 8, seed=0)
        with pytest.raises(ConfigError, match="n_boot"):
            sobol_indices(s, s[:, 0], n_boot=-3)


def _sobol_ci_oracle(outputs, g, n_boot, seed):
    """(first, total) bootstrap CIs from the replica-by-replica loop."""
    n = outputs.size // (g + 2)
    fa, fb, fab = outputs[:n], outputs[n : 2 * n], outputs[2 * n :].reshape(g, n)
    s1, st = _sobol_point_estimate(fa, fb, fab)
    rng = np.random.default_rng(seed)
    boot = np.empty((n_boot, 2, g))
    for j in range(n_boot):
        rows = rng.integers(0, n, size=n)
        boot[j] = _sobol_point_estimate(fa[rows], fb[rows], fab[:, rows])
    ci = np.percentile(boot, [2.5, 97.5], axis=0)
    return [
        np.column_stack([np.minimum(ci[0, k], p), np.maximum(ci[1, k], p)])
        for k, p in enumerate((s1, st))
    ]


class TestSobolBootstrap:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n, n_boot, groups",
        [(2**10, 200, None), (2**8, 1000, ("g", "g", "z")), (5, 60, None), (2**12, 300, None)],
        ids=["ishigami", "grouped", "tiny", "large"],
    )
    def test_matches_replica_loop(self, n, n_boot, groups):
        s = saltelli_sample(pi_bounds(), n, groups=groups, seed=8)
        y = ishigami(s)
        res = sobol_indices(s, y, groups=groups, n_boot=n_boot, seed=8)
        first, total = _sobol_ci_oracle(y, len(res.names), n_boot, seed=8)
        assert np.array_equal(res.first_ci, first)
        assert np.array_equal(res.total_ci, total)

    @pytest.mark.filterwarnings("error")
    def test_many_groups_small_base_matches_replica_loop(self):
        # the ungrouped 250-variable box at n = 8: many more groups than
        # base points, so most replicas repeat a base point several times
        bounds = default_decision_bounds()
        s = saltelli_sample(bounds, 8, groups=bounds.variable_names(), seed=5)
        y = np.sin(s[:, :-2]).sum(axis=1) + s[:, -2] / 100.0
        res = sobol_indices(s, y, groups=bounds.variable_names(), n_boot=200, seed=5)
        first, total = _sobol_ci_oracle(y, 250, 200, seed=5)
        assert res.first_ci.shape == res.total_ci.shape == (250, 2)
        assert np.array_equal(res.first_ci, first)
        assert np.array_equal(res.total_ci, total)

    @pytest.mark.filterwarnings("error")
    def test_zero_variance_replicas_match_replica_loop(self):
        # fa and fb agree on base points 0 and 1 only, so about 30% of the
        # replicas draw a constant pooled sample while their AB block varies
        s = saltelli_sample(unit_bounds(3), 3, seed=0)
        fa, fb = np.array([1.0, 1.0, 3.0]), np.array([1.0, 1.0, -2.0])
        y = np.concatenate([fa, fb, np.arange(9.0)])
        draws = np.random.default_rng(2).integers(0, 3, size=(40, 3))
        assert 4 <= (draws.max(axis=1) < 2).sum() <= 36
        res = sobol_indices(s, y, n_boot=40, seed=2)
        first, total = _sobol_ci_oracle(y, 3, 40, seed=2)
        assert np.array_equal(res.first_ci, first)
        assert np.array_equal(res.total_ci, total)


def _rbdfast_oracle(samples, outputs, harmonics=10, n_boot=0, seed=None):
    """(first order, CI) from the per-variable loop over sample columns."""

    def point(x_col, y):
        order = np.argsort(x_col, kind="stable")
        yp = y[np.concatenate([order[0::2], order[1::2][::-1]])]
        n = yp.size
        var = yp.var()
        if var == 0:
            return 0.0
        s1 = 2.0 * (np.abs(np.fft.rfft(yp)) ** 2 / (n * n))[1 : harmonics + 1].sum() / var
        lam = 2.0 * harmonics / n
        return s1 - lam / (1.0 - lam) * (1.0 - s1)

    n, d = samples.shape
    s1 = np.array([point(samples[:, i], outputs) for i in range(d)])
    if n_boot == 0:
        return s1, None
    rng = np.random.default_rng(seed)
    boot = np.empty((n_boot, d))
    for k in range(n_boot):
        idx = rng.integers(0, n, size=n)
        boot[k] = [point(samples[idx, i], outputs[idx]) for i in range(d)]
    ci = np.percentile(boot, [2.5, 97.5], axis=0).T
    return s1, np.column_stack([np.minimum(ci[:, 0], s1), np.maximum(ci[:, 1], s1)])


def _per_replica_rbdfast_oracle(samples, outputs, harmonics=10, n_boot=0, seed=None):
    """(first order, CI) from one stable float argsort of the whole design
    per bootstrap replica, as ``rbdfast_indices`` computed them before it
    sorted rank keys."""

    def point(x, y):
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

    n, d = samples.shape
    s1 = point(samples, outputs)
    if n_boot == 0:
        return s1, None
    rng = np.random.default_rng(seed)
    boot = np.empty((n_boot, d))
    for k in range(n_boot):
        idx = rng.integers(0, n, size=n)
        boot[k] = point(samples[idx], outputs[idx])
    ci = np.percentile(boot, [2.5, 97.5], axis=0).T
    return s1, np.column_stack([np.minimum(ci[:, 0], s1), np.maximum(ci[:, 1], s1)])


def _exact_zero_rbdfast_point_estimate(keys, y, idx, harmonics):
    """The rank-key RBD-FAST estimate with the rule of when only an exactly
    zero variance counted as a constant output."""
    n = idx.size
    packed = keys[:, idx] | np.arange(n, dtype=keys.dtype)
    packed.sort(axis=1)
    order = (packed & ((1 << (n - 1).bit_length()) - 1)).T
    ordered = np.concatenate([order[0::2], order[1::2][::-1]], axis=0)
    yp = y[idx][ordered]
    var = yp.var(axis=0)
    spectrum = np.abs(np.fft.rfft(yp, axis=0)) ** 2 / (n * n)
    s1 = 2.0 * spectrum[1 : harmonics + 1].sum(axis=0) / np.where(var == 0, 1.0, var)
    lam = 2.0 * harmonics / n
    return np.where(var == 0, 0.0, s1 - lam / (1.0 - lam) * (1.0 - s1))


def _bench_design():
    # the seed-42 bench study's 64 x 250 design; outputs lean on a few
    # gains and the window so the indices are not all noise
    x = rbdfast_sample(default_decision_bounds(), 64, seed=46)
    return x, np.sin(x[:, 3]) + x[:, 40] ** 2 + x[:, -2] / 500.0


def _oracle_design(name):
    """(samples, outputs) of the designs the rank keys are checked on."""
    if name == "bench":
        return _bench_design()
    if name == "ishigami":
        x = rbdfast_sample(pi_bounds(), 1024, seed=3)
        return x, ishigami(x)
    n, d = {"rounded": (50, 7), "n200": (200, 5), "tiny": (7, 4)}[name]
    x = rbdfast_sample(unit_bounds(d), n, seed=n)
    if name == "rounded":
        x = np.round(x, 1)
    return x, np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 + 0.5 * x[:, 2] * x[:, 3]


class TestRbdFast:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_boot", [0, 100])
    @pytest.mark.parametrize("design", ["ishigami", "bench"])
    def test_matches_per_variable_loop(self, design, n_boot):
        if design == "ishigami":
            x = rbdfast_sample(pi_bounds(), 1024, seed=3)
            y = ishigami(x)
        else:
            x, y = _bench_design()
        res = rbdfast_indices(x, y, n_boot=n_boot, seed=46)
        want_s1, want_ci = _rbdfast_oracle(x, y, n_boot=n_boot, seed=46)
        np.testing.assert_allclose(res.first_order, want_s1, rtol=0, atol=1e-12)
        if n_boot:
            np.testing.assert_allclose(res.first_ci, want_ci, rtol=0, atol=1e-12)
        else:
            assert res.first_ci is None

    @pytest.mark.filterwarnings("error")
    def test_constant_output_gives_zero_indices(self):
        x, _ = _bench_design()
        res = rbdfast_indices(x, np.full(64, 0.25), n_boot=10, seed=0)
        assert np.array_equal(res.first_order, np.zeros(250))
        assert np.array_equal(res.first_ci, np.zeros((250, 2)))

    @pytest.mark.filterwarnings("error")
    def test_round_off_constant_output_gives_zero_indices(self):
        # 64 outputs of 0.1 have a variance of round-off, not 0; the bias
        # correction turned that into -0.4545 for every variable
        x, _ = _bench_design()
        y = np.full(64, 0.1)
        assert y.var() > 0
        res = rbdfast_indices(x, y, n_boot=10, seed=0)
        assert np.array_equal(res.first_order, np.zeros(250))
        assert np.array_equal(res.first_ci, np.zeros((250, 2)))

    @pytest.mark.filterwarnings("error")
    def test_small_spread_on_large_offset_keeps_indices(self):
        # var ~1e-17 of a mean square of 1: still a varying output
        x, _ = _bench_design()
        unit = (x[:, 3] - x[:, 3].min()) / np.ptp(x[:, 3])
        res = rbdfast_indices(x, 1.0 + 1e-8 * unit, n_boot=10, seed=0)
        want = rbdfast_indices(x, unit, n_boot=10, seed=0)
        assert res.first_order[3] > 0.5
        np.testing.assert_allclose(res.first_order, want.first_order, rtol=0, atol=1e-6)
        np.testing.assert_allclose(res.first_ci, want.first_ci, rtol=0, atol=1e-6)

    def test_constancy_rule_keeps_bench_study_bits(self, monkeypatch):
        # the seed-42 sa_rbdfast study: corpus 44/45, design and bootstrap
        # seed 46, 100 bootstraps.  Its outputs vary, so the constancy rule
        # must leave every index and bound as the exact-zero rule gave it.
        corpus = [synth_recording(seed=s) for s in (44, 45)]
        x = rbdfast_sample(default_decision_bounds(), 64, seed=46)
        y = map_objective(corpus, x)
        got = rbdfast_indices(x, y, n_boot=100, seed=46)
        monkeypatch.setattr(
            emgrip.sensitivity, "_rbdfast_point_estimate", _exact_zero_rbdfast_point_estimate
        )
        want = rbdfast_indices(x, y, n_boot=100, seed=46)
        assert np.array_equal(got.first_order, want.first_order)
        assert np.array_equal(got.first_ci, want.first_ci)

    @pytest.mark.parametrize(
        "design, n_boot, harmonics, dtype",
        [
            ("bench", 100, 10, np.int16),
            ("ishigami", 40, 10, np.int32),
            ("rounded", 30, 10, np.int16),
            ("n200", 20, 10, np.int32),
            ("tiny", 9, 2, np.int8),
        ],
    )
    def test_rank_keys_match_per_replica_argsort(self, design, n_boot, harmonics, dtype):
        # the bench and rounded designs tie values within every column,
        # where only a stable order gives the argsort's bits
        x, y = _oracle_design(design)
        if design in ("bench", "rounded"):
            assert all(np.unique(col).size < col.size for col in x.T)
        assert _rank_keys(x).dtype == dtype
        res = rbdfast_indices(x, y, harmonics=harmonics, n_boot=n_boot, seed=46)
        want_s1, want_ci = _per_replica_rbdfast_oracle(x, y, harmonics, n_boot, seed=46)
        assert np.array_equal(res.first_order, want_s1)
        assert np.array_equal(res.first_ci, want_ci)

    def test_name_count_must_match_columns(self):
        x = rbdfast_sample(pi_bounds(), 64, seed=3)
        with pytest.raises(ConfigError, match="1 names for 3 indices"):
            rbdfast_indices(x, ishigami(x), names=("a",))

    def test_bootstrap_peak_memory(self):
        x, y = _bench_design()
        rbdfast_indices(x, y, n_boot=100, seed=46)
        tracemalloc.start()
        try:
            rbdfast_indices(x, y, n_boot=100, seed=46)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6

    @pytest.mark.parametrize("where", ["output", "sample", "inf sample"])
    def test_non_finite_input_rejected(self, where):
        x, y = _bench_design()
        if where == "output":
            y[5] = np.nan
        else:
            x[5, 7] = np.nan if where == "sample" else np.inf
        with pytest.raises(DataError, match="finite"):
            rbdfast_indices(x, y, n_boot=10, seed=0)

    def test_negative_bootstrap_count_rejected(self):
        x, y = _bench_design()
        with pytest.raises(ConfigError, match="n_boot"):
            rbdfast_indices(x, y, n_boot=-3)

    def test_inert_variable_near_zero(self):
        b = unit_bounds(3)
        x = rbdfast_sample(b, 4096, seed=1)
        res = rbdfast_indices(x, x[:, 0] ** 2)
        assert res.first_order[1] == pytest.approx(0.0, abs=0.03)
        assert res.first_order[2] == pytest.approx(0.0, abs=0.03)

    def test_single_variable_square(self):
        x = rbdfast_sample(unit_bounds(1), 4096, seed=2)
        res = rbdfast_indices(x, x[:, 0] ** 2)
        assert res.first_order[0] == pytest.approx(1.0, abs=0.05)

    def test_ishigami_analytic(self):
        x = rbdfast_sample(pi_bounds(), 2**14, seed=3)
        res = rbdfast_indices(x, ishigami(x))
        assert res.first_order[0] == pytest.approx(ISHIGAMI_S1, abs=0.05)
        assert res.first_order[1] == pytest.approx(ISHIGAMI_S2, abs=0.05)
        assert res.first_order[2] == pytest.approx(0.0, abs=0.05)

    def test_agrees_with_sobol_at_matched_budget(self):
        s = saltelli_sample(pi_bounds(), 2**12, seed=6)
        sob = sobol_indices(s, ishigami(s))
        x = rbdfast_sample(pi_bounds(), 2**14, seed=6)
        rbd = rbdfast_indices(x, ishigami(x))
        assert np.abs(sob.first_order - rbd.first_order).max() <= 0.05

    def test_bootstrap_ci(self):
        x = rbdfast_sample(unit_bounds(2), 1024, seed=7)
        res = rbdfast_indices(x, x[:, 0], n_boot=100, seed=7)
        assert res.first_ci.shape == (2, 2)
        assert res.first_ci[0, 0] <= res.first_order[0] <= res.first_ci[0, 1]

    def test_harmonics_bound_rejected(self):
        x = rbdfast_sample(unit_bounds(2), 16, seed=0)
        with pytest.raises(ConfigError):
            rbdfast_indices(x, x[:, 0], harmonics=8)


@pytest.fixture(scope="module")
def small_corpus():
    profile = SynthProfile(plateau_s=1.0, ramp_s=0.5, lead_s=0.5)
    return [synth_recording(profile, seed=s) for s in (31, 32)]


class TestObjective:
    def test_default_mask_low_objective(self, small_corpus):
        bounds = default_decision_bounds()
        from emgrip.processing import default_optimal_mask

        dv = DecisionVector(default_optimal_mask().gains[1:], 300, 0.0)
        val = objective(small_corpus, dv)
        assert val <= 0.1

    def test_proportional_signal_near_zero(self):
        # grip directly proportional to the processed envelope of a clean tone
        t = np.arange(0, 6.0, 1 / 992.97)
        amp = 1.0 + 0.5 * np.sin(2 * np.pi * 0.3 * t)
        emg = amp * np.sin(2 * np.pi * 60.0 * t)
        rec = Recording(TimestampedSeries(t, emg), TimestampedSeries(t[::5], amp[::5]))
        gains = np.zeros(248)
        gains[29] = 1.0  # keep the 60 Hz bin
        dv = DecisionVector(gains, 150, 0.0)
        assert objective([rec], dv) <= 0.05

    def test_uncorrelated_noise_near_one(self):
        rng = np.random.default_rng(0)
        t = np.arange(0, 6.0, 1 / 992.97)
        emg = rng.standard_normal(t.size)
        grip = 1.0 + 0.2 * np.sin(2 * np.pi * 0.25 * t[::5] + 1.0)
        rec = Recording(TimestampedSeries(t, emg), TimestampedSeries(t[::5], grip))
        dv = DecisionVector(np.ones(248), 10, 0.0)
        assert objective([rec], dv) >= 0.7

    def test_grip_scale_invariance(self, small_corpus):
        dv = DecisionVector(np.ones(248), 120, 0.01)
        rec = small_corpus[0]
        base = objective([rec], dv)
        scaled = objective(
            [Recording(rec.emg, TimestampedSeries(rec.grip.times, 3.5 * rec.grip.values))], dv
        )
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_map_objective_keeps_row_order(self, small_corpus):
        bounds = default_decision_bounds()
        samples = latin_hypercube(bounds, 3, seed=0)
        rows = [objective(small_corpus, DecisionVector.from_array(x)) for x in samples]
        assert np.array_equal(map_objective(small_corpus, samples), rows)


def _objective_without_memo(dataset, dv):
    """``objective`` as one-shot calls: resample, then correlate arrays."""
    peaks = []
    for rec in dataset:
        emg = rec.emg
        env = process_recording(emg, dv.to_mask(emg.rate / 496), dv.smoothing())
        grip = resample_linear(rec.grip, emg.times[: env.size])
        max_lag = int(round(DEFAULT_MAX_LAG_S * emg.rate))
        peaks.append(peak_cross_correlation(env, grip, max_lag)[0])
    return 1.0 - float(np.mean(peaks))


def _small_recording(seed):
    return synth_recording(SynthProfile(plateau_s=1.0, ramp_s=0.5, lead_s=0.5), seed=seed)


class TestObjectiveGripMemo:
    def test_study_matches_memo_free_objective(self):
        # the seed-42 sa_rbdfast study: corpus 44/45, design seed 46
        corpus = [synth_recording(seed=s) for s in (44, 45)]
        x = rbdfast_sample(default_decision_bounds(), 64, seed=46)
        got = map_objective(corpus, x)
        want = [_objective_without_memo(corpus, DecisionVector.from_array(row)) for row in x]
        assert np.array_equal(got, want)
        assert all("sa_sides" in rec.__dict__ for rec in corpus)

    @pytest.mark.parametrize("field", ["grip_values", "emg_times", "emg_values"])
    def test_in_place_edit_raises(self, field):
        rec = _small_recording(33)
        objective([rec], DecisionVector(np.ones(248), 120, 0.01))
        series, attr = field.split("_")
        with pytest.raises(ValueError, match="read-only"):
            getattr(getattr(rec, series), attr)[:] = 0.0

    @pytest.mark.parametrize("change", ["grip_values", "emg_times", "emg_values"])
    def test_changed_recording_recomputed(self, change):
        rec = _small_recording(33)
        dv = DecisionVector(np.ones(248), 120, 0.01)
        before = objective([rec], dv)
        emg, grip = rec.emg, rec.grip
        if change == "grip_values":
            grip = TimestampedSeries(grip.times, grip.values[::-1])
        elif change == "emg_times":
            emg = TimestampedSeries(emg.times + 0.05, emg.values)  # same rate and max lag, other grip samples
        else:
            emg = TimestampedSeries(emg.times, emg.values[::-1])  # other batch spectra
        rec = Recording(emg, grip)
        after = objective([rec], dv)
        assert after == _objective_without_memo([rec], dv)
        assert after != before

    def test_replaced_recording_gets_its_own_sides(self):
        rec = _small_recording(38)
        dv = DecisionVector(np.ones(248), 120, 0.01)
        before = objective([rec], dv)
        other = dataclasses.replace(rec, grip=TimestampedSeries(rec.grip.times, rec.grip.values[::-1]))
        assert "sa_sides" not in other.__dict__
        after = objective([other], dv)
        assert after == _objective_without_memo([other], dv)
        assert after != before
        assert other.sa_sides[0] is not rec.sa_sides[0]
        assert other.sa_sides[1] is not rec.sa_sides[1]
        assert objective([rec], dv) == before

    def test_entry_dropped_with_its_recording(self):
        rec = _small_recording(34)
        objective([rec], DecisionVector(np.ones(248), 120, 0.0))
        # both cached halves: the EMG batch spectra and the grip side
        spectra, side = rec.__dict__["sa_sides"]
        assert rec.sa_sides[0] is spectra and rec.sa_sides[1] is side
        kept = [weakref.ref(spectra), weakref.ref(side)]
        del rec, spectra, side
        gc.collect()
        assert [ref() for ref in kept] == [None, None]

    def test_failed_candidate_leaves_no_trace(self):
        # gains that overflow give a non-finite envelope, which raises after
        # the memo is warm; the next candidate must come out as without it
        rec = _small_recording(37)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
            objective([rec], DecisionVector(np.full(248, 1e308), 400, 0.0))
        dv = DecisionVector(np.ones(248), 120, 0.01)
        assert objective([rec], dv) == _objective_without_memo([rec], dv)

    def test_threads_share_a_corpus(self):
        # the seed-42 sa_rbdfast study, on a corpus whose memo starts cold,
        # from more threads than cores
        x = rbdfast_sample(default_decision_bounds(), 64, seed=46)
        serial = map_objective([synth_recording(seed=s) for s in (44, 45)], x)
        corpus = [synth_recording(seed=s) for s in (44, 45)]
        results = {}

        def run(i):
            results[i] = map_objective(corpus, x)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2]
        assert all(np.array_equal(y, serial) for y in results.values())

    def test_warm_candidate_memory_bounded(self):
        # each envelope-sized array of the seed-42 study is ~0.23 MB; a warm
        # candidate's temporaries stay within a few of them, and none of
        # them outlives the call
        corpus = [synth_recording(seed=s) for s in (44, 45)]
        x = rbdfast_sample(default_decision_bounds(), 64, seed=46)
        map_objective(corpus, x[:1])
        rises, kept = [], []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for row in x:
                dv = DecisionVector.from_array(row)
                tracemalloc.reset_peak()
                entry = tracemalloc.get_traced_memory()[0]
                objective(corpus, dv)
                current, peak = tracemalloc.get_traced_memory()
                rises.append(peak - entry)
                kept.append(current - entry)
            drift = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert max(rises) <= 2e6
        assert max(kept) <= 16e3 and drift <= 0.1e6

    @pytest.mark.parametrize(
        "envelope, grip",
        [(e, g) for e in ("ok", "constant", "non-finite") for g in ("ok", "constant", "non-finite")][1:],
    )
    def test_constant_or_non_finite_raises(self, envelope, grip):
        rec = _small_recording(35)
        gains = np.zeros(248) if envelope == "constant" else np.ones(248)
        emg = rec.emg
        if envelope == "non-finite":
            emg_values = emg.values.copy()
            emg_values[1000] = np.nan
            emg = TimestampedSeries(emg.times, emg_values)
        values = rec.grip.values.copy()
        if grip == "constant":
            values[:] = 3.0
        elif grip == "non-finite":
            values[200] = np.inf
        rec = Recording(emg, TimestampedSeries(rec.grip.times, values))
        with pytest.raises(NumericError):
            objective([rec], DecisionVector(gains, 120, 0.0))
        # a recording's sides are cached only when building them succeeds
        assert ("sa_sides" in rec.__dict__) == (grip == "ok")


class TestProjectionSummary:
    def test_flat_for_inert_variable(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (2000, 2))
        y = x[:, 0]
        summary = projection_summary(x, y, var_index=1, n_bins=8)
        spread = np.nanmax(summary.bin_means) - np.nanmin(summary.bin_means)
        assert spread < 0.15

    def test_monotone_for_identity(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (2000, 2))
        summary = projection_summary(x, x[:, 0], var_index=0, n_bins=8)
        assert np.all(np.diff(summary.bin_means) > 0)

    def test_window_size_projection_rises_then_plateaus(self, small_corpus):
        # coarse scan along the smoothing window: short windows track noise,
        # so the objective should drop as the window grows, then level out
        bounds = default_decision_bounds()
        rng = np.random.default_rng(3)
        n = 12
        samples = np.tile(bounds.lower, (n, 1))
        samples[:, :248] = 1.0
        samples[:, 248] = np.linspace(5, 450, n)
        samples[:, 249] = 0.0
        outputs = map_objective(small_corpus[:1], samples)
        summary = projection_summary(samples, outputs, var_index=248, n_bins=4)
        means = summary.bin_means[np.isfinite(summary.bin_means)]
        assert means[0] > means[-1]
        assert abs(means[-1] - means[-2]) < 0.5 * (means[0] - means[-1])


class TestNarrowingRecord:
    """The record's nesting rules, and its file through ``io``."""

    def _bounds(self, lo, hi):
        return Bounds(np.array(lo, dtype=float), np.array(hi, dtype=float), ("a", "b"))

    def test_identical_step_flagged_no_op(self):
        rec = NarrowingRecord(self._bounds([0, 0], [5, 5]))
        step = rec.append(self._bounds([0, 0], [5, 5]))
        assert step.no_op

    def test_widened_bound_rejected(self):
        rec = NarrowingRecord(self._bounds([0, 0], [5, 5]))
        with pytest.raises(DataError):
            rec.append(self._bounds([0, 0], [5, 6]))

    def test_21_step_round_trip(self, tmp_path):
        base = default_decision_bounds()
        rec = NarrowingRecord(base)
        lo, hi = base.lower.copy(), base.upper.copy()
        for step in range(1, 22):
            hi = hi * 0.97 + lo * 0.03
            rec.append(Bounds(lo, hi, base.names), [("mask_2hz", 0.8 / step)])
        text = write_narrowing(tmp_path / "a.txt", rec).read_text()
        again = read_narrowing(tmp_path / "a.txt")
        assert write_narrowing(tmp_path / "b.txt", again).read_text() == text
        assert len(again.steps) == 22
        assert all(s.bounds.groups == base.groups for s in again.steps)

    def test_append_keeps_groups_of_same_named_box(self):
        rec = NarrowingRecord(Bounds(np.zeros(2), np.full(2, 5.0), ("a", "b"), ("g", "g")))
        assert rec.append(self._bounds([0, 0], [4, 5])).bounds.groups == ("g", "g")
        renamed = Bounds(np.zeros(2), np.full(2, 3.0), ("c", "d"))
        assert rec.append(renamed).bounds.groups is None

    def test_three_column_record_loads_without_groups(self, tmp_path):
        path = write_narrowing(tmp_path / "r.txt", NarrowingRecord(self._bounds([0, 0], [5, 5])))
        assert path.read_text().splitlines()[1] == "a\t0.0\t5.0"
        again = read_narrowing(path)
        assert again.current.groups is None
        assert again.current.names == ("a", "b")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("== step zero\na\t0.0\t1.0\n", 1),
            ("== step 0\na 0.0 1.0\n", 2),
            ("== step 0\na\t0.0\t1.0\tg\tx\n", 2),
            ("== step 0\na\t0.0\tone\n", 2),
            ("a\t0.0\t1.0\n== step 0\n", 1),
            ("== step 0\na\t0.0\t1.0\n== step 1\na\t0.0\t1.0\ntop: a\n", 5),
        ],
        ids=["step_not_int", "space_separated", "five_fields", "uncastable", "row_before_step", "bad_top"],
    )
    def test_malformed_line_named(self, tmp_path, text, line):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line {line}: "):
            read_narrowing(path)

    def test_top_line_in_step_0_rejected(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("== step 0\na\t0.0\t1.0\ntop: a=0.5\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 3: 'top:' line in step 0"):
            read_narrowing(path)
