import itertools
from unittest import mock

import numpy as np
import pytest

from emgrip import processing
from emgrip.calibration import prepare_grip
from emgrip.errors import ConfigError, DataError, NumericError
from emgrip.io import read_series, write_series
from emgrip.processing import (
    DEFAULT_MAX_LAG_S,
    SmoothingParams,
    SpectralMask,
    TimestampedSeries,
    _blocks,
    apply_spectral_mask,
    batch_spectra,
    default_optimal_mask,
    envelope_batches,
    peak_cross_correlation,
    process_batch,
    process_recording,
    resample_linear,
    smooth_ema,
    xcorr_side,
)
from emgrip.sensitivity import (
    DecisionVector,
    default_decision_bounds,
    envelope_grip_xcorr,
    rbdfast_sample,
)
from emgrip.synth import synth_recording

FS = 992.97
N = 496


def _rng():
    return np.random.default_rng(1234)


class TestSpectralMask:
    def test_identity_mask_round_trip(self):
        rng = _rng()
        mask = SpectralMask(np.ones(N // 2 + 1))
        for _ in range(20):
            x = rng.standard_normal(N)
            y = apply_spectral_mask(x, mask)
            assert np.abs(y - x).max() < 1e-9

    def test_zero_mask_nulls_signal(self):
        mask = SpectralMask(np.zeros(N // 2 + 1))
        x = _rng().standard_normal(N)
        y = apply_spectral_mask(x, mask)
        assert np.all(y == 0.0)

    def test_linearity(self):
        rng = _rng()
        mask = default_optimal_mask()
        x, y = rng.standard_normal(N), rng.standard_normal(N)
        fx = apply_spectral_mask(x, mask)
        fy = apply_spectral_mask(y, mask)
        fxy = apply_spectral_mask(x + y, mask)
        assert np.abs(fxy - (fx + fy)).max() < 1e-9

    def test_50hz_attenuation_against_dft_oracle(self):
        # pure 50 Hz tone, mask 0.375 around its bin, 1 elsewhere
        t = np.arange(N) / FS
        x = np.sin(2 * np.pi * 50.0 * t)
        freqs = np.arange(N // 2 + 1) * FS / N
        gains = np.ones(N // 2 + 1)
        gains[np.abs(freqs - 50.0) <= 6.0] = 0.375
        y = apply_spectral_mask(x, SpectralMask(gains))

        def dft_mag(sig, k):
            return abs(np.exp(-2j * np.pi * k * np.arange(N) / N) @ sig)

        k50 = int(round(50.0 / (FS / N)))
        ratio = dft_mag(y, k50) / dft_mag(x, k50)
        assert ratio == pytest.approx(0.375, abs=1e-9)

    def test_length_mismatch_rejected(self):
        mask = SpectralMask(np.ones(10))
        with pytest.raises(ConfigError):
            apply_spectral_mask(np.zeros(N), mask)

    def test_stacked_rows_match_single_batches(self, mask):
        x = _rng().standard_normal((2, 3, N))
        y = apply_spectral_mask(x, mask)
        assert y.shape == x.shape
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(y[i, j], apply_spectral_mask(x[i, j], mask))
        # a ready spectrum skips the forward FFT and keeps the bits
        out = np.empty_like(x)
        assert apply_spectral_mask(np.fft.rfft(x), mask, out=out) is out
        assert np.array_equal(out, y)

    @pytest.mark.parametrize("n", [2, 3, 331, 332])
    def test_spectrum_of_short_batch_needs_its_length(self, n):
        x = _rng().standard_normal(n)
        m = default_optimal_mask().for_batch(n, FS)
        assert np.array_equal(apply_spectral_mask(np.fft.rfft(x), m, n), apply_spectral_mask(x, m))
        with pytest.raises(ConfigError):
            apply_spectral_mask(np.fft.rfft(x), m, n + 2)

    def test_real_batch_rejects_another_length(self):
        x = np.arange(10.0)
        mask = SpectralMask(np.ones(6))
        assert np.array_equal(apply_spectral_mask(x, mask, 10), apply_spectral_mask(x, mask))
        with pytest.raises(ConfigError, match="n = 20 does not match the 10-sample batch"):
            apply_spectral_mask(x, mask, n=20)

    def test_stacked_length_mismatch_names_last_axis(self):
        with pytest.raises(ConfigError, match="10 bins but a 496-sample batch needs 249"):
            apply_spectral_mask(np.zeros((3, N)), SpectralMask(np.ones(10)))

    def test_negative_gain_rejected(self):
        with pytest.raises(ConfigError):
            SpectralMask(np.array([1.0, -0.1, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            SpectralMask(np.array([1.0, bad, 1.0]))

    def test_for_batch_interpolates_short_final_batch(self):
        mask = default_optimal_mask()
        short = mask.for_batch(100, FS)
        assert len(short) == 51
        # interpolated profile stays within the original gain range
        assert short.gains.min() >= 0.0
        assert short.gains.max() <= mask.gains.max() + 1e-12


class TestDefaultMask:
    def test_reference_profile_values(self):
        mask = default_optimal_mask()
        res = mask.bin_resolution
        assert len(mask) == 249
        assert mask.gains[0] == 0.0                       # DC removed
        assert mask.gains[1] == 0.0                       # 2 Hz removed
        assert mask.gains[round(10 / res)] == pytest.approx(0.5)
        assert mask.gains[round(18 / res)] == pytest.approx(1.0)
        assert mask.gains[round(32 / res)] == pytest.approx(1.5)
        assert mask.gains[round(42 / res)] == pytest.approx(1.5)
        assert mask.gains[round(50 / res)] == pytest.approx(0.375)
        assert mask.gains[round(52 / res)] == pytest.approx(0.5)
        assert mask.gains[round(110 / res)] == pytest.approx(4.5)
        assert mask.gains[round(150 / res)] == pytest.approx(4.375)
        assert mask.gains[round(202 / res)] == pytest.approx(4.375)
        assert np.all(mask.gains[round(204 / res):] == 0.0)
        assert np.all(mask.gains[round(300 / res)] == 0.0)


class TestSmoothEma:
    def test_simple_ma_example(self):
        out = smooth_ema([0.0, 2.0, 4.0], [0.0], SmoothingParams(2, 0.0))
        assert np.allclose(out, [0.0, 1.0, 3.0], atol=1e-15)

    def test_exponential_impulse_example(self):
        out = smooth_ema(
            [1.0, 0.0, 0.0], [0.0, 0.0], SmoothingParams(3, 0.5)
        )
        assert np.allclose(out, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)

    def test_constant_preserved_for_random_params(self):
        rng = _rng()
        for _ in range(50):
            w = int(rng.integers(2, 496))
            decay = float(rng.uniform(0.0, 0.05))
            c = float(rng.uniform(-5, 5))
            batch = np.full(60, c)
            out = smooth_ema(batch, np.full(w - 1, c), SmoothingParams(w, decay))
            assert np.abs(out - c).max() < 1e-12

    def test_decay_zero_matches_trailing_mean_oracle(self):
        rng = _rng()
        x = rng.standard_normal(120)
        tail = rng.standard_normal(30)
        w = 17
        out = smooth_ema(x, tail, SmoothingParams(w, 0.0))
        ext = np.concatenate([tail[-(w - 1):], x])
        for i in range(x.size):
            expected = ext[i : i + w].mean()
            assert abs(out[i] - expected) < 1e-12

    def test_short_tail_rejected(self):
        with pytest.raises(DataError):
            smooth_ema([1.0, 2.0], [0.0], SmoothingParams(5, 0.0))

    def test_window_below_two_rejected(self):
        with pytest.raises(ConfigError):
            SmoothingParams(1, 0.0)

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ConfigError, match="batch size"):
            smooth_ema([1.0, 2.0], [0.0], SmoothingParams(2, 0.0), batch_size=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("decay", [0.0, 0.049, 0.9, 0.999999, 0.9999999, 1 - 2**-53])
    @pytest.mark.parametrize("w", [2, 61, 62, 63, 495])
    def test_matches_weighted_mean_oracle(self, w, decay):
        # the restart spacing shrinks with r = 1 - decay so that r**-t
        # stays finite; at extreme decays too the output must stay finite
        # and agree with the direct weighted mean
        rng = _rng()
        x = np.abs(rng.standard_normal(700)) * 100.0
        tail = np.abs(rng.standard_normal(w - 1)) * 100.0
        out = smooth_ema(x, tail, SmoothingParams(w, decay), batch_size=330)
        assert np.isfinite(out).all()
        weights = (1.0 - decay) ** np.arange(w)
        ext = np.concatenate([tail, x])
        brute = [ext[i : i + w][::-1] @ weights / weights.sum() for i in range(x.size)]
        assert np.abs(out - brute).max() < 1e-12

    @pytest.mark.parametrize("batch_size", [N, 500, 330])
    def test_batched_call_matches_one_call_per_batch(self, batch_size):
        rng = _rng()
        x = np.abs(rng.standard_normal(3 * batch_size + 57))
        for w, decay in itertools.product((2, 62, 63, 495), (0.0, 0.049, 0.9)):
            params = SmoothingParams(w, decay)
            tail = np.zeros(w - 1)
            parts = []
            for start in range(0, x.size, batch_size):
                chunk = x[start : start + batch_size]
                parts.append(smooth_ema(chunk, tail, params))
                tail = np.concatenate([tail, chunk])[-(w - 1) :]
            whole = smooth_ema(x, np.zeros(w - 1), params, batch_size)
            assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, 1e6])
    @pytest.mark.parametrize("batch_size", [N, 500, 330])
    def test_bad_sample_damage_ends_at_first_restart_past_window(self, bad, batch_size):
        # output i reads samples i - w + 1 .. i, so a bad sample k reaches
        # outputs up to k + w - 1 in exact arithmetic; the recursion carries
        # it, or its round-off, on to the next restart and no further
        rng = _rng()
        n = 3 * batch_size + 57
        x = np.abs(rng.standard_normal(n))
        for w, decay in itertools.product((2, 62, 63, 300, 495), (0.0, 0.049, 0.9)):
            params = SmoothingParams(w, decay)
            span = params._ema_plan.span
            assert span <= 62
            restarts = np.array(
                [b + j for b in range(0, n, batch_size) for j in range(0, min(batch_size, n - b), span)]
            )
            clean = smooth_ema(x, np.zeros(w - 1), params, batch_size)
            for k in rng.integers(0, n, 8):
                dirty = x.copy()
                dirty[k] = bad
                out = smooth_ema(dirty, np.zeros(w - 1), params, batch_size)
                later = restarts[restarts > k + w - 1]
                end = later[0] if later.size else n
                assert end <= k + w - 1 + span
                assert np.array_equal(out[:k], clean[:k])
                assert np.array_equal(out[end:], clean[end:])
                assert not np.array_equal(out[k : k + w], clean[k : k + w])


class TestProcessBatch:
    def test_zero_in_zero_out(self, mask):
        out, tail = process_batch(
            np.zeros(N), mask, SmoothingParams(10, 0.0), np.zeros(9)
        )
        assert np.all(out == 0.0)
        assert np.all(tail == 0.0)

    def test_identity_mask_two_point_ma_composition(self):
        rng = _rng()
        x = rng.standard_normal(N)
        ident = SpectralMask(np.ones(N // 2 + 1))
        out, _ = process_batch(x, ident, SmoothingParams(2, 0.0), [0.0])
        r = np.abs(x)
        expected = (r + np.concatenate([[0.0], r[:-1]])) / 2
        assert np.abs(out - expected).max() < 1e-9

    def test_streaming_matches_single_pass_smoothing(self, mask):
        # batch masking is per-window by design; the tail carry must make
        # streamed smoothing equal one global smooth of the rectified stream
        rng = _rng()
        sig = rng.standard_normal(N * 4)
        series = TimestampedSeries(np.arange(sig.size) / FS, sig)
        params = SmoothingParams(300, 0.0)
        streamed = process_recording(series, mask, params)
        rect = np.concatenate(
            [
                np.abs(apply_spectral_mask(sig[i * N : (i + 1) * N], mask))
                for i in range(4)
            ]
        )
        reference = smooth_ema(rect, np.zeros(299), params)
        assert np.array_equal(streamed, reference)

    def test_trailing_short_batch_processed(self, mask):
        rng = _rng()
        sig = rng.standard_normal(N + 100)
        series = TimestampedSeries(np.arange(sig.size) / FS, sig)
        out = process_recording(series, mask, SmoothingParams(20, 0.0))
        assert out.size == sig.size

    def test_one_sample_remainder_dropped(self, mask):
        rng = _rng()
        sig = rng.standard_normal(N + 1)
        series = TimestampedSeries(np.arange(sig.size) / FS, sig)
        out = process_recording(series, mask, SmoothingParams(20, 0.0))
        assert out.size == N


class TestProcessRecording:
    """The batch-major ``process_recording`` is the stream's envelope, bit for bit."""

    @pytest.mark.parametrize(
        "n", [2, 300, 495, 496, 497, 498, 3 * N, 3 * N + 1, 3 * N + 2, 3 * N + 5]
    )
    def test_bit_identical_to_envelope_batches(self, n, mask):
        sig = _rng().standard_normal(n)
        series = TimestampedSeries(np.arange(n) / FS, sig)
        # a mask built for 600-sample batches is interpolated onto full batches too
        masks = (mask, SpectralMask(_rng().uniform(0.0, 5.0, 301), FS / 600))
        for m, w, decay in itertools.product(masks, (2, 300, 495), (0.0, 0.049)):
            params = SmoothingParams(w, decay)
            streamed = np.concatenate(list(envelope_batches(series, m, params)))
            assert np.array_equal(process_recording(series, m, params), streamed)
            spectra = batch_spectra(series)
            assert spectra.size == streamed.size
            assert np.array_equal(process_recording(spectra, m, params), streamed)

    def test_spectra_are_read_only_and_bound_to_their_batch_size(self, mask):
        series = TimestampedSeries(np.arange(3 * N + 7) / FS, _rng().standard_normal(3 * N + 7))
        spectra = batch_spectra(series)
        assert not spectra.full.flags.writeable and not spectra.tail.flags.writeable
        assert (spectra.full.shape, spectra.tail_size) == ((3, N // 2 + 1), 7)

    @pytest.mark.parametrize("n", [2, 330, N - 1, N, N + 1, N + 2, 500, 3 * N + 7])
    def test_bit_identical_at_batch_sizes_off_the_restart_grid(self, n, mask):
        # at these decays the restart spacing (20, 10) divides neither the
        # 496-sample batch nor most of the recording's short final batches,
        # so restarts counted from the start of the recording would miss
        # the batch starts; smoothing keeps the stream's bits only by
        # counting them from each batch's first sample
        sig = _rng().standard_normal(n)
        series = TimestampedSeries(np.arange(n) / FS, sig)
        spectra = batch_spectra(series)
        for decay in (0.9, 0.99):
            assert N % SmoothingParams(2, decay)._ema_plan.span != 0
            for w in (2, 61, 62, 63, 300, 495):
                params = SmoothingParams(w, decay)
                streamed = np.concatenate(list(envelope_batches(series, mask, params)))
                assert np.array_equal(process_recording(series, mask, params), streamed)
                assert np.array_equal(process_recording(spectra, mask, params), streamed)

    def test_bit_identical_on_sa_study(self):
        # all 64 candidates of the seed-42 RBD-FAST bench study on its first recording
        rec = synth_recording(seed=44)
        for row in rbdfast_sample(default_decision_bounds(), 64, seed=46):
            dv = DecisionVector.from_array(row)
            m, params = dv.to_mask(rec.emg.rate / N), dv.smoothing()
            streamed = np.concatenate(list(envelope_batches(rec.emg, m, params)))
            assert np.array_equal(process_recording(rec.emg, m, params), streamed)


class TestResampleLinear:
    def test_midpoint(self):
        s = TimestampedSeries([0.0, 1.0], [0.0, 10.0])
        assert resample_linear(s, [0.5])[0] == pytest.approx(5.0)

    def test_source_times_unchanged(self):
        rng = _rng()
        t = np.sort(rng.uniform(0, 10, 20))
        v = rng.standard_normal(20)
        s = TimestampedSeries(t, v)
        out = resample_linear(s, t)
        assert np.allclose(out, v, atol=1e-14)

    def test_two_point_formula_oracle(self):
        rng = _rng()
        t = np.arange(0, 1.0, 1 / 200.0)
        v = rng.standard_normal(t.size)
        s = TimestampedSeries(t, v)
        targets = np.arange(0.01, 0.98, 1 / FS)
        got = resample_linear(s, targets)
        for tt, gv in zip(targets, got):
            j = np.searchsorted(t, tt) - 1
            frac = (tt - t[j]) / (t[j + 1] - t[j])
            assert abs(gv - (v[j] + frac * (v[j + 1] - v[j]))) < 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            resample_linear(TimestampedSeries([0.0], [1.0]), [0.0])


def _scan_oracle(a, b, max_lag):
    """The lag-by-lag loop: every overlap window mean-centred on its own,
    windows of fewer than 2 samples or zero variance skipped, strict ``>``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.size
    best, best_lag = -np.inf, 0
    for lag in range(-max_lag, max_lag + 1):
        x = a[: n - lag] if lag >= 0 else a[-lag:]
        y = b[lag:] if lag >= 0 else b[: n + lag]
        if x.size < 2:
            continue
        xc, yc = x - x.mean(), y - y.mean()
        denom = np.sqrt((xc @ xc) * (yc @ yc))
        if denom == 0:
            continue
        r = (xc @ yc) / denom
        if r > best:
            best, best_lag = r, lag
    return best, best_lag


def _fft_peak(a, b, max_lag):
    """The peak from the blocked FFT's cross sums alone, with no lag near
    the peak summed again directly."""
    with mock.patch.object(processing, "_NEAR_PEAK", -np.inf):
        return peak_cross_correlation(a, b, max_lag)[0]


def _assert_matches_scan(a, b, max_lag):
    """Check the array call against the scan oracle, and the call given
    ``b``'s prepared ``xcorr_side`` against the array call, bit for bit.
    The blocked FFT's own peak must match the oracle's too."""
    peak, lag = peak_cross_correlation(a, b, max_lag)
    assert peak_cross_correlation(a, xcorr_side(b, max_lag), max_lag) == (peak, lag)
    want_peak, want_lag = _scan_oracle(a, b, max_lag)
    assert peak == pytest.approx(want_peak, abs=1e-12)
    assert lag == want_lag
    assert _fft_peak(a, b, max_lag) == pytest.approx(want_peak, abs=1e-12)
    return peak, lag


def _delayed_pair(n, delay=7):
    """``a`` and a copy delayed by ``delay`` behind zeros, built so that the
    delay is the one peak even at ``max_lag = n - 1``, where every 2-sample
    window has ``|r| = 1``: b's zero prefix skips the negative end, and a's
    first step opposes b's last."""
    a = _rng().standard_normal(n)
    a[1] = a[0] - np.sign(a[-delay - 1] - a[-delay - 2])  # b's last two samples
    return a, np.concatenate([np.zeros(delay), a[:-delay]])


class TestPeakCrossCorrelation:
    @pytest.mark.parametrize("n, max_lag", [(1009, 22), (1031, 50), (2000, 97)])
    def test_padded_lengths_match_exhaustive_scan(self, n, max_lag):
        # n is not a multiple of the block, so the last block is zero-padded
        k, block, _ = _blocks(n, max_lag)
        assert k > 1 and n % block != 0
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n)
        b = np.roll(a, 7) + 0.5 * rng.standard_normal(n)
        _assert_matches_scan(a, b, max_lag)

    def test_self_correlation(self):
        a = _rng().standard_normal(500)
        peak, lag = peak_cross_correlation(a, a, 30)
        assert peak == pytest.approx(1.0)
        assert lag == 0

    def test_constructed_shift(self):
        a = _rng().standard_normal(800)
        b = np.concatenate([np.zeros(5), a[:-5]])
        peak, lag = peak_cross_correlation(a, b, 20)
        assert peak == pytest.approx(1.0)
        assert lag == 5

    def test_sign_flip_matches_exhaustive_scan(self):
        rng = _rng()
        a = rng.standard_normal(300)
        b = -np.concatenate([np.zeros(3), a[:-3]]) + 0.1 * rng.standard_normal(300)
        peak, _ = _assert_matches_scan(a, b, 15)
        assert peak < 0.5  # no positive alignment exists

    def test_random_matches_exhaustive_scan(self):
        rng = _rng()
        for _ in range(5):
            a = rng.standard_normal(200)
            b = rng.standard_normal(200)
            _assert_matches_scan(a, b, 25)

    def test_constant_input_rejected(self):
        with pytest.raises(NumericError):
            peak_cross_correlation(np.ones(50), _rng().standard_normal(50), 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("level", [3.7, 0.0])
    def test_constant_prefix_matches_scan(self, level):
        # cumulative-sum variances of the constant windows land within
        # round-off of 0; they must be skipped like the loop's exact zeros
        rng = _rng()
        a = np.concatenate([np.full(45, level), rng.standard_normal(15)])
        _assert_matches_scan(a, rng.standard_normal(60), 50)

    @pytest.mark.filterwarnings("error")
    def test_both_windows_constant_skipped(self):
        # from lag 15 on, a's zero prefix meets b's zero suffix; unguarded,
        # their round-off variances score r in the hundreds
        rng = _rng()
        a = np.concatenate([np.zeros(45), rng.standard_normal(15)])
        b = np.concatenate([rng.standard_normal(15), np.zeros(45)])
        want = _assert_matches_scan(a, b, 50)
        # the correlation is shift-invariant; the loop itself is not here,
        # since a 3.7-filled window's mean rounds and it scores r = 1
        assert peak_cross_correlation(a + 3.7, b + 3.7, 50) == (
            pytest.approx(want[0], abs=1e-12),
            want[1],
        )

    @pytest.mark.filterwarnings("error")
    def test_zero_max_lag_matches_scan(self):
        rng = _rng()
        a = rng.standard_normal(120)
        _, lag = _assert_matches_scan(a, a + rng.standard_normal(120), 0)
        assert lag == 0

    @pytest.mark.filterwarnings("error")
    def test_full_max_lag_matches_scan(self):
        # max_lag = n - 1 reaches 1- and 2-sample windows.  Every 2-sample
        # window has |r| = 1, so two of them at +1 tie and round-off picks
        # the lag in either code; _delayed_pair leaves lag 7 the one peak.
        _, lag = _assert_matches_scan(*_delayed_pair(80), 79)
        assert lag == 7

    @pytest.mark.filterwarnings("error")
    def test_negative_only_peak_matches_scan(self):
        a = np.cumsum(_rng().standard_normal(300))
        peak, _ = _assert_matches_scan(a, -a, 3)
        assert peak < 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n, max_lag", [(1001, 30), (998, 11)], ids=["odd_n", "even_n"]
    )
    def test_prime_padding_target_matches_scan(self, n, max_lag):
        # n + max_lag is prime (1031, 1009); 1001 samples split into two
        # blocks and 998 fill one block short of its end, and the extreme
        # lags must not wrap around in either
        rng = _rng()
        a = np.cumsum(rng.standard_normal(n))
        b = np.roll(a, max_lag - 1) + rng.standard_normal(n)
        _assert_matches_scan(a, b, max_lag)

    @pytest.mark.parametrize("where", [0, 50])
    def test_non_finite_input_rejected(self, where):
        a = _rng().standard_normal(100)
        a[where] = np.nan
        with pytest.raises(NumericError):
            peak_cross_correlation(a, _rng().standard_normal(100), 5)

    def test_side_reusable_across_series(self):
        rng = _rng()
        b = rng.standard_normal(400)
        side = xcorr_side(b, 40)
        for _ in range(4):
            a = np.roll(b, 9) + rng.standard_normal(400)
            assert peak_cross_correlation(a, side, 40) == peak_cross_correlation(a, b, 40)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_lag", [0, 1, 159])
    @pytest.mark.parametrize(
        "whole, extra, blocks",
        [(1, -1, 1), (1, 0, 1), (1, 1, 2), (3, 0, 3), (3, 1, 4)],
        ids=["B-1", "B", "B+1", "K*B", "K*B+1"],
    )
    def test_block_edges_match_scan(self, max_lag, whole, extra, blocks):
        _, block, _ = _blocks(10**6, max_lag)  # the block of a long series
        n = whole * block + extra
        assert _blocks(n, max_lag)[0] == blocks
        rng = np.random.default_rng(n + max_lag)
        a = np.cumsum(rng.standard_normal(n))
        b = np.roll(a, 5) + rng.standard_normal(n)
        _assert_matches_scan(a, b, max_lag)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [342, 343, 683])
    def test_full_max_lag_block_edges_match_scan(self, n):
        # at max_lag = n - 1 a series is always one block, L the power of two
        # at or above 3n - 2: at 342 the block is exactly n (L = 1024), at
        # 343 L doubles, and at 683 the block is n + 1 (L = 2048)
        k, block, nfft = _blocks(n, n - 1)
        assert k == 1 and block == nfft - 2 * (n - 1) >= n
        _, lag = _assert_matches_scan(*_delayed_pair(n), n - 1)
        assert lag == 7

    def test_side_arrays_read_only(self):
        n, max_lag = 5000, 159
        side = xcorr_side(_rng().standard_normal(n), max_lag)
        k, _, nfft = _blocks(n, max_lag)
        assert side.spectra.shape == (k, nfft // 2 + 1)
        for arr in (side.centred, side.spectra, side.pre, side.suf, side.sq_pre, side.sq_suf):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_side_for_other_length_or_lag_rejected(self):
        rng = _rng()
        a = rng.standard_normal(100)
        with pytest.raises(DataError):
            peak_cross_correlation(a, xcorr_side(rng.standard_normal(101), 5), 5)
        with pytest.raises(ConfigError, match="max lag 6"):
            peak_cross_correlation(a, xcorr_side(rng.standard_normal(100), 6), 5)

    @pytest.mark.parametrize("bad", ["constant", "non-finite", "short", "lag"])
    def test_side_checks_its_series(self, bad):
        x = _rng().standard_normal(50)
        lag, error = 5, NumericError
        if bad == "constant":
            x[:] = 2.5
        elif bad == "non-finite":
            x[7] = np.inf
        elif bad == "short":
            x, error = x[:1], DataError
        else:
            lag, error = 50, ConfigError
        with pytest.raises(error):
            xcorr_side(x, lag)

    @pytest.mark.filterwarnings("error")
    def test_sa_recording_matches_scan(self):
        # all 64 candidates of the seed-42 RBD-FAST bench study on both its
        # recordings: 29,293 envelope samples, lags within +-159, 17 blocks
        rows = rbdfast_sample(default_decision_bounds(), 64, seed=46)
        for seed in (44, 45):
            rec = synth_recording(seed=seed)
            rate = rec.emg.rate
            max_lag = int(round(DEFAULT_MAX_LAG_S * rate))
            for row in rows:
                dv = DecisionVector.from_array(row)
                env = process_recording(rec.emg, dv.to_mask(rate / N), dv.smoothing())
                peak, lag = envelope_grip_xcorr(env, rec.emg, rec.grip)
                grip = resample_linear(rec.grip, rec.emg.times[: env.size])
                assert (env.size, max_lag, _blocks(env.size, max_lag)[0]) == (29293, 159, 17)
                want_peak, want_lag = _scan_oracle(env, grip, max_lag)
                assert peak == pytest.approx(want_peak, abs=1e-12)
                assert lag == want_lag
                assert _fft_peak(env, grip, max_lag) == pytest.approx(want_peak, abs=1e-12)


class TestTypes:
    def test_series_must_increase(self):
        with pytest.raises(DataError):
            TimestampedSeries([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_series_keeps_a_copy_of_a_writeable_input(self):
        t, v = np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0])
        s = TimestampedSeries(t, v)
        assert s.times is not t and s.values is not v
        assert t.flags.writeable and np.array_equal(v, [1.0, 2.0, 3.0, 4.0])
        t[0], v[0] = -1.0, 9.0  # the caller's arrays stay theirs to change
        assert s.times[0] == 0.0 and s.values[0] == 1.0

    def test_series_keeps_a_read_only_input(self):
        t, v = np.arange(4.0), np.ones(4)
        t.flags.writeable = v.flags.writeable = False
        s = TimestampedSeries(t, v)
        assert s.times is t and s.values is v

    def test_series_copies_a_read_only_view_of_a_writeable_base(self):
        base = np.arange(4.0)
        v = base.view()
        v.flags.writeable = False
        s = TimestampedSeries(np.arange(4.0), v)
        assert not np.shares_memory(s.values, base)
        base[0] = 9.0  # the base stays the caller's to change
        assert s.values[0] == 0.0

    def test_series_keeps_a_slice_of_a_frozen_series(self):
        # fit_estimator and _grip_side resample onto emg.times[:n]
        rec = synth_recording(seed=3)
        head = rec.emg.times[:100]
        assert TimestampedSeries(head, np.ones(100)).times is head

    @pytest.mark.parametrize(
        "producer", ["constructor", "synth_recording", "read_series", "prepare_grip"]
    )
    @pytest.mark.parametrize("field", ["times", "values"])
    def test_series_arrays_read_only(self, producer, field, tmp_path):
        rec = synth_recording(seed=3)
        if producer == "constructor":
            series = TimestampedSeries(np.arange(4.0), np.ones(4))
        elif producer == "synth_recording":
            series = rec.emg
        elif producer == "read_series":
            series, _ = read_series(write_series(tmp_path / "g.csv", rec.grip))
        else:
            series = prepare_grip(rec.grip)
        with pytest.raises(ValueError, match="read-only"):
            getattr(series, field)[1] = 0.0
