import dataclasses
import tracemalloc

import numpy as np
import pytest

from emgrip.errors import ConfigError, NumericError
from emgrip.io import Recording
from emgrip.processing import SmoothingParams, SpectralMask, TimestampedSeries, process_recording
from emgrip.simulate import estimation_wmape, evaluate_run, prediction_wmape, stream_simulate
from emgrip.synth import SynthProfile, synth_recording


CHAIN_PARTS = ["window", "decay", "flat_mask", "one_gain", "resolution"]


def _other_chain(mask, smoothing, part):
    """A signal chain that differs from the fitted one in ``part`` only."""
    one_gain = mask.gains.copy()
    one_gain[100] += 1.0
    return {
        "window": (mask, SmoothingParams(100, smoothing.decay)),
        "decay": (mask, SmoothingParams(smoothing.window_size, 0.02)),
        "flat_mask": (SpectralMask(np.ones(mask.gains.size), mask.bin_resolution), smoothing),
        "one_gain": (SpectralMask(one_gain, mask.bin_resolution), smoothing),
        "resolution": (SpectralMask(mask.gains, 2 * mask.bin_resolution), smoothing),
    }[part]


def _truncate(recording, n_samples):
    return Recording(
        TimestampedSeries(recording.emg.times[:n_samples], recording.emg.values[:n_samples]),
        recording.grip,
        recording.subject,
        recording.position,
        recording.replication,
    )


class TestStreamSimulate:
    def test_batch_and_forecast_counts(self, test_recording, stream_result, model):
        n_batches = test_recording.emg.values.size // model.batch_size
        assert stream_result.latency.process_ms.size >= n_batches
        # one forecast block per post-warm-up batch
        assert len(stream_result.forecasts) >= n_batches - 4
        indices = [b.batch_index for b in stream_result.forecasts]
        assert indices == sorted(indices)

    def test_estimates_cover_stream_at_decimated_rate(self, test_recording, stream_result, model):
        step = model.hankel.downsample
        expect = test_recording.emg.values.size // step - model.hankel.delays
        assert abs(stream_result.estimates.size - expect) <= 2
        dt = np.diff(stream_result.estimate_times)
        assert np.allclose(dt, step / test_recording.emg.rate, rtol=1e-6)

    def test_truncation_reproduces_prefix_exactly(self, test_recording, stream_result, model, mask, smoothing):
        k = 13
        cut = _truncate(test_recording, model.batch_size * k)
        part = stream_simulate(cut, model, mask, smoothing)
        n = part.estimates.size
        assert np.array_equal(part.estimates, stream_result.estimates[:n])
        assert np.array_equal(part.estimate_times, stream_result.estimate_times[:n])
        full_blocks = {b.batch_index: b for b in stream_result.forecasts}
        for block in part.forecasts:
            ref = full_blocks[block.batch_index]
            assert np.array_equal(block.values, ref.values)
            assert np.array_equal(block.times, ref.times)

    @pytest.mark.parametrize("fragment, n_batches", [(5, 4), (1, 3)], ids=["plus5", "plus1"])
    def test_tiny_terminal_fragment_handled(
        self, test_recording, model, mask, smoothing, fragment, n_batches
    ):
        # a trailing 2-7 sample fragment forms a final batch too short for
        # the estimation window contract; it must be skipped, not crash.
        # A 1-sample fragment is dropped, as in offline processing.
        cut = _truncate(test_recording, model.batch_size * 3 + fragment)
        result = stream_simulate(cut, model, mask, smoothing)
        assert result.latency.process_ms.size == n_batches
        expect = (model.batch_size * 3) // model.hankel.downsample - model.hankel.delays
        assert result.estimates.size == expect
        assert np.array_equal(result.processed, process_recording(cut.emg, mask, smoothing))

    def test_full_stream_matches_offline_exactly(self, test_recording, stream_result, model, mask, smoothing):
        emg = test_recording.emg
        assert np.array_equal(stream_result.processed, process_recording(emg, mask, smoothing))
        n = stream_result.estimates.size
        step = model.hankel.downsample
        assert np.array_equal(stream_result.estimate_times, emg.times[np.arange(n) * step])

    def test_working_memory_does_not_grow_with_session(self, model, mask, smoothing, stream_result):
        # stream_result has run the stream once, so lazy caches are warm.
        # Excess = traced peak minus the history the result holds; it may
        # grow with the session only by a small fraction of that history.
        excess, held = {}, {}
        for k in (1, 4):
            rec = synth_recording(SynthProfile(levels=SynthProfile().levels * k), seed=43)
            tracemalloc.start()
            try:
                result = stream_simulate(rec, model, mask, smoothing)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held[k] = sum(
                a.nbytes for a in (result.processed, result.estimates, result.estimate_times)
            )
            excess[k] = peak - held[k]
        assert excess[4] - excess[1] < 0.25 * held[4], (excess, held)

    def test_rate_mismatch_rejected(self, test_recording, model, mask, smoothing):
        slow = Recording(
            TimestampedSeries(test_recording.emg.times * 2.0, test_recording.emg.values),
            test_recording.grip,
        )
        with pytest.raises(ConfigError):
            stream_simulate(slow, model, mask, smoothing)

    @pytest.mark.parametrize("part", CHAIN_PARTS)
    def test_chain_mismatch_rejected(self, test_recording, model, mask, smoothing, part):
        other_mask, other_smoothing = _other_chain(mask, smoothing, part)
        with pytest.raises(ConfigError, match="fitted on"):
            stream_simulate(test_recording, model, other_mask, other_smoothing)

    def test_latency_report_shape(self, stream_result):
        rep = stream_result.latency
        n = rep.process_ms.size
        assert rep.estimate_ms.size == n and rep.predict_ms.size == n
        assert np.all(rep.total_ms >= rep.process_ms)
        pct = rep.percentiles()
        assert set(pct) == {"process", "estimate", "predict", "total"}
        assert pct["total"]["p50"] <= pct["total"]["p99"]

    def test_real_time_paces_batches(self, test_recording, model, mask, smoothing):
        import time

        two_batches = _truncate(test_recording, model.batch_size * 2)
        start = time.perf_counter()
        stream_simulate(two_batches, model, mask, smoothing, real_time=True)
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.9  # two 0.5 s batches


class TestEvaluateRun:
    def test_metrics_reasonable_on_synthetic(self, test_recording, model, mask, smoothing, stream_result):
        ev = evaluate_run(test_recording, model, mask, smoothing, result=stream_result)
        assert 0.5 <= ev.peak_xcorr <= 1.0
        assert ev.estimation_wmape >= 0.0
        assert np.isfinite(ev.prediction_wmape)

    def test_stream_without_estimates_scores_nan(self, test_recording, model, mask, smoothing):
        cut = _truncate(test_recording, 400)  # shorter than model.min_window()
        result = stream_simulate(cut, model, mask, smoothing)
        assert result.estimates.size == 0 and not result.forecasts
        assert np.isnan(estimation_wmape(cut.grip, result))
        assert np.isnan(prediction_wmape(cut.grip, result))

    @pytest.mark.parametrize("part", CHAIN_PARTS)
    def test_chain_mismatch_rejected(self, test_recording, model, mask, smoothing, stream_result, part):
        other_mask, other_smoothing = _other_chain(mask, smoothing, part)
        for result in (None, stream_result):
            with pytest.raises(ConfigError, match="fitted on"):
                evaluate_run(test_recording, model, other_mask, other_smoothing, result=result)

    def test_reuses_supplied_result(self, test_recording, model, mask, smoothing, stream_result):
        a = evaluate_run(test_recording, model, mask, smoothing, result=stream_result)
        b = evaluate_run(test_recording, model, mask, smoothing, result=stream_result)
        assert a == b

    def test_zero_grip_over_short_stream_scores_nan(self, test_recording, model, mask, smoothing):
        # the first 0.8 s of seed 43, whose grip is 0 N throughout: every
        # metric is undefined, and none raises
        emg = test_recording.emg
        grip = test_recording.grip
        cut = Recording(
            TimestampedSeries(emg.times[:800], emg.values[:800]),
            TimestampedSeries(grip.times[:170], grip.values[:170]),
        )
        assert not cut.grip.values.any()
        result = stream_simulate(cut, model, mask, smoothing)
        assert result.estimates.size > 0
        ev = evaluate_run(cut, model, mask, smoothing, result=result)
        assert np.isnan(ev.peak_xcorr) and ev.lag_samples is None
        assert np.isnan(ev.estimation_wmape) and np.isnan(ev.prediction_wmape)

    def test_zero_grip_scores_nan_wmape(self, test_recording, model, mask, smoothing, stream_result):
        grip = test_recording.grip
        zero = dataclasses.replace(test_recording, grip=TimestampedSeries(grip.times, np.zeros(grip.values.size)))
        assert stream_result.forecasts
        assert np.isnan(estimation_wmape(zero.grip, stream_result))
        assert np.isnan(prediction_wmape(zero.grip, stream_result))
        ev = evaluate_run(zero, model, mask, smoothing, result=stream_result)
        assert np.isnan(ev.peak_xcorr) and ev.lag_samples is None

    def test_constant_grip_scores_nan_xcorr_only(self, test_recording, model, mask, smoothing, stream_result):
        grip = test_recording.grip
        flat = dataclasses.replace(test_recording, grip=TimestampedSeries(grip.times, np.full(grip.values.size, 2.0)))
        ev = evaluate_run(flat, model, mask, smoothing, result=stream_result)
        assert np.isnan(ev.peak_xcorr) and ev.lag_samples is None
        assert np.isfinite(ev.estimation_wmape) and np.isfinite(ev.prediction_wmape)

    def test_constant_envelope_scores_nan_xcorr(self, test_recording, model, mask, smoothing, stream_result):
        flat = dataclasses.replace(stream_result, processed=np.full(stream_result.processed.size, 0.5))
        ev = evaluate_run(test_recording, model, mask, smoothing, result=flat)
        assert np.isnan(ev.peak_xcorr) and ev.lag_samples is None
        assert ev.estimation_wmape == evaluate_run(
            test_recording, model, mask, smoothing, result=stream_result
        ).estimation_wmape

    def test_non_finite_grip_still_raises(self, test_recording, model, mask, smoothing, stream_result):
        values = test_recording.grip.values.copy()
        values[50] = np.nan
        bad = dataclasses.replace(test_recording, grip=TimestampedSeries(test_recording.grip.times, values))
        with pytest.raises(NumericError, match="non-finite"):
            evaluate_run(bad, model, mask, smoothing, result=stream_result)
