"""Call shapes that the bench's tracer hooks into.

``bench/tracing.py`` times a layer by replacing a function at the module
attribute its caller looks up.  A refactor that calls the function some
other way still passes every output test, but the bench then reads that
layer as zero time.  These tests pin the lookups and argument shapes.
"""
import numpy as np

import emgrip.estimation
import emgrip.forecasting
import emgrip.processing
import emgrip.sensitivity
import emgrip.simulate
from emgrip.estimation import fit_estimator
from emgrip.sensitivity import DecisionVector, objective
from emgrip.simulate import stream_simulate
from emgrip.synth import SynthProfile, synth_recording


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` and return the list of (args, kwargs) it sees."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_objective_calls_each_sensitivity_hook_once_per_recording(monkeypatch):
    profile = SynthProfile(plateau_s=1.0, ramp_s=0.5, lead_s=0.5)
    corpus = [synth_recording(profile, seed=s) for s in (31, 32)]
    calls = {
        name: _count_calls(monkeypatch, emgrip.sensitivity, name)
        for name in ("process_recording", "resample_linear", "peak_cross_correlation")
    }
    per_batch = {
        name: _count_calls(monkeypatch, emgrip.processing, name)
        for name in ("process_batch", "apply_spectral_mask", "smooth_ema")
    }
    objective(corpus, DecisionVector(np.ones(248), 150, 0.0))
    assert {name: len(c) for name, c in calls.items()} == {name: 2 for name in calls}
    # process_recording runs batch-major: no per-batch call, one smoothing
    # pass, one mask call for the full batches and one for a trailing batch
    # of 2 or more samples, so the processing.* layer metrics of an SA study
    # time whole recordings, and every candidate masks
    masks = sum(1 + (rec.emg.values.size % 496 >= 2) for rec in corpus)
    assert masks > len(corpus)
    assert len(per_batch["process_batch"]) == 0
    assert len(per_batch["smooth_ema"]) == len(corpus)
    assert len(per_batch["apply_spectral_mask"]) == masks
    # the lag-at-boundary counter reads max_lag as the third positional argument
    assert all(type(args[2]) is int for args, _ in calls["peak_cross_correlation"])
    # a second candidate on the same corpus reuses each recording's grip
    # side: no resampling, but still one processing and one correlation
    # call a recording, so the lag-at-boundary counter sees every candidate
    objective(corpus, DecisionVector(np.full(248, 0.5), 90, 0.01))
    assert len(calls["resample_linear"]) == len(corpus)
    assert len(calls["process_recording"]) == len(calls["peak_cross_correlation"]) == 2 * len(corpus)
    assert len(per_batch["smooth_ema"]) == 2 * len(corpus)
    assert len(per_batch["apply_spectral_mask"]) == 2 * masks
    assert all(type(args[2]) is int for args, _ in calls["peak_cross_correlation"])


def test_stream_calls_batch_hooks_once_per_batch(
    monkeypatch, test_recording, model, mask, smoothing
):
    per_batch = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in (
            (emgrip.processing, "process_batch"),
            (emgrip.processing, "apply_spectral_mask"),
            (emgrip.processing, "smooth_ema"),
            (emgrip.simulate, "predict_batch"),
        )
    }
    estimates = _count_calls(monkeypatch, emgrip.simulate, "estimate_window_scaled")
    result = stream_simulate(test_recording, model, mask, smoothing)
    n_batches = result.latency.process_ms.size
    assert {name: len(c) for name, c in per_batch.items()} == {name: n_batches for name in per_batch}
    assert 0 < len(estimates) <= n_batches


def test_fit_calls_each_estimation_hook_once(monkeypatch, calib_recording, mask, smoothing):
    # the bench's fit_process_s, fit_lift_s and fit_solve_s read these lookups
    calls = {
        name: _count_calls(monkeypatch, emgrip.estimation, name)
        for name in ("process_recording", "build_lifted_matrices", "fit_static_koopman")
    }
    model = fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing)
    assert {name: len(c) for name, c in calls.items()} == {name: 1 for name in calls}
    assert model.k.shape == (model.hankel.delays + 1, model.lifted_dim)


def test_stream_calls_layer_hooks_once_per_estimate_and_forecast(
    monkeypatch, test_recording, model, mask, smoothing
):
    # the forecasting.*_ms_p50 spans, estimation.hankel/indicator spans and
    # the clamped_ratio and out_of_grid counters read these lookups
    per_forecast = {
        name: _count_calls(monkeypatch, emgrip.forecasting, name)
        for name in (
            "lowess_smooth", "hankel_lift", "thin", "log_interaction_lift",
            "fit_dmd", "fit_amplitudes", "forecast",
        )
    }
    per_estimate = {
        name: _count_calls(monkeypatch, emgrip.estimation, name)
        for name in ("hankel_lift", "indicator_rows_for")
    }
    estimates = _count_calls(monkeypatch, emgrip.simulate, "estimate_window_scaled")
    result = stream_simulate(test_recording, model, mask, smoothing)
    n_forecasts = len(result.forecasts)
    assert n_forecasts > 0
    assert {name: len(c) for name, c in per_forecast.items()} == {
        name: n_forecasts for name in per_forecast
    }
    # the clamped_ratio counter reads the scaler from the keywords
    assert all("scaler" in kwargs for _, kwargs in per_forecast["forecast"])
    assert {name: len(c) for name, c in per_estimate.items()} == {
        name: len(estimates) for name in per_estimate
    }
