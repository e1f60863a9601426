"""Stream a recording through the full pipeline and forecast half a second ahead.

Every 0.5 s batch is processed, estimated, and handed to a freshly trained
spectral model (LOWESS smoothing, log-interaction lifting, thinning, DMD,
amplitude refit), which extrapolates its modes over the next batch.  The
latency report shows the whole chain runs far faster than the batch cadence.
The finished run keeps its scaled estimates, so other forecaster settings
replay over the same stream without processing or estimating again.
"""
from dataclasses import replace

import numpy as np

from emgrip import (
    ForecastHyperparams,
    SmoothingParams,
    default_optimal_mask,
    fit_estimator,
    synth_recording,
)
from emgrip.simulate import evaluate_run, forecast_blocks, prediction_wmape, stream_simulate

calibration = synth_recording(seed=42)
test = synth_recording(seed=43)
mask = default_optimal_mask()
smoothing = SmoothingParams(300, 0.0)
hyper = ForecastHyperparams()  # window 1.3x, smooth 1.1x, thin 7, 8 delays, 4 modes

model = fit_estimator(calibration.emg, calibration.grip, mask, smoothing)
result = stream_simulate(test, model, mask, smoothing, hyper)

n_batches = result.latency.process_ms.size
print(f"{n_batches} batches streamed; forecasts start at batch "
      f"{result.forecasts[0].batch_index} after the warm-up")
print(f"forecast rate: {result.forecasts[0].values.size} points per 0.5 s batch")

pct = result.latency.percentiles()
print("\nper-batch wall time (ms):")
for stage in ("process", "estimate", "predict", "total"):
    p = pct[stage]
    print(f"  {stage:9s} p50 {p['p50']:6.2f}  p90 {p['p90']:6.2f}  p99 {p['p99']:6.2f}")

ev = evaluate_run(test, model, mask, smoothing, hyper, result=result)
print(f"\npeak cross-correlation: {ev.peak_xcorr:.3f}")
print(f"estimation wMAPE:       {ev.estimation_wmape:.2f}%")
print(f"0.5 s-ahead forecast wMAPE: {ev.prediction_wmape:.2f}%")

# each replay gives the blocks a stream with that setting would emit
print("\nforecast wMAPE, other settings replayed over the same stream:")
for label, other in (
    ("default", hyper),
    ("thin step 5", replace(hyper, thin_step=5)),
    ("window 1.4x", replace(hyper, window_modifier=1.4)),
):
    blocks = forecast_blocks(test, model, result, other)
    score = prediction_wmape(test.grip, replace(result, forecasts=blocks))
    print(f"  {label:12s} {score:6.2f}%")

block = result.forecasts[len(result.forecasts) // 2]
actual = np.interp(block.times, test.grip.times, test.grip.values)
print(f"\nforecast block from batch {block.batch_index}:")
for t, f, a in zip(block.times, block.values, actual):
    print(f"  t={t:6.2f}s  forecast {f:7.2f} N  actual {a:7.2f} N")
