"""Train the static grip-force estimator and replay it batch by batch.

A calibration recording fits the lifted linear operator (Hankel delays plus
gridded indicator observables); a second recording from the same "subject"
is then streamed through the estimator in 0.5 s batches, as the simulator
runs it, and scored against its true force.
"""
import time

import numpy as np

from emgrip import (
    SmoothingParams,
    default_optimal_mask,
    estimation_wmape,
    fit_estimator,
    resample_linear,
    stream_simulate,
    synth_recording,
)

calibration = synth_recording(seed=42)
test = synth_recording(seed=43)
mask = default_optimal_mask()
smoothing = SmoothingParams(300, 0.0)

start = time.perf_counter()
model = fit_estimator(calibration.emg, calibration.grip, mask, smoothing)
print(f"trained in {time.perf_counter() - start:.2f} s: "
      f"{model.lifted_dim} lifted coordinates "
      f"({model.hankel.delays + 1} delays + {model.kept.size} grid cells kept "
      f"of {model.grid.divisions ** 3})")

result = stream_simulate(test, model, mask, smoothing)
estimates, times = result.estimates, result.estimate_times
truth = resample_linear(test.grip, times)
step = model.hankel.downsample
print(f"{estimates.size} estimates at {1 / (step / test.emg.rate):.1f} Hz")
print(f"estimation wMAPE vs measured grip: {estimation_wmape(test.grip, result):.2f}%")

print("\nsample of the trace (t, measured N, estimated N):")
for i in np.linspace(0, estimates.size - 1, 8, dtype=int):
    print(f"  t={times[i]:6.2f}s  measured {truth[i]:7.2f}  estimated {estimates[i]:7.2f}")
