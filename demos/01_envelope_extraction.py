"""Walk through the EMG conditioning chain on a synthetic recording.

Generates a recording whose EMG is band-limited noise modulated by a known
grip profile, runs the batch pipeline (spectral mask -> rectify -> smooth),
and checks how well the resulting envelope tracks the force that produced
it.
"""
import numpy as np

from emgrip import (
    SmoothingParams,
    default_optimal_mask,
    envelope_grip_xcorr,
    process_recording,
    resample_linear,
    synth_recording,
)

rec = synth_recording(seed=7)
print(f"recording: {rec.emg.values.size} EMG samples at {rec.emg.rate:.2f} Hz, "
      f"{rec.grip.values.size} grip samples at {rec.grip.rate:.1f} Hz")

mask = default_optimal_mask()
smoothing = SmoothingParams(window_size=300, decay=0.0)
envelope = process_recording(rec.emg, mask, smoothing)
print(f"envelope: {envelope.size} samples, all non-negative: {bool(np.all(envelope >= 0))}")

peak, lag = envelope_grip_xcorr(envelope, rec.emg, rec.grip)
print(f"peak cross-correlation vs grip force: {peak:.3f} at lag {lag} samples "
      f"({1e3 * lag / rec.emg.rate:.1f} ms)")

print("\nenvelope vs grip on the five force plateaus:")
grip_on_emg = resample_linear(rec.grip, rec.emg.times[: envelope.size])
for level in (1.0, 0.75, 0.5, 0.25, 0.0):
    sel = np.isclose(grip_on_emg, level * 120.0, atol=0.5)
    if sel.any():
        print(f"  {level * 100:5.0f}% force -> mean envelope {envelope[sel].mean():.4f}")
