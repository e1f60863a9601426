"""Inspect the built-in spectral mask and watch it act on single tones.

The mask removes DC and very low frequencies, boosts the 32-42 Hz band,
holds mains (50 Hz) at 37.5%, amplifies the mid band up to a plateau, and
zeroes everything from 204 Hz up.
"""
import numpy as np

from emgrip import apply_spectral_mask, default_optimal_mask
from emgrip.processing import DEFAULT_BATCH_SIZE, NOMINAL_EMG_FS

mask = default_optimal_mask()
print(f"{len(mask)} bins at {mask.bin_resolution:.4f} Hz per bin\n")

print("gain profile (selected bins):")
for hz in (0, 2, 10, 18, 32, 42, 50, 52, 80, 110, 150, 202, 204, 300):
    k = int(round(hz / mask.bin_resolution))
    print(f"  {hz:4d} Hz -> gain {mask.gains[k]:.3f}")

t = np.arange(DEFAULT_BATCH_SIZE) / NOMINAL_EMG_FS
print("\nsingle-tone batches through the mask (output rms / input rms):")
for hz in (10, 37, 50, 80, 150, 250):
    tone = np.sin(2 * np.pi * hz * t)
    out = apply_spectral_mask(tone, mask)
    print(f"  {hz:4d} Hz tone -> amplitude ratio {out.std() / tone.std():.3f}")

print("\nwrite the mask to disk with: emgrip mask default --out <dir>")
