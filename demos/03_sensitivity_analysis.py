"""Sensitivity analysis of the processing objective, staged like a tuning run.

Stage 1 benchmarks the two estimators on the Ishigami function, where the
true indices are known in closed form.  Stage 2 runs a coarse grouped
analysis of the real objective (1 - mean peak cross-correlation) on a small
synthetic corpus, projects the Latin hypercube samples onto the smoothing
window, and records a bounds-narrowing step in the file ``emgrip sa
--bounds-file`` resumes from.
"""
import tempfile
from pathlib import Path

import numpy as np

from emgrip import (
    Bounds,
    NarrowingRecord,
    default_decision_bounds,
    latin_hypercube,
    map_objective,
    projection_summary,
    rbdfast_indices,
    rbdfast_sample,
    saltelli_sample,
    sobol_indices,
)
from emgrip.io import read_narrowing, write_narrowing
from emgrip.synth import SynthProfile, synth_recording


def ishigami(x, a=7.0, b=0.1):
    return np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 + b * x[:, 2] ** 4 * np.sin(x[:, 0])


print("== stage 1: estimator check on Ishigami (true S1 = 0.314, 0.442, 0.000)")
box = Bounds(np.full(3, -np.pi), np.full(3, np.pi), ("x1", "x2", "x3"))
samples = saltelli_sample(box, 2**12, seed=1)
sob = sobol_indices(samples, ishigami(samples), groups=box.variable_names(), n_boot=200, seed=1)
for i, name in enumerate(sob.names):
    lo, hi = sob.first_ci[i]
    print(f"  Sobol   {name}: S1 = {sob.first_order[i]:+.3f} [{lo:+.3f}, {hi:+.3f}]  "
          f"ST = {sob.total_order[i]:.3f}")
rbd_x = rbdfast_sample(box, 2**12, seed=2)
rbd = rbdfast_indices(rbd_x, ishigami(rbd_x), names=box.variable_names())
for i, name in enumerate(rbd.names):
    print(f"  RBD-FAST {name}: S1 = {rbd.first_order[i]:+.3f}")

print("\n== stage 2: grouped analysis of the processing objective")
profile = SynthProfile(plateau_s=1.0, ramp_s=0.5, lead_s=0.5)
corpus = [synth_recording(profile, seed=s) for s in (21, 22)]
bounds = default_decision_bounds()
design = saltelli_sample(bounds, 8, groups=bounds.groups, seed=3)
outputs = map_objective(corpus, design)
result = sobol_indices(design, outputs, groups=bounds.groups)
for name, s1, st in zip(result.names, result.first_order, result.total_order):
    print(f"  group {name:12s} S1 = {s1:+.3f}  ST = {st:+.3f}")
print("  (tiny sample count: treat these as a smoke run, not estimates)")

print("\n== Latin hypercube projection onto the smoothing window")
lhs = latin_hypercube(bounds, 24, seed=4)
lhs_out = map_objective(corpus, lhs)
proj = projection_summary(lhs, lhs_out, var_index=248, n_bins=6)
for c, m in zip(proj.centers, proj.bin_means):
    bar = "#" * int(40 * m) if np.isfinite(m) else ""
    print(f"  window ~{c:5.0f}: objective {m:.3f} {bar}")

print("\n== recording a narrowing decision")
record = NarrowingRecord(bounds)
lower, upper = bounds.lower.copy(), bounds.upper.copy()
upper[248] = 400.0   # shrink the window search range
upper[249] = 0.01    # and the decay range
step = record.append(Bounds(lower, upper, bounds.names),
                     top=[("window_size", float(result.first_order[1]))])
with tempfile.TemporaryDirectory() as tmp:
    path = write_narrowing(Path(tmp) / "bounds.txt", record)
    lines = len(path.read_text().splitlines())
    resumed = read_narrowing(path).current
print(f"  step {step.step} recorded (no-op: {step.no_op}); the record file is "
      f"{lines} lines, and resumes at window <= {resumed.upper[248]:.0f}")
