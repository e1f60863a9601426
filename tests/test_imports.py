"""The library and its hot paths load no scipy.

scipy.stats alone takes most of a second to import, so only the two CLI
features that need it (the ANOVA p-value of ``evaluate`` and the Sobol
sampler of ``sa sobol``) import it, inside the function that uses it.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import emgrip
import emgrip.cli
from emgrip.synth import synth_recording

mask, smoothing = emgrip.default_optimal_mask(), emgrip.SmoothingParams(300, 0.0)
calib, test = synth_recording(seed=42), synth_recording(seed=43)
model = emgrip.fit_estimator(calib.emg, calib.grip, mask, smoothing)
result = emgrip.stream_simulate(test, model, mask, smoothing)
assert result.forecasts
emgrip.evaluate_run(test, model, mask, smoothing, result=result)
bounds = emgrip.default_decision_bounds()
x = emgrip.rbdfast_sample(bounds, 8, seed=42)
y = emgrip.map_objective([calib, test], x)
emgrip.rbdfast_indices(x, y, harmonics=2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_library_and_hot_paths_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
