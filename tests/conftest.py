import os

# one BLAS thread, as bench/run.py pins for its workers: OpenBLAS's spinning
# threads otherwise contend for the cores with any other busy process, and
# the scan-oracle tests slow ~20x.  Set before numpy loads BLAS; the demo and
# import subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from emgrip.estimation import fit_estimator
from emgrip.processing import SmoothingParams, default_optimal_mask
from emgrip.simulate import stream_simulate
from emgrip.synth import synth_recording


@pytest.fixture(scope="session")
def mask():
    return default_optimal_mask()


@pytest.fixture(scope="session")
def smoothing():
    return SmoothingParams(300, 0.0)


@pytest.fixture(scope="session")
def calib_recording():
    return synth_recording(seed=42)


@pytest.fixture(scope="session")
def test_recording():
    return synth_recording(seed=43)


@pytest.fixture(scope="session")
def model(calib_recording, mask, smoothing):
    # warm the linear algebra backend so timing-sensitive tests measure the
    # algorithm, not library initialisation
    np.linalg.svd(np.random.default_rng(0).standard_normal((32, 32)))
    return fit_estimator(calib_recording.emg, calib_recording.grip, mask, smoothing)


@pytest.fixture(scope="session")
def stream_result(test_recording, model, mask, smoothing):
    return stream_simulate(test_recording, model, mask, smoothing)


# header lines that read_model must reject: defect -> (key, value)
_BAD_HEADER = {
    "batch_size_248": ("batch_size", "248"),
    "degenerate_emg_scaler": ("emg_scaler", "1.0 1.0"),
    "window_size_1": ("window_size", "1"),
    "fs_nan": ("fs", "nan"),
    "fs_inf": ("fs", "inf"),
    # (divisions + 2)**3 padded cells overflow the cell lookup's int64 index
    "divisions_huge": ("divisions", "3000000"),
}


def _break_model(text: str, defect: str) -> str:
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("K "))
    rows, cols = (int(v) for v in lines[at].split()[1:])
    if defect == "old_square_k":
        # square K padded with the zero rows of the indicator half, plus the
        # grip_floor header line that older files carry
        lines[at] = f"K {cols} {cols}"
        lines += [" ".join(["0.0"] * cols)] * (cols - rows)
        floor_at = next(i for i, line in enumerate(lines) if line.startswith("min_density "))
        lines.insert(floor_at + 1, "grip_floor -1.0")
    elif defect == "kept_mismatch":
        kept_at = next(i for i, line in enumerate(lines) if line.startswith("kept "))
        lines[kept_at] = lines[kept_at].rsplit(" ", 1)[0]
    elif defect.startswith("kept_"):
        kept_at = next(i for i, line in enumerate(lines) if line.startswith("kept "))
        kept = lines[kept_at].split()[1:]
        if defect == "kept_swapped":
            kept[3], kept[4] = kept[4], kept[3]
        elif defect == "kept_negative":
            kept[0] = "-1"
        elif defect == "kept_duplicate":
            kept[4] = kept[3]
        elif defect == "kept_out_of_range":
            kept[-1] = "10648"  # 22**3, one past the last cell of the grid
        lines[kept_at] = " ".join(["kept", *kept])
    elif defect == "short_k_header":
        lines[at] = f"K {cols}"
    elif defect == "non_numeric_k":
        lines[at + 1] = "abc " + lines[at + 1].partition(" ")[2]
    elif defect in _BAD_HEADER:
        key, value = _BAD_HEADER[defect]
        i = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[i] = f"{key} {value}"
    return "\n".join(lines) + "\n"


@pytest.fixture(
    params=[
        "old_square_k",
        "kept_mismatch",
        "kept_swapped",
        "kept_negative",
        "kept_duplicate",
        "kept_out_of_range",
        "short_k_header",
        "non_numeric_k",
        *_BAD_HEADER,
    ]
)
def model_defect(request):
    """(name, rewrite): rewrite turns a model file's text into one with that defect."""
    return request.param, lambda text: _break_model(text, request.param)
