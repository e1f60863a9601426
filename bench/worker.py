"""One benchmark process: set a workload up, measure it, check its outputs.

``run.py`` starts this file in fresh processes.  With ``--setup-only`` the
process times its set-up (imports, input generation, the first fit or the
first SA candidate) and exits; otherwise it goes on to measure the workload
for ``--seconds`` and prints one JSON object as its last line.

The library is driven only through its public functions.  Inputs come from
``synth_recording`` with seeds derived from ``--seed``; the program never
sees the seed itself.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # before the heavy imports, which set-up counts

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

from tracing import Tracer, percentile, self_times  # noqa: E402
from yardstick import REFERENCE_S, WINDOW_S, Yardstick  # noqa: E402

DEFAULT_SEED = 42
# level-sequence repeats of the streamed recording; None marks the SA study
WORKLOADS = {"session_default": 1, "session_long": 16, "sa_rbdfast": None}
TAIL_Q = 95              # op_p95_ms; p99 is printed beside it
MIN_OPS = 200            # batches or candidates per run, so p95 has 10 beyond it
FIT_EVERY_S = 0.75       # a warm fit_estimator between passes this often (job_s)
TRAIN_PANEL = 24         # calibration recordings the warm fits cycle through
SA_CANDIDATES = 64       # rows of one RBD-FAST study (250 variables)
SA_BOOT = 100            # bootstrap resamples for the first-order CIs
SA_REFERENCE_ROWS = 8    # candidates re-checked against stored references per run
# relative agreement required with the stored references; the forecaster
# amplifies rounding (a 2-thread BLAS moves forecasts by 3e-7), so its
# columns of the session digest get a looser bound than the estimates
RTOL = 1e-8
FORECAST_RTOL = 1e-5
REFERENCE_FILE = BENCH / "reference.json"


def derived_seeds(seed: int) -> dict:
    """Input seeds for one run; seed 42 gives the paper's 42/43 and 44/45.

    Fit time depends on the calibration recording (its kept grid cells set
    the matrix size), so the timed warm fits cycle through a panel.
    """
    return {
        "calib": seed,
        "stream": seed + 1,
        "corpus": (seed + 2, seed + 3),
        "sampler": seed + 4,
        "train_panel": (seed,) + tuple(seed + 5 + k for k in range(TRAIN_PANEL - 1)),
    }


def _import_library():
    import emgrip

    found = Path(emgrip.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit(f"emgrip imported from {found}, not from {SRC}")
    return emgrip


@dataclass
class Measured:
    """What one measuring loop saw."""

    op_ms: list = field(default_factory=list)   # per-op latency arrays (ms)
    op_span: list = field(default_factory=list)  # (start, s) of the unit timing each op
    rates: list = field(default_factory=list)   # (start, ops, wall s) per pass or study
    jobs: list = field(default_factory=list)    # (start, s) per warm fit or study
    ops: int = 0
    failed: int = 0
    units: int = 0                               # stream passes or studies
    result: object = None                        # last stream result

    def latencies(self):
        import numpy as np

        return np.concatenate(self.op_ms) if self.op_ms else np.empty(0)

    def wall_rates(self) -> list:
        return [n / wall for _, n, wall in self.rates]

    def in_reference_time(self, yard: Yardstick):
        """(per-op ms, ops per second, job seconds), each wall time scaled
        by the yardstick factor measured around it."""
        import numpy as np

        def around(start, took):  # the span itself and WINDOW_S on each side
            return yard.factor(start + took / 2, took / 2 + WINDOW_S)

        spans = [span for unit in self.op_span for span in unit]
        factor = {span: around(*span) for span in set(spans)}
        lat = self.latencies() * np.array([factor[span] for span in spans])

        rates = [n / (wall * around(t, wall)) for t, n, wall in self.rates]
        jobs = [took * around(t, took) for t, took in self.jobs]
        return lat, rates, jobs


# --------------------------------------------------------------------------
# sessions: calibrate once, then replay one EMG channel back to back


@dataclass
class Session:
    recording: object
    calib: object
    model: object
    mask: object
    smoothing: object
    hyper: object
    seed: int
    baseline: object = None  # per-batch digest every later pass must reproduce

    @property
    def n_batches(self) -> int:
        return -(-self.recording.emg.values.size // self.model.batch_size)


def setup_session(repeat: int, seed: int) -> Session:
    emg = _import_library()
    s = derived_seeds(seed)
    mask = emg.default_optimal_mask()
    smoothing = emg.SmoothingParams(300, 0.0)
    profile = emg.SynthProfile(levels=emg.SynthProfile().levels * repeat)
    calib = emg.synth_recording(seed=s["calib"])
    recording = emg.synth_recording(profile, seed=s["stream"])
    model = emg.fit_estimator(calib.emg, calib.grip, mask, smoothing)
    return Session(recording, calib, model, mask, smoothing, emg.ForecastHyperparams(), seed)


def stream_once(sess: Session):
    import emgrip

    return emgrip.stream_simulate(
        sess.recording, sess.model, sess.mask, sess.smoothing, sess.hyper
    )


def fit_once(sess: Session, calib=None):
    import emgrip

    calib = calib or sess.calib
    return emgrip.fit_estimator(calib.emg, calib.grip, sess.mask, sess.smoothing)


def train_panel(sess: Session) -> list:
    import emgrip

    return [sess.calib] + [
        emgrip.synth_recording(seed=s) for s in derived_seeds(sess.seed)["train_panel"][1:]
    ]


def _batch_of_estimates(sess: Session, n_estimates: int, n_batches: int):
    """Batch that delivered the newest input sample of each estimate."""
    import numpy as np

    hankel = sess.model.hankel
    idx = np.arange(n_estimates)
    return np.minimum((idx + hankel.delays) * hankel.downsample // sess.model.batch_size,
                      n_batches - 1)


def session_digest(sess: Session, result, n_batches: int):
    """Six numbers per batch: count, sum and position-weighted sum of the
    estimates whose newest input sample arrived in that batch, then the same
    for that batch's forecast block."""
    import numpy as np

    rows = np.zeros((n_batches, 6))
    est = np.asarray(result.estimates, dtype=float)
    batch_of = _batch_of_estimates(sess, est.size, n_batches)
    first = np.searchsorted(batch_of, np.arange(n_batches))
    local = np.arange(est.size) - first[batch_of] + 1.0
    rows[:, 0] = np.bincount(batch_of, minlength=n_batches)
    rows[:, 1] = np.bincount(batch_of, weights=est, minlength=n_batches)
    rows[:, 2] = np.bincount(batch_of, weights=est * local, minlength=n_batches)
    for block in result.forecasts:
        v = np.asarray(block.values, dtype=float)
        rows[block.batch_index, 3:] = (v.size, v.sum(), (v * np.arange(1, v.size + 1)).sum())
    return rows


def session_sane(sess: Session, result, n_batches: int):
    """Per-batch flags: the pass emitted every batch, estimates are finite,
    forecasts finite and inside the calibration grip range they are clamped
    to."""
    import numpy as np

    if result.latency.total_ms.size != n_batches:
        return np.zeros(n_batches, dtype=bool)
    ok = np.ones(n_batches, dtype=bool)
    est = np.asarray(result.estimates, dtype=float)
    ok[_batch_of_estimates(sess, est.size, n_batches)[~np.isfinite(est)]] = False
    lo, hi = sess.model.grip_scaler.invert(np.array([0.0, 1.0]))
    slack = 1e-9 * (hi - lo)
    for block in result.forecasts:
        v = np.asarray(block.values, dtype=float)
        if not (np.all(np.isfinite(v)) and v.min() >= lo - slack and v.max() <= hi + slack):
            ok[block.batch_index] = False
    return ok


def rows_close(actual, reference, rtol=RTOL):
    """Per-row agreement with a reference array within ``rtol``, which may
    hold one bound per column."""
    import numpy as np

    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if actual.shape != reference.shape:
        return np.zeros(max(len(reference), 1), dtype=bool)
    # absolute slack scales with each column, so near-zero sums still match
    scale = np.abs(reference).max(axis=0, initial=0.0) if reference.size else 0.0
    close = np.isclose(actual, reference, rtol=rtol, atol=np.multiply(rtol, np.maximum(scale, 1.0)))
    return close.reshape(close.shape[0], -1).all(axis=1)


def load_reference(workload: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[workload]


def check_session_reference(workload: str, sess: Session, seed: int):
    """Stream the stored-reference inputs once and compare every batch.

    Returns (attempted, failed).  Reuses the measured session when the run's
    seed is the reference seed.
    """
    ref = load_reference(workload)
    ref_sess = sess if seed == ref["seed"] else setup_session(WORKLOADS[workload], ref["seed"])
    n = len(ref["digest"])
    try:
        result = stream_once(ref_sess)
    except Exception as exc:  # no batch of the pass was emitted
        print(f"reference pass raised {exc!r}", file=sys.stderr)
        return n, n
    rtol = [RTOL] * 3 + [FORECAST_RTOL] * 3
    ok = rows_close(session_digest(ref_sess, result, n), ref["digest"], rtol)
    ok &= session_sane(ref_sess, result, n)
    return n, int((~ok).sum())


def session_pass(sess: Session, m: Measured, tracer=None, yard=None) -> None:
    """Stream one pass and check it.  Every pass repeats the same input, so
    each must reproduce the first pass's digest exactly.  ``yard`` samples
    host speed after the pass."""
    import numpy as np

    n = sess.n_batches
    m.ops += n
    m.units += 1
    if tracer:
        tracer.op = -1  # the batch wrapper numbers this pass's batches from 0
    try:
        tic = time.perf_counter()
        with tracer.span("simulate.stream") if tracer else nullcontext():
            result = stream_once(sess)
        wall = time.perf_counter() - tic
    except Exception as exc:  # no batch of the pass was emitted
        print(f"stream pass raised {exc!r}", file=sys.stderr)
        m.failed += n
        return
    m.op_ms.append(np.asarray(result.latency.total_ms, dtype=float))
    m.op_span.append([(tic, wall)] * result.latency.total_ms.size)
    m.rates.append((tic, result.latency.total_ms.size, wall))
    if yard:
        yard.measure()
    ok = session_sane(sess, result, n)
    digest = session_digest(sess, result, n)
    if sess.baseline is None:
        if ok.all():
            sess.baseline = digest
    else:
        ok &= np.all(digest == sess.baseline, axis=1)
    m.failed += int((~ok).sum())
    m.result = result


def persistence_wmape(sess: Session, result) -> float:
    """wMAPE of holding the newest estimate over each forecast block."""
    import numpy as np
    import emgrip

    rec = sess.recording
    t_max = rec.grip.times[-1]
    actual, held = [], []
    for block in result.forecasts:
        pos = np.searchsorted(result.estimate_times, block.times[0], side="right") - 1
        keep = block.times <= t_max
        actual.append(np.interp(block.times[keep], rec.grip.times, rec.grip.values))
        held.append(np.full(int(keep.sum()), result.estimates[pos]))
    return emgrip.wmape(np.concatenate(actual), np.concatenate(held))


# --------------------------------------------------------------------------
# sensitivity analysis: one RBD-FAST study over a 2-recording corpus


@dataclass
class Study:
    corpus: list
    bounds: object
    sampler_seed: int
    baseline: tuple | None = None  # (objective values, indices) of the first study


def setup_sa(seed: int) -> Study:
    emg = _import_library()
    s = derived_seeds(seed)
    corpus = [emg.synth_recording(seed=c) for c in s["corpus"]]
    study = Study(corpus, emg.default_decision_bounds(), s["sampler"])
    samples = emg.rbdfast_sample(study.bounds, SA_CANDIDATES, seed=study.sampler_seed)
    emg.map_objective(study.corpus, samples[:1])
    return study


def run_study(study: Study, tracer=None, first_op: int = 0, yard=None):
    """Sample, evaluate every candidate single-threaded, then the indices.

    Returns (per-candidate seconds, their start times, objective values or
    NaN where raised, SensitivityResult or None, study seconds).  ``yard``
    samples host speed after every candidate; its time is left out.
    """
    import numpy as np
    import emgrip

    tic = time.perf_counter()
    samples = emgrip.rbdfast_sample(study.bounds, SA_CANDIDATES, seed=study.sampler_seed)
    lat = np.empty(SA_CANDIDATES)
    starts = np.empty(SA_CANDIDATES)
    ys = np.full(SA_CANDIDATES, np.nan)
    yard_s = 0.0
    for i in range(SA_CANDIDATES):
        if tracer:
            tracer.op = first_op + i
        c0 = starts[i] = time.perf_counter()
        try:
            with tracer.span("sensitivity.objective") if tracer else nullcontext():
                ys[i] = emgrip.map_objective(study.corpus, samples[i : i + 1])[0]
        except Exception as exc:
            print(f"candidate {i} raised {exc!r}", file=sys.stderr)
        lat[i] = time.perf_counter() - c0
        if yard:
            yard_s += yard.measure()
    result = None
    if np.all(np.isfinite(ys)):
        if tracer:
            tracer.op = -1
        with tracer.span("sensitivity.rbdfast_indices") if tracer else nullcontext():
            result = emgrip.rbdfast_indices(samples, ys, n_boot=SA_BOOT, seed=study.sampler_seed)
    return lat, starts, ys, result, time.perf_counter() - tic - yard_s


def indices_vector(result):
    import numpy as np

    return np.concatenate([result.first_order, result.first_ci.ravel()])


def check_sa_reference(study: Study):
    """Re-evaluate stored-reference candidates and recompute the stored
    indices from the stored objective values.  Returns (attempted, failed)."""
    import numpy as np
    import emgrip

    ref = load_reference("sa_rbdfast")
    s = derived_seeds(ref["seed"])
    corpus = [emgrip.synth_recording(seed=c) for c in s["corpus"]]
    samples = emgrip.rbdfast_sample(study.bounds, SA_CANDIDATES, seed=s["sampler"])
    rows = ref["checked_rows"]
    failed = 0
    for r in rows:
        try:
            y = emgrip.map_objective(corpus, samples[r : r + 1])
        except Exception as exc:
            print(f"reference candidate {r} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        failed += int(not rows_close(y, [ref["objective"][r]])[0])
    try:
        res = emgrip.rbdfast_indices(
            samples, np.asarray(ref["objective"]), n_boot=SA_BOOT, seed=s["sampler"]
        )
        ok = rows_close(indices_vector(res)[None, :], np.asarray(ref["indices"])[None, :])[0]
    except Exception as exc:
        print(f"reference indices raised {exc!r}", file=sys.stderr)
        ok = False
    return len(rows) + 1, failed + int(not ok)


def sa_pass(study: Study, m: Measured, tracer=None, yard=None) -> None:
    """Run one whole study and check it.  Every study repeats the same
    inputs, so each must reproduce the first one exactly.  The indices
    computation counts as one op besides the candidates."""
    import numpy as np

    lat, starts, ys, result, took = run_study(study, tracer, m.units * SA_CANDIDATES, yard)
    ok = np.isfinite(ys) & (ys >= 0.0) & (ys <= 2.0)
    ind_ok = result is not None and bool(np.all(np.isfinite(indices_vector(result))))
    if study.baseline is None:
        if ok.all() and ind_ok:
            study.baseline = (ys, indices_vector(result))
    else:
        ok &= ys == study.baseline[0]
        ind_ok = ind_ok and np.array_equal(indices_vector(result), study.baseline[1])
    m.op_ms.append(1e3 * lat)
    m.op_span.append(list(zip(starts.tolist(), lat.tolist())))
    m.rates.append((starts[0], SA_CANDIDATES, float(lat.sum())))
    m.jobs.append((starts[0], took))
    m.ops += SA_CANDIDATES + 1
    m.failed += int((~ok).sum()) + int(not ind_ok)
    m.units += 1


def measure(one_pass, state, seconds: float, yard: Yardstick, panel=()) -> Measured:
    """Closed loop: the next pass starts when the previous one returned, for
    ``seconds`` and at least MIN_OPS ops.  Between passes, warm
    ``fit_estimator`` calls on the next recordings of ``panel`` keep up one
    fit per FIT_EVERY_S, however long a pass is, so fits and passes see the
    same machine conditions."""
    m = Measured()
    started = time.perf_counter()
    fits_due = started  # the first fit comes first
    while not m.units or time.perf_counter() - started < seconds or m.ops < MIN_OPS:
        while panel and time.perf_counter() >= fits_due:
            tic = time.perf_counter()
            fit_once(state, panel[len(m.jobs) % len(panel)])
            m.jobs.append((tic, time.perf_counter() - tic))
            yard.measure()
            fits_due += FIT_EVERY_S
        one_pass(state, m, yard=yard)
    return m


def measure_traced(one_pass, state, wraps, seconds: float, tracer: Tracer, yard: Yardstick):
    """Alternate traced and untraced passes for ``seconds``.

    Adjacent passes see the same machine conditions, so their rate ratio
    gives the tracing overhead.  Each untraced pass starts after the
    wrappers were removed; returns (traced, untraced, restored) where
    ``restored`` says every wrapped attribute was back each time.
    """
    traced, plain = Measured(), Measured()
    originals = [getattr(sys.modules[mod], attr) for mod, attr, *_ in wraps]
    restored = True
    started = time.perf_counter()
    while not plain.units or time.perf_counter() - started < seconds:
        with tracer.installed(wraps):
            one_pass(state, traced, tracer)
        restored &= all(getattr(sys.modules[mod], attr) is orig
                        for (mod, attr, *_), orig in zip(wraps, originals))
        one_pass(state, plain, yard=yard)
    return traced, plain, restored


# --------------------------------------------------------------------------
# traced runs


def session_wraps():
    """(module, attribute, span name, observer, starts_op) for each wrapper."""

    def on_predict(tr, args, kwargs, result):
        tr.count("forecasting.calls")
        if result is None:
            tr.count("forecasting.warmup_batches")

    def on_indicator(tr, args, kwargs, rows):
        tr.count("estimation.columns", rows.shape[1])
        tr.count("estimation.out_of_grid", float((rows.sum(axis=0) == 0).sum()))

    def on_forecast(tr, args, kwargs, vals):
        tr.count("forecasting.points", vals.size)
        if kwargs.get("scaler") is None:
            return
        bounds = kwargs["scaler"].invert([0.0, 1.0])
        tr.count("forecasting.clamped", float(((vals == bounds[0]) | (vals == bounds[1])).sum()))

    return [
        ("emgrip.simulate", "predict_batch", "forecasting.predict_batch", on_predict),
        ("emgrip.simulate", "estimate_window_scaled", "estimation.estimate_window_scaled"),
        ("emgrip.forecasting", "lowess_smooth", "forecasting.lowess_smooth"),
        ("emgrip.forecasting", "hankel_lift", "forecasting.hankel_lift"),
        ("emgrip.forecasting", "log_interaction_lift", "forecasting.log_interaction_lift"),
        ("emgrip.forecasting", "thin", "forecasting.thin"),
        ("emgrip.forecasting", "fit_dmd", "forecasting.fit_dmd"),
        ("emgrip.forecasting", "fit_amplitudes", "forecasting.fit_amplitudes"),
        ("emgrip.forecasting", "forecast", "forecasting.forecast", on_forecast),
        ("emgrip.processing", "process_batch", "processing.process_batch", None, True),
        ("emgrip.processing", "apply_spectral_mask", "processing.apply_spectral_mask"),
        ("emgrip.processing", "smooth_ema", "processing.smooth_ema"),
        ("emgrip.estimation", "hankel_lift", "estimation.hankel_lift"),
        ("emgrip.estimation", "indicator_rows_for", "estimation.indicator_rows_for", on_indicator),
        ("emgrip.estimation", "process_recording", "estimation.process_recording"),
        ("emgrip.estimation", "build_lifted_matrices", "estimation.build_lifted_matrices"),
        ("emgrip.estimation", "fit_static_koopman", "estimation.fit_static_koopman"),
    ]


def sa_wraps():
    def on_xcorr(tr, args, kwargs, result):
        tr.count("sensitivity.xcorr_calls")
        if abs(result[1]) == int(args[2]):
            tr.count("sensitivity.lag_at_boundary")

    return [
        ("emgrip.processing", "process_batch", "processing.process_batch"),
        ("emgrip.processing", "apply_spectral_mask", "processing.apply_spectral_mask"),
        ("emgrip.processing", "smooth_ema", "processing.smooth_ema"),
        ("emgrip.sensitivity", "process_recording", "sensitivity.process_recording"),
        ("emgrip.sensitivity", "resample_linear", "sensitivity.resample_linear"),
        ("emgrip.sensitivity", "peak_cross_correlation", "sensitivity.peak_cross_correlation", on_xcorr),
    ]


PER_LAYER = {
    # name: unit; every workload reports every name, 0 where a layer never ran
    "forecasting.predict_ms_p50": "ms",
    "forecasting.dmd_ms_p50": "ms",
    "forecasting.lowess_ms_p50": "ms",
    "forecasting.lift_ms_p50": "ms",
    "forecasting.amplitudes_ms_p50": "ms",
    "forecasting.forecast_ms_p50": "ms",
    "forecasting.self_ms_per_op": "ms",
    "forecasting.calls": "count",
    "forecasting.warmup_batches": "count",
    "forecasting.clamped_ratio": "ratio",
    "forecasting.persistence_wmape": "%",
    "estimation.window_ms_p50": "ms",
    "estimation.hankel_ms_p50": "ms",
    "estimation.indicator_ms_p50": "ms",
    "estimation.self_ms_per_op": "ms",
    "estimation.fit_process_s": "s",
    "estimation.fit_lift_s": "s",
    "estimation.fit_solve_s": "s",
    "estimation.columns": "count",
    "estimation.out_of_grid_ratio": "ratio",
    "processing.batch_ms_p50": "ms",
    "processing.mask_ms_p50": "ms",
    "processing.smooth_ms_p50": "ms",
    "processing.self_ms_per_op": "ms",
    "processing.calls": "count",
    "simulate.overhead_ms_per_batch": "ms",
    "simulate.state_bytes": "bytes",
    "sensitivity.objective_ms_p50": "ms",
    "sensitivity.xcorr_ms_p50": "ms",
    "sensitivity.process_ms_p50": "ms",
    "sensitivity.resample_ms_p50": "ms",
    "sensitivity.indices_s": "s",
    "sensitivity.self_ms_per_op": "ms",
    "sensitivity.candidates": "count",
    "sensitivity.lag_at_boundary_ratio": "ratio",
    "metrics.evaluate_s": "s",
    "metrics.estimation_wmape": "%",
    "metrics.forecast_wmape": "%",
    "metrics.peak_xcorr": "ratio",
    "tracing.op_total_ms": "ms",
    "tracing.self_sum_ms_per_op": "ms",
    "tracing.ops_per_s_traced": "1/s",
    "tracing.ops_per_s_untraced": "1/s",
    "tracing.overhead_pct": "%",
    "tracing.yardstick_ms": "ms",
}

SUBSTEPS = {
    "forecasting.fit_dmd": "dmd",
    "forecasting.lowess_smooth": "lowess",
    "forecasting.hankel_lift": "lift",
    "forecasting.log_interaction_lift": "lift",
    "forecasting.thin": "lift",
    "forecasting.fit_amplitudes": "amplitudes",
    "forecasting.forecast": "forecast",
}


def _p50_ms(durations) -> float:
    return 1e3 * percentile(durations, 50) if len(durations) else 0.0


def layer_metrics(tracer: Tracer, op_root: str, n_ops: int, n_units: int) -> dict:
    """Span statistics shared by both workload kinds.

    ``op_root`` names the root span of the measured work; layer self times
    are summed over its trees and divided by ``n_ops`` (batches or
    candidates), call counts by ``n_units`` (stream passes or studies).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    in_ops = [spans[root[i]].name == op_root for i in range(len(spans))]

    durations: dict[str, list[float]] = {}
    layer_self: dict[str, float] = {}
    for i, s in enumerate(spans):
        if not in_ops[i]:
            continue
        durations.setdefault(s.name, []).append(s.end - s.start)
        layer = s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]

    # forecaster sub-steps summed per predict call
    per_call: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        group = SUBSTEPS.get(s.name)
        if group is None or not in_ops[i]:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != "forecasting.predict_batch":
            p = spans[p].parent
        if p >= 0:
            bucket = per_call.setdefault(p, {})
            bucket[group] = bucket.get(group, 0.0) + (s.end - s.start)

    def sub(group):
        return [b[group] for b in per_call.values() if group in b]

    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "forecasting.predict_ms_p50": _p50_ms(durations.get("forecasting.predict_batch", [])),
        "forecasting.dmd_ms_p50": _p50_ms(sub("dmd")),
        "forecasting.lowess_ms_p50": _p50_ms(sub("lowess")),
        "forecasting.lift_ms_p50": _p50_ms(sub("lift")),
        "forecasting.amplitudes_ms_p50": _p50_ms(sub("amplitudes")),
        "forecasting.forecast_ms_p50": _p50_ms(sub("forecast")),
        "estimation.window_ms_p50": _p50_ms(durations.get("estimation.estimate_window_scaled", [])),
        "estimation.hankel_ms_p50": _p50_ms(durations.get("estimation.hankel_lift", [])),
        "estimation.indicator_ms_p50": _p50_ms(durations.get("estimation.indicator_rows_for", [])),
        "processing.batch_ms_p50": _p50_ms(durations.get("processing.process_batch", [])),
        "processing.mask_ms_p50": _p50_ms(durations.get("processing.apply_spectral_mask", [])),
        "processing.smooth_ms_p50": _p50_ms(durations.get("processing.smooth_ema", [])),
        "sensitivity.objective_ms_p50": _p50_ms(durations.get("sensitivity.objective", [])),
        "sensitivity.xcorr_ms_p50": _p50_ms(durations.get("sensitivity.peak_cross_correlation", [])),
        "sensitivity.process_ms_p50": _p50_ms(durations.get("sensitivity.process_recording", [])),
        "sensitivity.resample_ms_p50": _p50_ms(durations.get("sensitivity.resample_linear", [])),
    })
    for layer in ("forecasting", "estimation", "processing", "sensitivity"):
        m[f"{layer}.self_ms_per_op"] = 1e3 * layer_self.get(layer, 0.0) / n_ops
    m["simulate.overhead_ms_per_batch"] = (
        1e3 * layer_self.get("simulate", 0.0) / n_ops if op_root == "simulate.stream" else 0.0
    )
    m["tracing.self_sum_ms_per_op"] = 1e3 * sum(layer_self.values()) / n_ops
    m["processing.calls"] = len(durations.get("processing.process_batch", [])) / n_units
    return m


def session_layers(sess: Session, tracer: Tracer, traced: Measured) -> dict:
    """Per-layer metrics of a traced session run."""
    import numpy as np
    import emgrip

    m = layer_metrics(tracer, "simulate.stream", traced.ops, traced.units)

    def fit_median(name):
        return statistics.median(s.end - s.start for s in tracer.spans if s.name == name)

    c = tracer.counters
    result = traced.result
    m.update({
        "estimation.fit_process_s": fit_median("estimation.process_recording"),
        "estimation.fit_lift_s": fit_median("estimation.build_lifted_matrices"),
        "estimation.fit_solve_s": fit_median("estimation.fit_static_koopman"),
        "forecasting.calls": c.get("forecasting.calls", 0.0) / traced.units,
        "forecasting.warmup_batches": c.get("forecasting.warmup_batches", 0.0) / traced.units,
        "forecasting.clamped_ratio": c.get("forecasting.clamped", 0.0) / max(c.get("forecasting.points", 0.0), 1.0),
        "estimation.columns": c.get("estimation.columns", 0.0) / traced.units,
        "estimation.out_of_grid_ratio": c.get("estimation.out_of_grid", 0.0) / max(c.get("estimation.columns", 0.0), 1.0),
        "simulate.state_bytes": float(result.processed.nbytes + result.estimates.nbytes),
        "tracing.op_total_ms": float(np.mean(traced.latencies())),
    })
    tic = time.perf_counter()
    ev = emgrip.evaluate_run(sess.recording, sess.model, sess.mask, sess.smoothing, sess.hyper, result)
    m["metrics.evaluate_s"] = time.perf_counter() - tic
    m.update(quality(sess, result, ev))
    return m


def quality(sess: Session, result, ev) -> dict:
    return {
        "metrics.estimation_wmape": ev.estimation_wmape,
        "metrics.forecast_wmape": ev.prediction_wmape,
        "metrics.peak_xcorr": ev.peak_xcorr,
        "forecasting.persistence_wmape": persistence_wmape(sess, result),
    }


def sa_layers(tracer: Tracer, traced: Measured) -> dict:
    """Per-layer metrics of a traced SA run."""
    lat = traced.latencies()
    m = layer_metrics(tracer, "sensitivity.objective", lat.size, traced.units)
    c = tracer.counters
    m.update({
        "sensitivity.indices_s": statistics.median(
            s.end - s.start for s in tracer.spans if s.name == "sensitivity.rbdfast_indices"
        ),
        "sensitivity.candidates": float(SA_CANDIDATES),
        "sensitivity.lag_at_boundary_ratio": c.get("sensitivity.lag_at_boundary", 0.0) / max(c.get("sensitivity.xcorr_calls", 0.0), 1.0),
        "tracing.op_total_ms": float(lat.mean()),
    })
    return m


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    repeat = WORKLOADS[args.workload]
    out: dict = {"workload": args.workload, "seed": args.seed}

    if repeat:
        state = setup_session(repeat, args.seed)
    else:
        state = setup_sa(args.seed)
    setup_s = time.perf_counter() - T_START
    yard = Yardstick()
    for _ in range(8):
        yard.measure()
    out["setup_s"] = setup_s
    out["setup_ref_s"] = setup_s * REFERENCE_S / yard.median_s()
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import numpy as np
    import emgrip

    # the reference check comes first and warms every code path
    if repeat:
        attempted, failed = check_session_reference(args.workload, state, args.seed)
        one_pass, wraps = session_pass, session_wraps()
    else:
        attempted, failed = check_sa_reference(state)
        one_pass, wraps = sa_pass, sa_wraps()

    if args.trace:
        tracer = Tracer()
        if repeat:
            with tracer.installed(wraps):
                for _ in range(3):
                    with tracer.span("estimation.fit_estimator"):
                        fit_once(state)
        traced, plain, restored = measure_traced(one_pass, state, wraps, args.seconds, tracer, yard)
        attempted += traced.ops + plain.ops
        failed += traced.failed + plain.failed + (not restored)
        if not restored:
            print("traced wrappers were not restored", file=sys.stderr)
        m = session_layers(state, tracer, traced) if repeat else sa_layers(tracer, traced)
        traced_rates, plain_rates = traced.wall_rates(), plain.wall_rates()
        ratios = [t / u for t, u in zip(traced_rates, plain_rates)]
        m["tracing.ops_per_s_traced"] = statistics.median(traced_rates)
        m["tracing.ops_per_s_untraced"] = statistics.median(plain_rates)
        m["tracing.overhead_pct"] = 100.0 * (1.0 - statistics.median(ratios))
        m["tracing.yardstick_ms"] = 1e3 * yard.median_s()
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.write(BENCH / "out" / f"spans_{args.workload}_seed{args.seed}_trace1.jsonl")
        out["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items()}
    else:
        meas = measure(one_pass, state, args.seconds, yard, train_panel(state) if repeat else ())
        attempted += meas.ops
        failed += meas.failed
        lat = meas.latencies()
        lat_ref, rates_ref, jobs_ref = meas.in_reference_time(yard)
        out.update({
            "op_count": int(lat.size),
            "job_repeats": len(meas.jobs),
            "yardstick_ms": 1e3 * yard.median_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # the end-to-end timings: reference time (wall time scaled by
            # the yardstick around it), except the tail, which host speed
            # moves less than it moves the yardstick, so it stays in wall time
            "e2e": {
                "op_p50_ms": percentile(lat_ref, 50),
                "op_p95_ms": percentile(lat, TAIL_Q),
                "ops_per_s": statistics.median(rates_ref),
                "job_s": statistics.median(jobs_ref),
            },
            "wall": {
                "op_p50_ms": percentile(lat, 50),
                "op_p95_ms": percentile(lat, TAIL_Q),
                "op_p99_ms": percentile(lat, 99) if lat.size >= 1000 else None,
                "ops_per_s": statistics.median(meas.wall_rates()),
                "job_s": statistics.median(took for _, took in meas.jobs),
            },
        })
        if repeat and meas.result is not None:
            r = meas.result
            ev = emgrip.evaluate_run(state.recording, state.model, state.mask,
                                     state.smoothing, state.hyper, r)
            out["quality"] = quality(state, r, ev)
        elif not repeat and state.baseline is not None:
            out["quality"] = {"best_peak_xcorr": 1.0 - float(np.min(state.baseline[0]))}
    out["attempted"] = attempted
    out["failed"] = failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
