"""Streaming batch simulator: process -> estimate -> predict with latency accounting.

Feeds a recording's EMG stream through the pipeline in fixed-size batches,
exactly as a live session would see it: the envelope processor carries its
smoothing tail, the estimator sees only data up to the current batch end,
and the forecaster is retrained from scratch on every batch.  Wall-clock
time per stage is recorded for the latency report.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .estimation import EstimatorModel, estimate_window_scaled
from .forecasting import ForecastHyperparams, predict_batch
from .io import Recording
from .metrics import wmape
from .processing import (
    DEFAULT_BATCH_SIZE,
    SmoothingParams,
    SpectralMask,
    TimestampedSeries,
    envelope_batches,
    resample_linear,
)
from .sensitivity import envelope_grip_xcorr


@dataclass
class LatencyReport:
    """Per-batch wall-clock milliseconds for each pipeline stage."""

    process_ms: np.ndarray
    estimate_ms: np.ndarray
    predict_ms: np.ndarray

    @property
    def total_ms(self) -> np.ndarray:
        return self.process_ms + self.estimate_ms + self.predict_ms

    def percentiles(self, qs=(50, 90, 99)) -> dict[str, dict[str, float]]:
        out = {}
        for name, arr in (
            ("process", self.process_ms),
            ("estimate", self.estimate_ms),
            ("predict", self.predict_ms),
            ("total", self.total_ms),
        ):
            out[name] = {f"p{q}": float(np.percentile(arr, q)) for q in qs}
        return out


@dataclass
class ForecastBlock:
    batch_index: int
    times: np.ndarray
    values: np.ndarray


@dataclass
class StreamResult:
    """Everything the simulator emitted for one recording."""

    estimate_times: np.ndarray
    estimates: np.ndarray          # newtons
    forecasts: list[ForecastBlock]
    latency: LatencyReport
    processed: np.ndarray

    def forecast_rows(self):
        for block in self.forecasts:
            for t, v in zip(block.times, block.values):
                yield block.batch_index, t, v


def _check_chain(model: EstimatorModel, mask: SpectralMask, smoothing: SmoothingParams):
    """Reject a signal chain other than the one ``model`` was fitted on."""
    if not (
        smoothing == model.smoothing
        and mask.bin_resolution == model.mask.bin_resolution
        and np.array_equal(mask.gains, model.mask.gains)
    ):
        raise ConfigError("mask or smoothing differs from the chain the model was fitted on")


def stream_simulate(
    recording: Recording,
    model: EstimatorModel,
    mask: SpectralMask,
    smoothing: SmoothingParams,
    hyper: ForecastHyperparams = ForecastHyperparams(),
    real_time: bool = False,
) -> StreamResult:
    """Run the full pipeline over one recording in streaming batches.

    Offline mode runs at full speed; ``real_time`` sleeps each batch to the
    nominal cadence.  Forecast blocks start once the estimate history can
    fill the prediction window.  ``mask`` and ``smoothing`` must equal the
    chain stored in ``model``; anything else raises ``ConfigError``.

    The envelope and estimate histories are allocated once, sized from the
    recording, and filled in place.  Each batch's work reads fixed-size
    windows only: the estimator reads the envelope from the oldest sample
    its next estimate needs, and the forecaster reads the newest estimates.
    So a batch costs the same late in a long session as early in a short one.
    """
    _check_chain(model, mask, smoothing)
    emg = recording.emg
    fs = emg.rate
    if abs(fs - model.fs) > 0.01 * model.fs:
        raise ConfigError(
            f"recording rate {fs:.2f} Hz does not match model rate {model.fs:.2f} Hz"
        )
    step = model.hankel.downsample
    delays = model.hankel.delays
    batch_ds = DEFAULT_BATCH_SIZE // step

    # histories filled in place: ``seen`` envelope samples, ``n_est`` estimates
    n_total = emg.values.size
    processed = np.empty(n_total)
    est_scaled = np.empty(max(-(-n_total // step) - delays, 0))
    seen = 0
    n_est = 0  # decimated positions already estimated
    forecasts: list[ForecastBlock] = []
    lat_process: list[float] = []
    lat_estimate: list[float] = []
    lat_predict: list[float] = []

    cadence = DEFAULT_BATCH_SIZE / fs
    wall_start = time.perf_counter()
    # the process timer runs from the end of the previous batch, so it
    # covers the generator's work of producing the next envelope
    tic = wall_start
    for b, out in enumerate(envelope_batches(emg, mask, smoothing)):
        processed[seen : seen + out.size] = out
        seen += out.size
        lat_process.append((time.perf_counter() - tic) * 1e3)

        tic = time.perf_counter()
        m_ds = -(-seen // step)  # ceil: decimated samples available
        n_avail = m_ds - delays
        window = processed[step * n_est : seen]
        # a terminal fragment shorter than the contract window is skipped
        if n_avail > n_est and window.size >= model.min_window():
            est_scaled[n_est:n_avail] = estimate_window_scaled(model, window)
            n_est = n_avail
        lat_estimate.append((time.perf_counter() - tic) * 1e3)

        tic = time.perf_counter()
        # forecast timestamps extrapolate from the rate of the data seen so
        # far, so a truncated rerun reproduces them bit for bit (causality)
        dt_seen = (emg.times[seen - 1] - emg.times[0]) / (seen - 1)
        preds = predict_batch(est_scaled[:n_est], hyper, model.grip_scaler, batch_samples=batch_ds)
        if preds is not None:
            tau = np.arange(1, preds.size + 1)
            t_last = emg.times[(n_est - 1) * step]
            times = t_last + tau * hyper.thin_step * step * dt_seen
            forecasts.append(ForecastBlock(b, times, preds))
        lat_predict.append((time.perf_counter() - tic) * 1e3)

        if real_time:
            deadline = wall_start + (b + 1) * cadence
            now = time.perf_counter()
            if deadline > now:
                time.sleep(deadline - now)
        tic = time.perf_counter()

    return StreamResult(
        emg.times[np.arange(n_est) * step],
        model.grip_scaler.invert(est_scaled[:n_est]),
        forecasts,
        LatencyReport(np.array(lat_process), np.array(lat_estimate), np.array(lat_predict)),
        processed[:seen],
    )


@dataclass(frozen=True)
class RunEvaluation:
    peak_xcorr: float
    lag_samples: int | None
    estimation_wmape: float
    prediction_wmape: float


def evaluate_run(
    recording: Recording,
    model: EstimatorModel,
    mask: SpectralMask,
    smoothing: SmoothingParams,
    hyper: ForecastHyperparams = ForecastHyperparams(),
    result: StreamResult | None = None,
) -> RunEvaluation:
    """Streaming metrics for one recording against its measured grip force.

    Composes ``envelope_grip_xcorr``, ``estimation_wmape`` and
    ``prediction_wmape``; the stream is run first unless ``result`` is given.
    ``mask`` and ``smoothing`` must equal the model's chain.  A metric the
    input leaves undefined is NaN: the peak xcorr (with ``lag_samples``
    None) when the envelope or the resampled grip is constant over the
    envelope's span, and a wMAPE whose grip is all zero.  Non-finite input
    still raises.
    """
    if result is None:
        result = stream_simulate(recording, model, mask, smoothing, hyper)
    else:
        _check_chain(model, mask, smoothing)
    grip = recording.grip
    envelope = result.processed
    grip_span = resample_linear(grip, recording.emg.times[: envelope.size])
    # ptp is NaN, not 0, on a NaN, so non-finite input reaches the raise
    if np.ptp(envelope) == 0 or np.ptp(grip_span) == 0:
        peak, lag = float("nan"), None
    else:
        peak, lag = envelope_grip_xcorr(envelope, recording.emg, grip)
    return RunEvaluation(peak, lag, estimation_wmape(grip, result), prediction_wmape(grip, result))


def estimation_wmape(grip: TimestampedSeries, result: StreamResult) -> float:
    """wMAPE of the streamed estimates against grip resampled at their
    timestamps; NaN if the stream was too short to emit any, or if that
    grip is all zero."""
    if result.estimates.size == 0:
        return float("nan")
    actual = resample_linear(grip, result.estimate_times)
    if not actual.any():
        return float("nan")
    return wmape(actual, result.estimates)


def prediction_wmape(grip: TimestampedSeries, result: StreamResult) -> float:
    """wMAPE of every forecast point up to the last grip sample; NaN if none,
    or if the grip at those points is all zero.

    Points stay in emission order: timestamps repeat across batches, and
    wMAPE does not depend on the order.
    """
    if not result.forecasts:
        return float("nan")
    times = np.concatenate([b.times for b in result.forecasts])
    values = np.concatenate([b.values for b in result.forecasts])
    kept = times <= grip.times[-1]
    actual = np.interp(times[kept], grip.times, grip.values)
    if not actual.any():
        return float("nan")
    return wmape(actual, values[kept])
