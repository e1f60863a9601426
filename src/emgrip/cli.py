"""Command-line surface tying the pipeline together.

Subcommands: synth, mask, process, xcorr, sa, fit, tune, evaluate, simulate.
``simulate`` is the one streaming command: it writes the estimates, the
forecasts, the latency table and one report.  Global flags: --seed, --out.
Every option has one source, its flag, whose default is the built-in value.
Exit codes: 0 ok, 1 usage, 2 input/format error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import io as eio
from .calibration import prepare_grip
from .errors import ConfigError, DataError, EmgripError, NumericError
from .estimation import HankelParams, IndicatorGrid, fit_estimator
from .forecasting import grid_search
from .metrics import anova_rbd, block_effects, summary_stats
from .processing import (
    SmoothingParams,
    TimestampedSeries,
    default_optimal_mask,
    process_recording,
)
from .sensitivity import (
    NarrowingRecord,
    default_decision_bounds,
    envelope_grip_xcorr,
    latin_hypercube,
    map_objective,
    projection_summary,
    rbdfast_indices,
    rbdfast_sample,
    saltelli_sample,
    sobol_indices,
)
from .simulate import evaluate_run, prediction_wmape, stream_simulate
from .synth import synth_corpus

USAGE_EXIT, INPUT_EXIT, NUMERIC_EXIT = 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: a stale flag must not parse as a longer one
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # map argparse usage errors onto exit code 1
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes the token after an unknown flag for the subcommand
        # and reports that; name the flag instead
        args = sys.argv[1:] if args is None else list(args)
        for token in (tokens := iter(args)):
            if not token.startswith("-") or token == "--":
                break
            action = self._option_string_actions.get(token.split("=", 1)[0])
            if action is None:
                self.error(f"unrecognized arguments: {token}")
            if action.nargs is None and "=" not in token:
                next(tokens, None)  # its value
        return super().parse_known_args(args, namespace)


def _comma_list(cast, what: str):
    """argparse ``type=`` for a comma-separated list; a bad item is a usage error."""

    def parse(text: str) -> tuple:
        try:
            return tuple(cast(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")

    return parse


_float_list = _comma_list(float, "numbers")
_int_list = _comma_list(int, "integers")


def _count(text: str) -> int:
    """argparse ``type=`` for a non-negative integer."""
    try:
        value = int(text)
        if value < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="emgrip", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    signal = argparse.ArgumentParser(add_help=False)
    signal.add_argument("--mask", default=None, help="mask file (default: built-in)")
    signal.add_argument(
        "--window", type=int, default=SmoothingParams.window_size, help="smoothing window (samples)"
    )
    signal.add_argument(
        "--decay", type=float, default=SmoothingParams.decay, help="smoothing decay in [0, 1)"
    )

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--subjects", type=int, default=1)
    p.add_argument("--replications", type=int, default=1)

    p = sub.add_parser("mask", help="built-in spectral mask")
    p.add_argument("action", choices=["default", "show"])
    p.add_argument("--file", type=str, default=None, help="mask file for 'show'")

    p = sub.add_parser("process", parents=[signal], help="raw EMG file -> processed envelope file")
    p.add_argument("--emg", required=True)

    p = sub.add_parser("xcorr", parents=[signal], help="peak cross-correlation summary for a corpus")
    p.add_argument("--data", required=True, help="directory of *_emg.csv/*_grip.csv")

    p = sub.add_parser("sa", help="sensitivity analysis on the corpus objective")
    p.add_argument("method", choices=["sobol", "rbdfast", "lh"])
    p.add_argument("--data", required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--groups", choices=["coarse", "none"], default="coarse")
    p.add_argument("--bounds-file", default=None, help="narrowing record to resume from")
    p.add_argument("--boot", type=_count, default=0)
    p.add_argument("--harmonics", type=int, default=10)

    p = sub.add_parser("fit", parents=[signal], help="train the estimator on a calibration recording")
    p.add_argument("--emg", required=True)
    p.add_argument("--grip", required=True)
    p.add_argument("--delays", type=int, default=HankelParams.delays)
    p.add_argument("--raw-grip", action="store_true", help="zero + calibrate the grip stream")
    p.add_argument("--model", default=None, help="output model path")

    p = sub.add_parser("tune", help="hyperparameter grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--window-mods", type=_float_list, default="1.2,1.3,1.4")
    p.add_argument("--smooth-mods", type=_float_list, default="1.1")
    p.add_argument("--thin-steps", type=_int_list, default="7")
    p.add_argument("--delay-counts", type=_int_list, default="8")
    p.add_argument("--mode-counts", type=_int_list, default="4")

    p = sub.add_parser("evaluate", help="effects + ANOVA from per-run metrics")
    p.add_argument("--runs", required=True, help="CSV of subject,position,replication,wmape")

    p = sub.add_parser("simulate", help="estimate and forecast grip force for a recording")
    p.add_argument("--model", required=True)
    p.add_argument("--emg", required=True)
    p.add_argument("--grip", default=None, help="measured grip for xcorr and wMAPE")
    p.add_argument("--realtime", action="store_true")
    return parser


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else eio.default_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _mask(path):
    return eio.read_mask(path) if path else default_optimal_mask()


def _load_corpus(data_dir: str):
    root = Path(data_dir)
    pairs = sorted(root.glob("*_emg.csv"))
    if not pairs:
        raise DataError(f"no *_emg.csv recordings under {root}")
    recs = []
    for emg_path in pairs:
        grip_path = emg_path.with_name(emg_path.name.replace("_emg.csv", "_grip.csv"))
        if not grip_path.exists():
            raise DataError(f"missing grip stream for {emg_path}")
        recs.append(eio.read_recording(emg_path, grip_path))
    return recs


def _cmd_synth(args):
    out = _out_dir(args)
    calibs, runs = synth_corpus(
        seed=args.seed, subjects=args.subjects, replications=args.replications
    )
    for rec in calibs + runs:
        eio.write_recording(out, rec)
    print(f"wrote {len(calibs)} calibration + {len(runs)} run recordings to {out}")
    return 0


def _cmd_mask(args):
    mask = _mask(args.file)
    if args.action == "default":
        path = _out_dir(args) / "mask.tsv"
        eio.write_mask(path, mask)
        print(f"wrote {path}")
    else:
        for f, g in zip(mask.frequencies, mask.gains):
            print(f"{f!r}\t{g!r}")
    return 0


def _cmd_process(args):
    emg, meta = eio.read_series(args.emg)
    smoothing = SmoothingParams(args.window, args.decay)
    processed = process_recording(emg, _mask(args.mask), smoothing)
    out = _out_dir(args) / (Path(args.emg).stem + "_processed.csv")
    eio.write_series(
        out,
        TimestampedSeries(emg.times[: processed.size], processed),
        {**meta, "stream": "processed_emg"},
    )
    print(f"wrote {out}")
    return 0


def _cmd_xcorr(args):
    mask = _mask(args.mask)
    smoothing = SmoothingParams(args.window, args.decay)
    peaks, lags_ms = [], []
    for rec in _load_corpus(args.data):
        processed = process_recording(rec.emg, mask, smoothing)
        try:
            peak, lag = envelope_grip_xcorr(processed, rec.emg, rec.grip)
        except (DataError, NumericError) as exc:
            raise type(exc)(f"{rec.stem}: {exc}") from exc
        peaks.append(peak)
        # positive = envelope trails the measured force
        lags_ms.append(-1e3 * lag / rec.emg.rate)
    rows = []
    for name, vals in (("peak_xcorr", peaks), ("emg_lag_ms", lags_ms)):
        s = summary_stats(vals)
        rows.append((name,) + s.as_tuple())
    out = _out_dir(args) / "xcorr_summary.tsv"
    eio.write_table(out, ["metric", "min", "q1", "median", "mean", "q3", "max"], rows)
    print(f"wrote {out}")
    for row in rows:
        print("\t".join(str(v) for v in row))
    return 0


def _cmd_sa(args):
    # checked before the study: rbdfast_indices would only reject it after
    # every candidate had been evaluated
    if args.method == "rbdfast" and not 1 <= args.harmonics < args.samples // 2:
        raise _UsageError(
            f"argument --harmonics: expected 1 <= harmonics < samples // 2 "
            f"= {args.samples // 2}, got {args.harmonics}"
        )
    if args.bounds_file:
        text = eio._read_text(Path(args.bounds_file))
        try:
            bounds = NarrowingRecord.from_text(text).current
        except (DataError, ConfigError) as exc:
            raise DataError(f"{args.bounds_file}: {exc}") from exc
    else:
        bounds = default_decision_bounds()
    if args.method == "sobol" and args.groups == "coarse" and bounds.groups is None:
        raise ConfigError("the bounds box has no group labels; pass --groups none")
    corpus = _load_corpus(args.data)
    # the objective builds each recording's sides at the first candidate;
    # building them here rejects a recording before any candidate runs
    for rec in corpus:
        try:
            rec.sa_sides
        except (DataError, NumericError) as exc:
            raise type(exc)(f"{rec.stem}: {exc}") from exc
    out = _out_dir(args)
    seed = args.seed
    # "none" analyses every variable separately; unique names act as groups
    groups = bounds.groups if args.groups == "coarse" else bounds.variable_names()

    if args.method == "sobol":
        samples = saltelli_sample(bounds, args.samples, groups=groups, seed=seed)
        outputs = map_objective(corpus, samples)
        result = sobol_indices(samples, outputs, groups=groups, n_boot=args.boot, seed=seed)
        path = out / "sa_sobol.tsv"
    elif args.method == "rbdfast":
        samples = rbdfast_sample(bounds, args.samples, seed=seed)
        outputs = map_objective(corpus, samples)
        result = rbdfast_indices(
            samples, outputs, harmonics=args.harmonics,
            n_boot=args.boot, seed=seed, names=bounds.variable_names(),
        )
        path = out / "sa_rbdfast.tsv"
    else:
        samples = latin_hypercube(bounds, args.samples, seed=seed)
        outputs = map_objective(corpus, samples)
        rows = []
        names = bounds.variable_names()
        for name in (n for n in ("window_size", "decay") if n in names):
            idx = names.index(name)
            summary = projection_summary(samples, outputs, idx, n_bins=10)
            for c, m, t in zip(summary.centers, summary.bin_means, summary.trend):
                rows.append((name, float(c), float(m), float(t)))
        path = out / "sa_lh_projections.tsv"
        eio.write_table(path, ["variable", "bin_center", "bin_mean", "trend"], rows)
        print(f"wrote {path}")
        return 0
    path.write_text(result.to_text())
    print(f"wrote {path}")
    return 0


def _cmd_fit(args):
    emg, _ = eio.read_series(args.emg)
    grip, _ = eio.read_series(args.grip)
    if args.raw_grip:
        grip = prepare_grip(grip)
    model = fit_estimator(
        emg, grip, _mask(args.mask), SmoothingParams(args.window, args.decay),
        HankelParams(args.delays), IndicatorGrid(),
    )
    path = Path(args.model) if args.model else _out_dir(args) / "model.txt"
    eio.write_model(path, model)
    print(f"wrote {path} (lifted dim {model.lifted_dim}, kept {model.kept.size} cells)")
    return 0


def _cmd_tune(args):
    corpus = _load_corpus(args.data)
    model = eio.read_model(args.model)

    def evaluate(hyper):
        return [
            prediction_wmape(
                rec.grip, stream_simulate(rec, model, model.mask, model.smoothing, hyper)
            )
            for rec in corpus
        ]

    rows = grid_search(
        evaluate,
        window_modifiers=args.window_mods,
        smooth_modifiers=args.smooth_mods,
        thin_steps=args.thin_steps,
        delay_counts=args.delay_counts,
        mode_counts=args.mode_counts,
    )
    table = [
        (h.window_modifier, h.smooth_modifier, h.thin_step, h.delays, h.n_modes,
         mean, median, score)
        for h, mean, median, score in rows
    ]
    out = _out_dir(args) / "tuning.tsv"
    eio.write_table(
        out,
        ["window_mod", "smooth_mod", "thin_step", "delays", "modes",
         "mean_wmape", "median_wmape", "score"],
        table,
    )
    best = rows[0][0]
    print(f"wrote {out}")
    print(
        f"best: window_mod={best.window_modifier} smooth_mod={best.smooth_modifier} "
        f"thin={best.thin_step} delays={best.delays} modes={best.n_modes}"
    )
    return 0


def _cmd_evaluate(args):
    records = eio.read_runs(args.runs)
    table = anova_rbd(records)
    out = _out_dir(args)
    rows = [
        (r.source, r.df, r.ss, r.ms,
         "" if r.f is None else r.f, "" if r.p is None else r.p)
        for r in table.rows
    ]
    eio.write_table(out / "anova.tsv", ["source", "df", "ss", "ms", "F", "p"], rows)
    for block_by in ("position", "subject"):
        eff = block_effects(records, block_by)
        eio.write_table(
            out / f"effects_{block_by}.tsv",
            [block_by, "mean", "effect"],
            [(b, float(m), float(e)) for b, m, e in zip(eff.blocks, eff.means, eff.effects)],
        )
    s = summary_stats([r.metric for r in records])
    eio.write_table(
        out / "wmape_summary.tsv",
        ["min", "q1", "median", "mean", "q3", "max"],
        [s.as_tuple()],
    )
    for r in table.rows:
        f = "" if r.f is None else f"{r.f:.4f}"
        p = "" if r.p is None else f"{r.p:.4f}"
        print(f"{r.source}\tdf={r.df}\tSS={r.ss:.4f}\tF={f}\tp={p}")
    return 0


def _cmd_simulate(args):
    start = time.perf_counter()
    model = eio.read_model(args.model)
    emg, _ = eio.read_series(args.emg)
    # the grip stream is only read by the metrics; without --grip the
    # recording reuses the EMG in its place
    rec = eio.Recording(emg, eio.read_series(args.grip)[0] if args.grip else emg)
    result = stream_simulate(rec, model, model.mask, model.smoothing, real_time=args.realtime)
    elapsed = time.perf_counter() - start
    out = _out_dir(args)
    # estimates first: a stream too short to estimate then leaves no file
    eio.write_series(
        out / "estimates.csv",
        TimestampedSeries(result.estimate_times, result.estimates),
        {"stream": "grip_estimate_N"},
    )
    n_forecasts = sum(b.values.size for b in result.forecasts)
    # a stream too short to forecast writes no forecasts.csv: a header-only
    # file would fail read_forecasts
    if n_forecasts:
        eio.write_forecasts(out / "forecasts.csv", result.forecast_rows())
    pct = result.latency.percentiles()
    eio.write_table(
        out / "latency.tsv",
        ["stage", "p50_ms", "p90_ms", "p99_ms"],
        [(k, v["p50"], v["p90"], v["p99"]) for k, v in pct.items()],
    )
    print(f"wrote estimates, {'forecasts, ' if n_forecasts else ''}latency to {out}")
    print(f"median per-batch total: {pct['total']['p50']:.2f} ms")
    rows = [
        ("n_estimates", float(result.estimates.size)),
        ("n_forecasts", float(n_forecasts)),
        ("runtime_s", elapsed),
    ]
    if args.grip:
        run = evaluate_run(rec, model, model.mask, model.smoothing, result=result)
        terms = []
        for name, label, value in (
            ("peak_xcorr", "peak xcorr {:.3f}", run.peak_xcorr),
            ("estimation_wmape_pct", "estimation wMAPE {:.2f}%", run.estimation_wmape),
            ("prediction_wmape_pct", "prediction wMAPE {:.2f}%", run.prediction_wmape),
        ):
            # NaN: a stream too short to forecast, or input that leaves it undefined
            if not np.isnan(value):
                rows.append((name, value))
                terms.append(label.format(value))
        if terms:
            print(", ".join(terms))
    report = eio.write_table(out / "simulate_report.tsv", ["metric", "value"], rows)
    print(f"wrote {report}")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "mask": _cmd_mask,
    "process": _cmd_process,
    "xcorr": _cmd_xcorr,
    "sa": _cmd_sa,
    "fit": _cmd_fit,
    "tune": _cmd_tune,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (DataError, ConfigError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except EmgripError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
