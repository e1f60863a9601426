"""Plain-text file formats and configuration handling.

Every format is line-oriented and byte-stable: floats are written with
``repr`` (shortest round-trip form), so write -> read -> write reproduces
the file exactly.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import MinMaxScaler
from .errors import ConfigError, DataError
from .estimation import EstimatorModel, HankelParams, IndicatorGrid
from .processing import SmoothingParams, SpectralMask, TimestampedSeries

ENV_OUT_DIR = "EMGRIP_OUT_DIR"


def _fmt(x) -> str:
    return repr(float(x))


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def default_out_dir() -> Path:
    return Path(os.environ.get(ENV_OUT_DIR, "."))


@dataclass(frozen=True)
class Recording:
    """Paired EMG and grip-force streams for one experiment run."""

    emg: TimestampedSeries
    grip: TimestampedSeries
    subject: str = "s01"
    position: int = 1
    replication: int = 1

    def __post_init__(self):
        lo = max(self.emg.times[0], self.grip.times[0])
        hi = min(self.emg.times[-1], self.grip.times[-1])
        if hi <= lo:
            raise DataError("EMG and grip streams do not overlap in time")

    @property
    def stem(self) -> str:
        return f"{self.subject}_p{self.position}_r{self.replication}"


def write_series(path, series: TimestampedSeries, meta: dict | None = None) -> Path:
    """One stream as '# key value' headers plus 't_s,value' rows."""
    path = Path(path)
    lines = []
    for key, val in (meta or {}).items():
        lines.append(f"# {key} {val}")
    lines.append("t_s,value")
    for t, v in zip(series.times, series.values):
        lines.append(f"{_fmt(t)},{_fmt(v)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_series(path) -> tuple[TimestampedSeries, dict]:
    path = Path(path)
    meta: dict[str, str] = {}
    times: list[float] = []
    values: list[float] = []
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition(" ")
            meta[key] = val
            continue
        if line == "t_s,value":
            continue
        try:
            t, v = line.split(",")
            times.append(float(t))
            values.append(float(v))
        except ValueError as exc:
            raise DataError(f"malformed row in {path}: {line!r}") from exc
    if not times:
        raise DataError(f"no samples in {path}")
    return TimestampedSeries(np.array(times), np.array(values)), meta


def recording_paths(out_dir, rec: Recording) -> tuple[Path, Path]:
    out = Path(out_dir)
    return out / f"{rec.stem}_emg.csv", out / f"{rec.stem}_grip.csv"


def write_recording(out_dir, rec: Recording) -> tuple[Path, Path]:
    emg_path, grip_path = recording_paths(out_dir, rec)
    meta = {
        "subject": rec.subject,
        "position": rec.position,
        "replication": rec.replication,
    }
    write_series(emg_path, rec.emg, {**meta, "stream": "emg"})
    write_series(grip_path, rec.grip, {**meta, "stream": "grip"})
    return emg_path, grip_path


def read_recording(emg_path, grip_path) -> Recording:
    emg, meta = read_series(emg_path)
    grip, _ = read_series(grip_path)
    try:
        position = int(meta.get("position", 1))
        replication = int(meta.get("replication", 1))
    except ValueError as exc:
        raise DataError(f"malformed header in {emg_path}: {exc}") from exc
    return Recording(
        emg,
        grip,
        subject=meta.get("subject", "s01"),
        position=position,
        replication=replication,
    )


def write_mask(path, mask: SpectralMask) -> Path:
    """Mask as one 'frequency_hz<TAB>gain' line per bin."""
    path = Path(path)
    lines = [
        f"{_fmt(f)}\t{_fmt(g)}" for f, g in zip(mask.frequencies, mask.gains)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_mask(path) -> SpectralMask:
    path = Path(path)
    freqs: list[float] = []
    gains: list[float] = []
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            f, g = line.split("\t")
            freqs.append(float(f))
            gains.append(float(g))
        except ValueError as exc:
            raise DataError(f"malformed mask line: {line!r}") from exc
    if len(freqs) < 2:
        raise DataError("mask file needs at least 2 bins")
    return SpectralMask(np.array(gains), freqs[1] - freqs[0])


def write_model(path, model: EstimatorModel) -> Path:
    """Self-describing text header followed by K in row-major decimal.

    The header carries the signal chain the operator was fitted on (mask
    gains and bin resolution, smoothing window and decay), so a stream is
    replayed through the same chain.
    """
    path = Path(path)
    lines = [
        f"delays {model.hankel.delays}",
        f"downsample {model.hankel.downsample}",
        f"batch_size {model.batch_size}",
        f"fs {_fmt(model.fs)}",
        f"divisions {model.grid.divisions}",
        f"exponent {_fmt(model.grid.exponent)}",
        f"tau1 {model.grid.tau1}",
        f"tau2 {model.grid.tau2}",
        f"min_density {_fmt(model.grid.min_density)}",
        "kept " + " ".join(str(int(i)) for i in model.kept),
        f"emg_scaler {_fmt(model.emg_scaler.lo)} {_fmt(model.emg_scaler.hi)}",
        f"grip_scaler {_fmt(model.grip_scaler.lo)} {_fmt(model.grip_scaler.hi)}",
        f"mask_resolution {_fmt(model.mask.bin_resolution)}",
        "mask_gains " + " ".join(_fmt(g) for g in model.mask.gains),
        f"window_size {model.smoothing.window_size}",
        f"decay {_fmt(model.smoothing.decay)}",
        f"K {model.k.shape[0]} {model.k.shape[1]}",
    ]
    for row in model.k:
        lines.append(" ".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_model(path) -> EstimatorModel:
    path = Path(path)
    lines = [l for l in _read_text(path).splitlines() if l.strip()]
    fields: dict[str, str] = {}
    k_rows: list[list[float]] = []
    shape = None
    try:
        for line in lines:
            key, _, rest = line.partition(" ")
            if shape is not None:
                k_rows.append([float(v) for v in line.split()])
            elif key == "K":
                r, c = rest.split()
                shape = (int(r), int(c))
            else:
                fields[key] = rest
        k = np.array(k_rows, dtype=float).reshape(shape)
        kept = np.array(
            [int(v) for v in fields["kept"].split()] if fields["kept"].strip() else [],
            dtype=int,
        )
        emg_lo, emg_hi = (float(v) for v in fields["emg_scaler"].split())
        grip_lo, grip_hi = (float(v) for v in fields["grip_scaler"].split())
        mask = SpectralMask(
            np.array([float(v) for v in fields["mask_gains"].split()]),
            float(fields["mask_resolution"]),
        )
        smoothing = SmoothingParams(int(fields["window_size"]), float(fields["decay"]))
        model = EstimatorModel(
            k=k,
            emg_scaler=MinMaxScaler(emg_lo, emg_hi),
            grip_scaler=MinMaxScaler(grip_lo, grip_hi),
            hankel=HankelParams(int(fields["delays"]), int(fields["downsample"])),
            grid=IndicatorGrid(
                int(fields["divisions"]),
                float(fields["exponent"]),
                int(fields["tau1"]),
                int(fields["tau2"]),
                float(fields["min_density"]),
            ),
            kept=kept,
            mask=mask,
            smoothing=smoothing,
            batch_size=int(fields["batch_size"]),
            fs=float(fields["fs"]),
        )
    except (KeyError, ValueError, TypeError, DataError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    return model


def write_forecasts(path, rows) -> Path:
    """Forecast records: 'batch_index,t_forecast_s,grip_forecast_N' rows."""
    path = Path(path)
    lines = ["batch_index,t_forecast_s,grip_forecast_N"]
    for batch_index, t, value in rows:
        lines.append(f"{int(batch_index)},{_fmt(t)},{_fmt(value)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_forecasts(path):
    path = Path(path)
    rows = []
    for line in _read_text(path).splitlines()[1:]:
        line = line.strip()
        if not line:
            continue
        b, t, v = line.split(",")
        rows.append((int(b), float(t), float(v)))
    return rows


def write_runs(path, records) -> Path:
    """Per-run metrics: 'subject,position,replication,wmape' rows."""
    path = Path(path)
    lines = ["subject,position,replication,wmape"]
    for r in records:
        lines.append(f"{r.subject},{int(r.position)},{int(r.replication)},{_fmt(r.metric)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_runs(path):
    from .metrics import RunRecord

    path = Path(path)
    records = []
    for line in _read_text(path).splitlines()[1:]:
        line = line.strip()
        if not line:
            continue
        try:
            subject, position, replication, metric = line.split(",")
            records.append(
                RunRecord(subject, int(position), int(replication), float(metric))
            )
        except ValueError as exc:
            raise DataError(f"malformed run row: {line!r}") from exc
    if not records:
        raise DataError(f"no runs in {path}")
    return records


def write_table(path, header: list[str], rows) -> Path:
    """Generic tab-separated report."""
    path = Path(path)
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(Path(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        first_line = str(exc).splitlines()[0]
        raise DataError(f"malformed config file {path}: {first_line}") from exc
    if not read:
        raise DataError(f"config file not found: {path}")
    return parser


def resolve_option(cli_value, config, section: str, key: str, default, cast=float):
    """Option precedence: command-line flag > config file > built-in default."""
    if cli_value is not None:
        return cli_value
    if config is not None and config.has_option(section, key):
        value = config.get(section, key)
        try:
            return cast(value)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {value!r}: {exc}") from exc
    return default
