"""Every plain-text file format of the package, the SA tables included.

Every format is line-oriented and byte-stable: floats are written with
``repr`` (shortest round-trip form), so write -> read -> write reproduces
the file exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from .calibration import MinMaxScaler
from .errors import ConfigError, DataError, EmgripError
from .estimation import EstimatorModel, HankelParams, IndicatorGrid
from .processing import DEFAULT_BATCH_SIZE, SmoothingParams, SpectralMask, TimestampedSeries
from .sensitivity import Bounds, NarrowingRecord, SensitivityResult, recording_sides

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
class _Table:
    """A delimited format: separator, header line (None: headerless) and
    one type per column, each float, int or str."""

    sep: str
    header: str | None
    types: tuple[type, ...]


_SERIES = _Table(",", "t_s,value", (float, float))
_MASK = _Table("\t", None, (float, float))
_FORECASTS = _Table(",", "batch_index,t_forecast_s,grip_forecast_N", (int, float, float))
_RUNS = _Table(",", "subject,position,replication,wmape", (str, int, int, float))
_CELL = {float: _fmt, int: lambda v: str(int(v)), str: str}


def _table_text(table: _Table, columns, meta: dict | None = None) -> str:
    """'# key value' metadata lines, the header, then one line per row of
    ``columns`` (one sequence per declared column); empty without rows."""
    cells = [map(_CELL[t], col) for t, col in zip(table.types, columns)]
    rows = list(map(table.sep.join, zip(*cells)))
    if not rows:
        return ""
    lines = [f"# {key} {val}" for key, val in (meta or {}).items()]
    if table.header:
        lines.append(table.header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> Path:
    """An empty text (a table without rows) is a DataError, raised before
    the file is opened: ``_read_rows`` would reject the file."""
    path = Path(path)
    if not text:
        raise DataError(f"no data rows to write to {path}")
    path.write_text(text)
    return path


def _read_rows(path, table: _Table) -> tuple[list[list], dict[str, str]]:
    """(columns, metadata): one list per declared column, cast to its type.
    Skips blank lines and the header; '# key value' lines are metadata.  A
    line that does not fit, or a file without rows, is a DataError."""
    path = Path(path)
    meta: dict[str, str] = {}
    numbers: list[int] = []
    body: list[str] = []
    for no, line in enumerate(_read_text(path).splitlines(), 1):
        line = line.strip()
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition(" ")
            meta[key] = val
        elif line and line != table.header:
            numbers.append(no)
            body.append(line)
    if not body:
        raise DataError(f"no data rows in {path}")
    k = len(table.types)
    if set(map(str.count, body, repeat(table.sep))) == {k - 1}:
        # one split of the whole body, one cast per column: casting field by
        # field in a row loop takes about 1.7 times as long on a long series
        tokens = table.sep.join(body).split(table.sep)
        try:
            return [list(map(t, tokens[j::k])) for j, t in enumerate(table.types)], meta
        except ValueError:
            pass
    for no, line in zip(numbers, body):  # name the first bad line
        fields = line.split(table.sep)
        if len(fields) != k:
            raise DataError(f"{path}:{no}: expected {k} fields, got {len(fields)}: {line!r}")
        for field, t in zip(fields, table.types):
            try:
                t(field)
            except ValueError:
                raise DataError(f"{path}:{no}: cannot read {field!r} as {t.__name__}") from None
    raise AssertionError("unreachable: some line failed the checks above")


@dataclass(frozen=True)
class Recording:
    """Paired EMG and grip-force streams for one experiment run.  Frozen,
    with read-only series, so what the SA objective derives from them alone
    is cached on it (``sa_sides``); ``dataclasses.replace`` starts afresh."""

    emg: TimestampedSeries
    grip: TimestampedSeries
    subject: str = "s01"
    position: int = 1
    replication: int = 1

    def __post_init__(self):
        for name, stream in (("EMG", self.emg), ("grip", self.grip)):
            if len(stream) < 2:
                raise DataError(f"{name} stream needs at least 2 samples, got {len(stream)}")
        lo = max(self.emg.times[0], self.grip.times[0])
        hi = min(self.emg.times[-1], self.grip.times[-1])
        if hi <= lo:
            raise DataError("EMG and grip streams do not overlap in time")

    @property
    def stem(self) -> str:
        return f"{self.subject}_p{self.position}_r{self.replication}"

    @cached_property
    def sa_sides(self):
        # the candidate-independent half of the SA objective, built once
        return recording_sides(self.emg, self.grip)


def write_series(path, series: TimestampedSeries, meta: dict | None = None) -> Path:
    """One stream as '# key value' headers plus 't_s,value' rows."""
    return _write_text(path, _table_text(_SERIES, (series.times, series.values), meta))


def read_series(path) -> tuple[TimestampedSeries, dict]:
    """Times that are not strictly increasing are a ``DataError`` naming
    the file."""
    (times, values), meta = _read_rows(path, _SERIES)
    try:
        return TimestampedSeries(times, values), meta
    except DataError as exc:
        raise DataError(f"malformed series file {path}: {exc}") from exc


_STREAM_FILE = "{}_{}.csv"  # a recording's file per stream: <stem>_emg.csv, <stem>_grip.csv


def write_recording(out_dir, rec: Recording) -> tuple[Path, Path]:
    emg_path, grip_path = (Path(out_dir) / _STREAM_FILE.format(rec.stem, s) for s in ("emg", "grip"))
    meta = {
        "subject": rec.subject,
        "position": rec.position,
        "replication": rec.replication,
    }
    write_series(emg_path, rec.emg, {**meta, "stream": "emg"})
    write_series(grip_path, rec.grip, {**meta, "stream": "grip"})
    return emg_path, grip_path


def read_recording(emg_path, grip_path) -> Recording:
    """Streams that do not overlap in time are a ``DataError`` naming both
    files."""
    emg, meta = read_series(emg_path)
    grip, _ = read_series(grip_path)
    try:
        position = int(meta.get("position", 1))
        replication = int(meta.get("replication", 1))
    except ValueError as exc:
        raise DataError(f"malformed header in {emg_path}: {exc}") from exc
    try:
        return Recording(
            emg,
            grip,
            subject=meta.get("subject", "s01"),
            position=position,
            replication=replication,
        )
    except DataError as exc:
        raise DataError(f"{emg_path} and {grip_path}: {exc}") from exc


def read_corpus(data_dir) -> list[Recording]:
    """Every '<stem>_emg.csv' in ``data_dir``, in name order, with the '<stem>_grip.csv'
    beside it; no EMG file, or one without its grip file, is a ``DataError``."""
    root = Path(data_dir)
    pattern = _STREAM_FILE.format("*", "emg")
    emg_paths = sorted(root.glob(pattern))
    if not emg_paths:
        raise DataError(f"no {pattern} recordings under {root}")
    corpus = []
    for emg_path in emg_paths:
        stem = emg_path.name.removesuffix(_STREAM_FILE.format("", "emg"))
        grip_path = emg_path.with_name(_STREAM_FILE.format(stem, "grip"))
        if not grip_path.exists():
            raise DataError(f"missing grip stream for {emg_path}")
        corpus.append(read_recording(emg_path, grip_path))
    return corpus


def format_mask(mask: SpectralMask) -> str:
    """The text ``write_mask`` writes: one 'frequency_hz<TAB>gain' line per bin."""
    return _table_text(_MASK, (mask.frequencies, mask.gains))


def write_mask(path, mask: SpectralMask) -> Path:
    return _write_text(path, format_mask(mask))


def read_mask(path) -> SpectralMask:
    """The bin resolution is f1 - f0; every frequency must be k times it.
    Gains or a resolution ``SpectralMask`` rejects are a ``DataError`` naming
    the file."""
    (freqs, gains), _ = _read_rows(path, _MASK)
    if len(freqs) < 2:
        raise DataError(f"mask file {path} needs at least 2 bins")
    resolution = freqs[1] - freqs[0]
    if not np.allclose(freqs, np.arange(len(freqs)) * resolution, rtol=1e-9, atol=0):
        raise DataError(f"mask file {path}: frequencies are not k * {resolution!r} Hz from 0")
    try:
        return SpectralMask(np.array(gains), resolution)
    except ConfigError as exc:
        raise DataError(f"malformed mask file {path}: {exc}") from exc


def write_model(path, model: EstimatorModel) -> Path:
    """Self-describing text header followed by K in row-major decimal.

    The header carries the signal chain the operator was fitted on (mask
    gains and bin resolution, smoothing window and decay), so a stream is
    replayed through the same chain.  Its ``batch_size`` line always reads
    ``DEFAULT_BATCH_SIZE``.
    """
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
    return _write_text(path, "\n".join(lines) + "\n")


def read_model(path) -> EstimatorModel:
    """Any defect, including a ``batch_size`` other than ``DEFAULT_BATCH_SIZE``
    or a value the model's parts reject, is a ``DataError`` naming the file."""
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
        if int(fields["batch_size"]) != DEFAULT_BATCH_SIZE:
            raise DataError(f"batch_size is {fields['batch_size']}, not {DEFAULT_BATCH_SIZE}")
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
            fs=float(fields["fs"]),
        )
    except (KeyError, ValueError, TypeError, EmgripError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    return model


def write_forecasts(path, rows) -> Path:
    """Forecast records: 'batch_index,t_forecast_s,grip_forecast_N' rows."""
    return _write_text(path, _table_text(_FORECASTS, zip(*rows)))


def read_forecasts(path):
    columns, _ = _read_rows(path, _FORECASTS)
    return list(zip(*columns))


def write_runs(path, records) -> Path:
    """Per-run metrics: 'subject,position,replication,wmape' rows."""
    fields = attrgetter("subject", "position", "replication", "metric")
    return _write_text(path, _table_text(_RUNS, zip(*map(fields, records))))


def read_runs(path):
    from .metrics import RunRecord

    columns, _ = _read_rows(path, _RUNS)
    return [RunRecord(*row) for row in zip(*columns)]


def write_table(path, header: list[str], rows) -> Path:
    """Generic tab-separated report."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return _write_text(path, "\n".join(lines) + "\n")


def write_indices(path, result: SensitivityResult) -> Path:
    """SA indices table: 'variable' and 'S1' columns, then 'S1_lo'/'S1_hi'
    when there are CIs, then 'ST' and 'ST_lo'/'ST_hi' when present."""
    r, columns = result, {"variable": result.names}
    for name, index, ci in (("S1", r.first_order, r.first_ci), ("ST", r.total_order, r.total_ci)):
        if index is not None:
            columns[name] = index
            if ci is not None:
                columns[f"{name}_lo"], columns[f"{name}_hi"] = ci.T
    return write_table(path, list(columns), zip(*columns.values()))


def write_narrowing(path, record: NarrowingRecord) -> Path:
    """'== step <n>[ (no-op)]' sections of 'name<TAB>lower<TAB>upper[<TAB>group]'
    rows, and a 'top: name=value, ...' line for a step that names any."""
    lines = []
    for s in record.steps:
        lines.append(f"== step {s.step}{' (no-op)' if s.no_op else ''}")
        b = s.bounds
        columns = [b.variable_names(), map(_fmt, b.lower), map(_fmt, b.upper)]
        if b.groups is not None:
            columns.append(b.groups)
        lines.extend(map("\t".join, zip(*columns)))
        if s.top:
            lines.append("top: " + ", ".join(f"{n}={_fmt(v)}" for n, v in s.top))
    return _write_text(path, "\n".join(lines) + "\n")


def read_narrowing(path) -> NarrowingRecord:
    """Replays a ``write_narrowing`` file, whose group column may be left out.
    A malformed line ('line N: ...'), a box ``Bounds`` or the nesting rule
    rejects, or no step at all, is a ``DataError`` that starts with the path.
    So is a '== step <n>' header whose n is not the next step's index, or
    whose ' (no-op)' marker disagrees with ``NarrowingRecord.append``."""
    text = _read_text(Path(path))
    record = step_no = None
    header_no = marked = None
    names, lows, highs, groups, tops = [], [], [], [], []

    def flush():
        nonlocal record
        if step_no is None:
            return
        bounds = Bounds(np.array(lows), np.array(highs), tuple(names), tuple(groups) or None)
        if record is None:
            record = NarrowingRecord(bounds)
        else:
            record.append(bounds, tops)
        if record.steps[-1].no_op != marked:
            if marked:
                raise DataError(f"line {header_no}: step {step_no} is marked (no-op) but changes the box")
            raise DataError(f"line {header_no}: step {step_no} repeats the previous box but is not marked (no-op)")

    try:
        for no, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("== step"):
                    flush()
                    fields = line.split()
                    step_no = int(fields[2])
                    expected = 0 if record is None else len(record.steps)
                    if step_no != expected:
                        raise ValueError(f"step {step_no} where step {expected} comes next")
                    if fields[3:] not in ([], ["(no-op)"]):
                        raise ValueError("expected '== step <n>' or '== step <n> (no-op)'")
                    header_no, marked = no, len(fields) == 4
                    names, lows, highs, groups, tops = [], [], [], [], []
                elif step_no is None:
                    raise ValueError("row before the first '== step' line")
                elif line.startswith("top:"):
                    if record is None:
                        raise ValueError("'top:' line in step 0, which records no narrowing decision")
                    for part in line[4:].split(","):
                        name, val = part.strip().rsplit("=", 1)
                        tops.append((name, float(val)))
                else:
                    fields = line.split("\t")
                    if len(fields) not in (3, 4):
                        raise ValueError(f"expected 3 or 4 tab-separated fields, got {len(fields)}")
                    names.append(fields[0])
                    lows.append(float(fields[1]))
                    highs.append(float(fields[2]))
                    groups.extend(fields[3:])
            except (ValueError, IndexError) as exc:
                raise DataError(f"line {no}: {exc}: {line!r}") from None
        flush()
        if record is None:
            raise DataError("empty narrowing record")
    except (DataError, ConfigError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    return record
