import re

import numpy as np
import pytest

from emgrip.errors import ConfigError, DataError
from emgrip.io import (
    Recording,
    read_corpus,
    read_forecasts,
    read_mask,
    read_model,
    read_narrowing,
    read_recording,
    read_runs,
    read_series,
    write_forecasts,
    write_indices,
    write_mask,
    write_model,
    write_narrowing,
    write_recording,
    write_runs,
    write_series,
)
from emgrip.metrics import RunRecord
from emgrip.processing import (
    DEFAULT_MAX_LAG_S,
    SmoothingParams,
    TimestampedSeries,
    default_optimal_mask,
    process_recording,
)
from emgrip.sensitivity import Bounds, NarrowingRecord, SensitivityResult, envelope_grip_xcorr
from emgrip.simulate import stream_simulate
from emgrip.synth import SynthProfile, grip_profile, synth_corpus, synth_recording


class TestSeriesFiles:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        s = TimestampedSeries(np.sort(rng.uniform(0, 10, 50)), rng.standard_normal(50))
        p1 = write_series(tmp_path / "a.csv", s, {"subject": "s01"})
        s2, meta = read_series(p1)
        p2 = write_series(tmp_path / "b.csv", s2, meta)
        assert p1.read_bytes() == p2.read_bytes()
        assert meta["subject"] == "s01"

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_s,value\n1.0,2.0,3.0\n")
        with pytest.raises(DataError):
            read_series(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_series(tmp_path / "nope.csv")

    def test_times_not_increasing_names_the_file(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("t_s,value\n0.0,1.0\n0.5,2.0\n0.5,2.0\n1.0,3.0\n")
        with pytest.raises(DataError, match=re.escape(f"malformed series file {p}: times must be strictly increasing")):
            read_series(p)

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"t_s,value\n\xff\xfe1.0,2.0\n")
        with pytest.raises(DataError, match="cannot read"):
            read_series(p)


class TestRecordingFiles:
    def test_round_trip(self, tmp_path):
        rec = synth_recording(SynthProfile(plateau_s=0.5, ramp_s=0.3, lead_s=0.2), seed=3)
        e1, g1 = write_recording(tmp_path, rec)
        rec2 = read_recording(e1, g1)
        sub = tmp_path / "again"
        sub.mkdir()
        e2, g2 = write_recording(sub, rec2)
        assert e1.read_bytes() == e2.read_bytes()
        assert g1.read_bytes() == g2.read_bytes()
        assert rec2.subject == rec.subject
        assert rec2.position == rec.position

    def test_non_overlapping_streams_rejected(self):
        a = TimestampedSeries([0.0, 1.0], [0.0, 1.0])
        b = TimestampedSeries([5.0, 6.0], [0.0, 1.0])
        with pytest.raises(DataError):
            Recording(a, b)

    @pytest.mark.parametrize("short", ["emg", "grip", "both"])
    def test_one_sample_stream_rejected_emg_first(self, short):
        a = TimestampedSeries([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        one = TimestampedSeries([1.0], [1.0])
        emg = one if short in ("emg", "both") else a
        grip = one if short in ("grip", "both") else a
        name = "grip" if short == "grip" else "EMG"
        with pytest.raises(DataError, match=f"^{name} stream needs at least 2 samples, got 1$"):
            Recording(emg, grip)

    def test_one_sample_emg_file_named(self, tmp_path):
        a = write_series(tmp_path / "a_emg.csv", TimestampedSeries([0.5], [0.0]))
        b = write_series(tmp_path / "a_grip.csv", TimestampedSeries([0.0, 1.0], [0.0, 1.0]))
        with pytest.raises(DataError, match=re.escape(f"{a} and {b}: EMG stream needs at least 2 samples")):
            read_recording(a, b)

    def test_non_overlapping_files_name_both(self, tmp_path):
        a = write_series(tmp_path / "a_emg.csv", TimestampedSeries([0.0, 1.0], [0.0, 1.0]))
        b = write_series(tmp_path / "a_grip.csv", TimestampedSeries([5.0, 6.0], [0.0, 1.0]))
        with pytest.raises(DataError, match=re.escape(f"{a} and {b}: EMG and grip streams do not overlap")):
            read_recording(a, b)


class TestMaskFile:
    def test_round_trip_byte_identical(self, tmp_path):
        mask = default_optimal_mask()
        p1 = write_mask(tmp_path / "m1.tsv", mask)
        mask2 = read_mask(p1)
        p2 = write_mask(tmp_path / "m2.tsv", mask2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(mask.gains, mask2.gains)
        assert mask2.bin_resolution == mask.bin_resolution
        assert len(p1.read_text().splitlines()) == 249

    def test_bin_resolution_from_first_two_bins(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("0.0\t0.0\n2.0\t1.0\n4.0\t0.5\n")
        mask = read_mask(p)
        assert mask.bin_resolution == 2.0
        assert np.array_equal(mask.gains, [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("freqs", [(0.0, 2.0, 7.0), (1.0, 3.0, 5.0), (0.0, 2.0, 4.0 + 1e-6)])
    def test_uneven_frequency_column_rejected(self, tmp_path, freqs):
        p = tmp_path / "m.tsv"
        p.write_text("".join(f"{f!r}\t1.0\n" for f in freqs))
        with pytest.raises(DataError, match="frequencies are not k"):
            read_mask(p)

    @pytest.mark.parametrize(
        "rows, reason",
        [("0.0\t1.0\n2.0\tnan\n", "finite"), ("0.0\t1.0\n2.0\t-0.5\n", "non-negative"),
         ("0.0\t1.0\n-2.0\t1.0\n", "resolution")],
        ids=["nan", "negative", "descending"],
    )
    def test_rejected_gains_name_the_file(self, tmp_path, rows, reason):
        p = tmp_path / "m.tsv"
        p.write_text(rows)
        with pytest.raises(DataError, match=f"malformed mask file {re.escape(str(p))}: .*{reason}"):
            read_mask(p)


class TestModelFile:
    def test_malformed_model_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("delays 60\n")
        with pytest.raises(DataError):
            read_model(bad)

    def test_round_trip(self, tmp_path, model):
        p1 = write_model(tmp_path / "m1.txt", model)
        m2 = read_model(p1)
        p2 = write_model(tmp_path / "m2.txt", m2)
        assert p1.read_bytes() == p2.read_bytes()
        # seed 42: only the 61 grip Hankel rows of K are stored
        lines = p1.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("K "))
        assert lines[header] == f"K 61 {model.lifted_dim}"
        assert len(lines) - header - 1 == 61
        assert np.array_equal(model.k, m2.k)
        assert np.array_equal(model.kept, m2.kept)
        assert m2.emg_scaler == model.emg_scaler
        assert m2.grid == model.grid

    def test_read_model_streams_bit_identical(self, tmp_path, model, test_recording, stream_result):
        m2 = read_model(write_model(tmp_path / "m.txt", model))
        again = stream_simulate(test_recording, m2, m2.mask, m2.smoothing)
        assert np.array_equal(again.estimates, stream_result.estimates)

    def test_round_trip_keeps_signal_chain(self, tmp_path, model, mask, smoothing):
        m2 = read_model(write_model(tmp_path / "m.txt", model))
        assert np.array_equal(m2.mask.gains, mask.gains)
        assert m2.mask.bin_resolution == mask.bin_resolution
        assert m2.smoothing == smoothing

    @pytest.mark.parametrize("field", ["mask_gains", "mask_resolution", "window_size", "decay"])
    def test_model_without_chain_rejected(self, tmp_path, model, field):
        lines = write_model(tmp_path / "m.txt", model).read_text().splitlines()
        kept = [line for line in lines if line.partition(" ")[0] != field]
        assert len(kept) == len(lines) - 1
        (tmp_path / "old.txt").write_text("\n".join(kept) + "\n")
        with pytest.raises(DataError, match=f"'{field}'"):
            read_model(tmp_path / "old.txt")

    def test_defective_model_rejected(self, tmp_path, model, model_defect):
        name, rewrite = model_defect
        text = write_model(tmp_path / "m.txt", model).read_text()
        (tmp_path / "bad.txt").write_text(rewrite(text))
        match = "refit with `fit`" if name == "old_square_k" else "malformed model file"
        with pytest.raises(DataError, match=match):
            read_model(tmp_path / "bad.txt")


_S1 = np.array([0.1, -1 / 3])
_ST = np.array([2 / 3, 1e-17])
_S1_CI = np.array([[0.05, 0.25], [-0.5, 0.0]])
_ST_CI = np.array([[0.5, 1.0], [-2.5e-3, 0.125]])

# the bytes `emgrip sa` has written for each column layout
_INDICES = {
    "rbdfast": ({}, "variable\tS1\nmask\t0.1\nwindow_size\t-0.3333333333333333\n"),
    "rbdfast_boot": (
        {"first_ci": _S1_CI},
        "variable\tS1\tS1_lo\tS1_hi\nmask\t0.1\t0.05\t0.25\n"
        "window_size\t-0.3333333333333333\t-0.5\t0.0\n",
    ),
    "sobol": (
        {"total_order": _ST},
        "variable\tS1\tST\nmask\t0.1\t0.6666666666666666\n"
        "window_size\t-0.3333333333333333\t1e-17\n",
    ),
    "sobol_boot": (
        {"first_ci": _S1_CI, "total_order": _ST, "total_ci": _ST_CI},
        "variable\tS1\tS1_lo\tS1_hi\tST\tST_lo\tST_hi\n"
        "mask\t0.1\t0.05\t0.25\t0.6666666666666666\t0.5\t1.0\n"
        "window_size\t-0.3333333333333333\t-0.5\t0.0\t1e-17\t-0.0025\t0.125\n",
    ),
}

_NARROWING = (
    "== step 0\nmask_2hz\t0.0\t5.0\tmask\nwindow_size\t2.0\t495.0\twindow_size\n"
    "decay\t0.0\t0.05\tdecay\n"
    "== step 1\nmask_2hz\t0.0\t5.0\tmask\nwindow_size\t2.0\t400.0\twindow_size\n"
    "decay\t0.0\t0.01\tdecay\ntop: window_size=0.7123, decay=0.3333333333333333\n"
    "== step 2 (no-op)\nmask_2hz\t0.0\t5.0\tmask\nwindow_size\t2.0\t400.0\twindow_size\n"
    "decay\t0.0\t0.01\tdecay\n"
)


class TestSensitivityFiles:
    @pytest.mark.parametrize("layout", sorted(_INDICES))
    def test_indices_table_bytes(self, tmp_path, layout):
        extra, text = _INDICES[layout]
        result = SensitivityResult(("mask", "window_size"), _S1, **extra)
        assert write_indices(tmp_path / "sa.tsv", result).read_text() == text

    def test_narrowing_record_bytes(self, tmp_path):
        names = ("mask_2hz", "window_size", "decay")
        lower = np.array([0.0, 2.0, 0.0])
        groups = ("mask", "window_size", "decay")
        record = NarrowingRecord(Bounds(lower, np.array([5.0, 495.0, 0.05]), names, groups))
        narrowed = Bounds(lower, np.array([5.0, 400.0, 0.01]), names)
        record.append(narrowed, [("window_size", 0.7123), ("decay", 1 / 3)])
        record.append(narrowed)
        assert write_narrowing(tmp_path / "r.txt", record).read_text() == _NARROWING

    def test_narrowing_record_replayed(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text(_NARROWING)
        record = read_narrowing(path)
        assert [(s.step, s.no_op) for s in record.steps] == [(0, False), (1, False), (2, True)]
        assert record.steps[1].top == (("window_size", 0.7123), ("decay", 1 / 3))
        assert record.current.groups == ("mask", "window_size", "decay")
        assert write_narrowing(tmp_path / "again.txt", record).read_text() == _NARROWING

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("== step 0\na\t0.0\t2.0\n== step 7 (no-op)\na\t0.0\t1.0\n", 3, "step 7 where step 1 comes next"),
            ("== step 1\na\t0.0\t1.0\n", 1, "step 1 where step 0 comes next"),
            ("== step 0\na\t0.0\t2.0\n== step 1 (no-op)\na\t0.0\t1.0\n", 3, "step 1 is marked"),
            ("== step 0 (no-op)\na\t0.0\t1.0\n", 1, "step 0 is marked"),
            ("== step 0\na\t0.0\t1.0\n== step 1\na\t0.0\t1.0\n", 3, "step 1 repeats"),
            ("== step 0 no-op\na\t0.0\t1.0\n", 1, "expected '== step <n>'"),
        ],
        ids=["found_file", "first_not_0", "false_no_op", "step_0_no_op", "unmarked_no_op", "bad_marker"],
    )
    def test_step_header_checked(self, tmp_path, text, line, message):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line {line}: {re.escape(message)}"):
            read_narrowing(path)

    def test_three_steps_with_a_no_op_round_trip(self, tmp_path):
        names = ("a", "b")
        record = NarrowingRecord(Bounds(np.zeros(2), np.array([5.0, 3.0]), names))
        record.append(Bounds(np.zeros(2), np.array([4.0, 3.0]), names), [("a", 0.25)])
        record.append(Bounds(np.zeros(2), np.array([4.0, 3.0]), names))
        text = write_narrowing(tmp_path / "r.txt", record).read_bytes()
        assert text.count(b" (no-op)") == 1
        again = read_narrowing(tmp_path / "r.txt")
        assert write_narrowing(tmp_path / "again.txt", again).read_bytes() == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty narrowing record"),
            ("== step 0\na\t0.0\t1.0\n== step 1\na\t0.0\t2.0\n", "new bounds must be nested"),
            ("== step 0\na\t1.0\t0.0\n", "lower bound exceeds upper bound"),
        ],
        ids=["empty", "widened", "lower_above_upper"],
    )
    def test_narrowing_errors_start_with_the_path(self, tmp_path, text, message):
        path = tmp_path / "r.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            read_narrowing(path)


class TestCorpus:
    def test_reads_what_write_recording_wrote(self, tmp_path):
        prof = SynthProfile(plateau_s=0.5, ramp_s=0.3, lead_s=0.2)
        recs = [synth_recording(prof, seed=s, position=p) for s, p in ((3, 2), (4, 1))]
        for rec in recs:
            write_recording(tmp_path, rec)
        (tmp_path / "notes.txt").write_text("not a recording\n")
        corpus = read_corpus(tmp_path)
        assert [r.stem for r in corpus] == ["s01_p1_r1", "s01_p2_r1"]
        assert np.array_equal(corpus[0].emg.values, recs[1].emg.values)

    def test_no_recordings(self, tmp_path):
        with pytest.raises(DataError, match=re.escape(f"no *_emg.csv recordings under {tmp_path}")):
            read_corpus(tmp_path)

    def test_missing_grip_file(self, tmp_path):
        prof = SynthProfile(plateau_s=0.5, ramp_s=0.3, lead_s=0.2)
        emg_path, grip_path = write_recording(tmp_path, synth_recording(prof, seed=3))
        grip_path.unlink()
        with pytest.raises(DataError, match=re.escape(f"missing grip stream for {emg_path}")):
            read_corpus(tmp_path)


def _series_times(path):
    return read_series(path)[0].times


def _mask_gains(path):
    return read_mask(path).gains


# format: (header block, two good rows, an extra field, a row with an uncastable field, reader)
_TABLES = {
    "series": ("t_s,value\n", ("0.5,2.0", "1.0,3.0"), ",3.0", "1.0,abc", _series_times),
    "mask": ("", ("0.0\t1.0", "2.0\t0.5"), "\t1.0", "2.0\tx", _mask_gains),
    "forecasts": (
        "batch_index,t_forecast_s,grip_forecast_N\n", ("0,1.25,50.5", "1,1.75,49.0"), ",1.0",
        "1.5,1.75,49.0", read_forecasts,
    ),
    "runs": (
        "subject,position,replication,wmape\n", ("ac,1,1,4.4", "dp,2,2,5.1"), ",x",
        "dp,two,2,5.1", read_runs,
    ),
}


class TestTabularFiles:
    def test_forecast_rows_round_trip(self, tmp_path):
        rows = [(0, 1.25, 50.5), (1, 1.75, 49.0)]
        p1 = write_forecasts(tmp_path / "f.csv", rows)
        again = read_forecasts(p1)
        assert again == rows
        p2 = write_forecasts(tmp_path / "f2.csv", again)
        assert p1.read_bytes() == p2.read_bytes()

    def test_runs_round_trip(self, tmp_path):
        records = [RunRecord("ac", 1, 1, 4.4), RunRecord("dp", 2, 2, 5.1)]
        p1 = write_runs(tmp_path / "runs.csv", records)
        again = read_runs(p1)
        assert again == records
        p2 = write_runs(tmp_path / "runs2.csv", again)
        assert p1.read_bytes() == p2.read_bytes()

    def test_headerless_runs_read_every_row(self, tmp_path):
        records = [RunRecord("ac", 1, 1, 4.4), RunRecord("dp", 2, 2, 5.1)]
        lines = write_runs(tmp_path / "runs.csv", records).read_text().splitlines()
        (tmp_path / "bare.csv").write_text("\n".join(lines[1:]) + "\n")
        assert read_runs(tmp_path / "bare.csv") == records

    def test_headerless_forecasts_read_every_row(self, tmp_path):
        rows = [(0, 1.25, 50.5), (1, 1.75, 49.0)]
        lines = write_forecasts(tmp_path / "f.csv", rows).read_text().splitlines()
        (tmp_path / "bare.csv").write_text("\n".join(lines[1:]) + "\n")
        assert read_forecasts(tmp_path / "bare.csv") == rows

    def test_reworded_header_rejected(self, tmp_path):
        p = tmp_path / "runs.csv"
        p.write_text("subject,position,replication,metric\nac,1,1,4.4\n")
        with pytest.raises(DataError, match=r"runs\.csv:1: cannot read 'position' as int"):
            read_runs(p)

    @pytest.mark.parametrize("fmt", sorted(_TABLES))
    def test_blank_and_metadata_lines_skipped(self, tmp_path, fmt):
        header, (row0, row1), _, _, read = _TABLES[fmt]
        p = tmp_path / "t.txt"
        p.write_text(f"# note kept\n\n{header}{row0}\n\n{row1}\n")
        assert len(read(p)) == 2

    @pytest.mark.parametrize("fmt", sorted(_TABLES))
    def test_file_without_rows_rejected(self, tmp_path, fmt):
        header, _, _, _, read = _TABLES[fmt]
        p = tmp_path / "t.txt"
        p.write_text(f"# subject s01\n{header}\n")
        with pytest.raises(DataError, match="no data rows"):
            read(p)

    @pytest.mark.parametrize(
        "write",
        [
            lambda p: write_series(p, TimestampedSeries([], []), {"stream": "grip_estimate_N"}),
            lambda p: write_forecasts(p, []),
            lambda p: write_runs(p, []),
        ],
        ids=["series", "forecasts", "runs"],
    )
    def test_zero_rows_not_written(self, tmp_path, write):
        # the reader would reject the header-only file
        p = tmp_path / "t.csv"
        with pytest.raises(DataError, match="no data rows"):
            write(p)
        assert not p.exists()

    @pytest.mark.parametrize("defect", ["field_count", "uncastable"])
    @pytest.mark.parametrize("fmt", sorted(_TABLES))
    def test_malformed_line_named(self, tmp_path, fmt, defect):
        header, (row0, row1), extra, uncastable, read = _TABLES[fmt]
        bad = row1 + extra if defect == "field_count" else uncastable
        p = tmp_path / "t.txt"
        p.write_text(f"{header}{row0}\n\n{bad}\n{row1}\n")
        line = header.count("\n") + 3
        match = "expected" if defect == "field_count" else "cannot read"
        with pytest.raises(DataError, match=rf"t\.txt:{line}: {match}"):
            read(p)


def _grip_profile_loop(profile, t):
    """The per-segment boolean-mask loop ``grip_profile`` replaced, O(levels x n)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    prev = 0.0
    start = profile.lead_s
    for level in profile.levels:
        ramp = (t >= start) & (t < start + profile.ramp_s)
        u = (t[ramp] - start) / profile.ramp_s
        out[ramp] = prev + (level - prev) * 0.5 * (1.0 - np.cos(np.pi * u))
        start += profile.ramp_s
        plateau = (t >= start) & (t < start + profile.plateau_s)
        out[plateau] = level
        start += profile.plateau_s
        prev = level
    out[t >= start] = prev
    return out


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        prof = SynthProfile(plateau_s=0.5, ramp_s=0.3, lead_s=0.2)
        a = synth_recording(prof, seed=11)
        b = synth_recording(prof, seed=11)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        ea, ga = write_recording(d1, a)
        eb, gb = write_recording(d2, b)
        assert ea.read_bytes() == eb.read_bytes()
        assert ga.read_bytes() == gb.read_bytes()

    def test_zero_force_gives_floor_plus_mains(self):
        prof = SynthProfile(plateau_s=0.5, ramp_s=0.3, lead_s=0.2, max_force_n=0.0)
        rec = synth_recording(prof, seed=1)
        assert np.all(rec.grip.values == 0.0)
        # amplitude stays near the noise floor + mains level everywhere
        floor = 1.0 / prof.noise_snr
        assert np.abs(rec.emg.values).max() < 10 * (floor + prof.mains_amplitude)

    def test_profile_levels_and_duration(self):
        prof = SynthProfile()
        t = np.arange(0, prof.duration_s, 0.005)
        g = grip_profile(prof, t)
        # every plateau level is held exactly somewhere in the trace
        for lv in prof.levels:
            assert np.any(np.isclose(g, lv, atol=1e-12))
        assert g[t < prof.lead_s].max() == 0.0

    @pytest.mark.parametrize("repeat", [1, 16])
    def test_profile_matches_segment_loop_on_recording_clocks(self, repeat):
        # the EMG clock (shifted by the EMG lag) and the grip clock of the
        # default recording and of the 16x longer one
        prof = SynthProfile(levels=SynthProfile().levels * repeat)
        for fs, shift in ((prof.emg_fs, prof.emg_lag_s), (prof.grip_fs, 0.0)):
            t = np.arange(int(round(prof.duration_s * fs))) / fs - shift
            assert np.array_equal(grip_profile(prof, t), _grip_profile_loop(prof, t))

    def test_profile_matches_segment_loop_on_edges(self):
        # times exactly on every accumulated segment edge, one ulp either
        # side, before the lead-in and after the last plateau; levels that
        # repeat, rise and fall, and an integer lead-in.  The ramps 0.3 -> 0.9
        # and 0.9 -> 0.2 end an ulp off their plateau level, so a time on
        # such an edge must fall in the plateau, as in the loop
        prof = SynthProfile(
            levels=(0.3, 0.3, 1.0, 0.0, 0.1, 0.7, 0.3, 0.9, 0.2), plateau_s=0.7, ramp_s=0.3, lead_s=2
        )
        edges = [prof.lead_s]
        for _ in prof.levels:
            edges += [edges[-1] + prof.ramp_s, edges[-1] + prof.ramp_s + prof.plateau_s]
        edges = np.array(edges, dtype=float)
        t = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-1.0, 0.0, edges[-1] + 5.0], np.linspace(-1.0, prof.duration_s + 1.0, 997),
        ])
        assert np.array_equal(grip_profile(prof, t), _grip_profile_loop(prof, t))
        grid = t[:990].reshape(30, 33)
        assert np.array_equal(grip_profile(prof, grid), _grip_profile_loop(prof, grid))
        no_levels = SynthProfile(levels=())
        assert np.array_equal(grip_profile(no_levels, t), _grip_profile_loop(no_levels, t))

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_emg_lag_sign_moves_xcorr_peak(self, seed):
        # EMG that follows force (+0.05 s, the default) peaks at a more
        # negative lag than EMG in step (0) or ahead of force (-0.08 s);
        # only the leading EMG keeps its peak clear of the lag window's edge
        lags = []
        for emg_lag_s in (0.05, 0.0, -0.08):
            rec = synth_recording(SynthProfile(emg_lag_s=emg_lag_s), seed=seed)
            env = process_recording(rec.emg, default_optimal_mask(), SmoothingParams(300, 0.0))
            lags.append(envelope_grip_xcorr(env, rec.emg, rec.grip)[1])
        assert lags[0] < lags[1] < lags[2]
        max_lag = int(round(DEFAULT_MAX_LAG_S * rec.emg.rate))
        assert max_lag == 159 and abs(lags[2]) < max_lag

    def test_corpus_layout(self):
        prof = SynthProfile(plateau_s=0.3, ramp_s=0.2, lead_s=0.1)
        calibs, runs = synth_corpus(seed=4, subjects=2, positions=2, replications=2, profile=prof)
        assert len(calibs) == 2
        assert len(runs) == 8
        stems = {r.stem for r in runs}
        assert len(stems) == 8

    @pytest.mark.parametrize("field", ["subjects", "positions", "replications"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(ConfigError, match=">= 0"):
            synth_corpus(seed=4, **{field: -1})
