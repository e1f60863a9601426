import numpy as np
import pytest

from emgrip.cli import main
from emgrip.io import (
    Recording,
    read_forecasts,
    read_mask,
    read_model,
    read_recording,
    read_series,
    write_recording,
    write_runs,
    write_series,
)
from emgrip.metrics import summary_stats
from emgrip.processing import (
    SmoothingParams,
    TimestampedSeries,
    default_optimal_mask,
    process_recording,
)
from emgrip.sensitivity import envelope_grip_xcorr
from emgrip.simulate import evaluate_run
from emgrip.synth import SynthProfile, synth_recording


def _report(out_dir) -> dict[str, float]:
    """simulate_report.tsv as {metric: value}, in file order."""
    rows = (out_dir / "simulate_report.tsv").read_text().splitlines()
    assert rows[0] == "metric\tvalue"
    return {name: float(value) for name, value in (row.split("\t") for row in rows[1:])}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small corpus + fitted model on disk for the file-driven subcommands."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    data.mkdir()
    prof = SynthProfile(plateau_s=1.0, ramp_s=0.5, lead_s=0.5)
    calib = synth_recording(prof, seed=50, subject="s01", position=0, replication=0)
    write_recording(data, calib)
    for p, r, seed in [(1, 1, 51), (2, 1, 52)]:
        write_recording(data, synth_recording(prof, seed=seed, subject="s01", position=p, replication=r))
    out = root / "out"
    code = main([
        "fit",
        "--emg", str(data / "s01_p0_r0_emg.csv"),
        "--grip", str(data / "s01_p0_r0_grip.csv"),
        "--delays", "20",
        "--window", "150",
        "--model", str(root / "model.txt"),
    ])
    assert code == 2  # default grid taus exceed 20 delays
    code = main([
        "fit",
        "--emg", str(data / "s01_p0_r0_emg.csv"),
        "--grip", str(data / "s01_p0_r0_grip.csv"),
        "--window", "150",
        "--model", str(root / "model.txt"),
    ])
    assert code == 0
    return root, data


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["mask", "default", "--nope"]) == 1
        assert "--nope" in capsys.readouterr().err
        assert main(["--config", "x.ini", "mask", "show"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --config" in err and "invalid choice" not in err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["simulate", "--model", str(tmp_path / "no.txt"), "--emg", str(tmp_path / "no.csv")]) == 2

    @pytest.mark.parametrize("cmd", ["estimate", "predict"])
    def test_removed_stream_commands_are_usage_errors(self, workspace, tmp_path, capsys, cmd):
        root, data = workspace
        code = main([
            "--out", str(tmp_path), cmd,
            "--model", str(root / "model.txt"), "--emg", str(data / "s01_p1_r1_emg.csv"),
        ])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_numeric_failure_exit(self, tmp_path):
        from emgrip.io import write_series
        from emgrip.processing import TimestampedSeries

        t = np.arange(0, 6, 1 / 992.97)
        write_series(tmp_path / "x_emg.csv", TimestampedSeries(t, np.sin(2 * np.pi * 30 * t)))
        write_series(
            tmp_path / "x_grip.csv", TimestampedSeries(t[::5], np.zeros(t[::5].size))
        )
        # constant grip stream: correlation undefined
        code = main(["--out", str(tmp_path), "xcorr", "--data", str(tmp_path)])
        assert code == 3

    def test_linalg_failure_is_numeric_exit(self, workspace, tmp_path, capsys):
        # one NaN sample reaches the forecaster, whose SVD does not converge
        root, _ = workspace
        rec = synth_recording(seed=43)
        emg = rec.emg.values.copy()
        emg[5000] = np.nan
        write_series(tmp_path / "nan_emg.csv", TimestampedSeries(rec.emg.times, emg))
        write_series(tmp_path / "nan_grip.csv", rec.grip)
        code = main([
            "--out", str(tmp_path), "simulate",
            "--model", str(root / "model.txt"),
            "--emg", str(tmp_path / "nan_emg.csv"),
            "--grip", str(tmp_path / "nan_grip.csv"),
        ])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["simulate", "tune"])
    @pytest.mark.parametrize(
        "flag", [("--window", "100"), ("--window", "150"), ("--decay", "0.02"), ("--mask", "flat.tsv")],
        ids=["window100", "window150", "decay", "mask"],
    )
    def test_stream_commands_take_chain_from_model(self, workspace, tmp_path, capsys, cmd, flag):
        root, data = workspace
        if cmd == "tune":
            inputs = ["--data", str(data)]
        else:
            stem = data / "s01_p1_r1"
            inputs = ["--emg", f"{stem}_emg.csv", "--grip", f"{stem}_grip.csv"]
        argv = ["--out", str(tmp_path), cmd, "--model", str(root / "model.txt"), *inputs, *flag]
        assert main(argv) == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_no_prefix_abbreviations(self, workspace, tmp_path):
        _, data = workspace
        code = main([
            "fit",
            "--emg", str(data / "s01_p0_r0_emg.csv"),
            "--grip", str(data / "s01_p0_r0_grip.csv"),
            "--mod", str(tmp_path / "x"),
        ])
        assert code == 1
        assert not (tmp_path / "x").exists()

    def test_model_without_chain_is_input_error(self, workspace, tmp_path, capsys):
        # the model format before the chain was stored: calibration, no chain
        root, data = workspace
        chain = {"mask_resolution", "mask_gains", "window_size", "decay"}
        lines = [
            line for line in (root / "model.txt").read_text().splitlines()
            if line.partition(" ")[0] not in chain
        ]
        lines.insert(lines.index(next(l for l in lines if l.startswith("K "))), "calibration 0.0 1.0")
        (tmp_path / "old_model.txt").write_text("\n".join(lines) + "\n")
        code = main([
            "--out", str(tmp_path), "simulate",
            "--model", str(tmp_path / "old_model.txt"),
            "--emg", str(data / "s01_p1_r1_emg.csv"),
        ])
        assert code == 2
        assert "mask_gains" in capsys.readouterr().err

    def test_defective_model_is_input_error(self, workspace, tmp_path, capsys, model_defect):
        root, data = workspace
        name, rewrite = model_defect
        (tmp_path / "bad_model.txt").write_text(rewrite((root / "model.txt").read_text()))
        code = main([
            "--out", str(tmp_path), "simulate",
            "--model", str(tmp_path / "bad_model.txt"),
            "--emg", str(data / "s01_p1_r1_emg.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: malformed model file") and len(err.strip().splitlines()) == 1
        assert str(tmp_path / "bad_model.txt") in err
        if name == "old_square_k":
            assert "refit with `fit`" in err

    def test_non_integer_position_header_is_input_error(self, workspace, tmp_path, capsys):
        _, data = workspace
        for stream in ("emg", "grip"):
            text = (data / f"s01_p1_r1_{stream}.csv").read_text()
            (tmp_path / f"s01_p1_r1_{stream}.csv").write_text(text.replace("# position 1", "# position one"))
        code = main(["--out", str(tmp_path), "xcorr", "--data", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: malformed header") and len(err.strip().splitlines()) == 1

    def test_unwritable_output_is_input_error(self, workspace, tmp_path, capsys):
        _, data = workspace
        code = main([
            "fit",
            "--emg", str(data / "s01_p0_r0_emg.csv"),
            "--grip", str(data / "s01_p0_r0_grip.csv"),
            "--model", str(tmp_path / "missing_dir" / "model.txt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--window-mods", "1.2,x"),
            ("--smooth-mods", ""),
            ("--thin-steps", "abc"),
            ("--delay-counts", "8,1.5"),
            ("--mode-counts", "4,"),
        ],
    )
    def test_bad_tune_list_is_usage_error(self, workspace, tmp_path, capsys, flag, value):
        root, data = workspace
        code = main([
            "--out", str(tmp_path), "tune",
            "--data", str(data), "--model", str(root / "model.txt"), flag, value,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag}") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "tuning.tsv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--window-mods", "--smooth-mods"])
    def test_non_finite_tune_modifier_is_input_error(self, workspace, tmp_path, capsys, flag, value):
        root, data = workspace
        code = main([
            "--out", str(tmp_path), "tune",
            "--data", str(data), "--model", str(root / "model.txt"), flag, value,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: window modifiers must be finite and >= 1")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "tuning.tsv").exists()

    def test_tune_on_recording_too_short_to_forecast_is_input_error(self, workspace, tmp_path, capsys):
        root, data = workspace
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for stem in ("s01_p0_r0", "s01_p1_r1"):  # seeds 50 and 51
            for stream in ("emg", "grip"):
                name = f"{stem}_{stream}.csv"
                (corpus / name).write_bytes((data / name).read_bytes())
        short = SynthProfile(levels=(1.0,), plateau_s=0.3, ramp_s=0.3, lead_s=0.2)  # 0.8 s
        write_recording(corpus, synth_recording(short, seed=52, subject="s01", position=2, replication=1))
        code = main([
            "--out", str(tmp_path), "tune", "--data", str(corpus), "--model", str(root / "model.txt"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: non-finite wMAPE for ForecastHyperparams(window_modifier=1.2,")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "tuning.tsv").exists()

    def test_non_finite_mask_gain_is_input_error(self, workspace, tmp_path, capsys):
        _, data = workspace
        assert main(["--out", str(tmp_path), "mask", "default"]) == 0
        lines = (tmp_path / "mask.tsv").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("20."))
        lines[at] = lines[at].split("\t")[0] + "\tnan"
        (tmp_path / "mask.tsv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "--out", str(tmp_path), "process",
            "--mask", str(tmp_path / "mask.tsv"), "--emg", str(data / "s01_p1_r1_emg.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: malformed mask file {tmp_path / 'mask.tsv'}: mask gains must be finite")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "s01_p1_r1_emg_processed.csv").exists()

    def test_non_utf8_data_file_is_input_error(self, tmp_path, capsys):
        (tmp_path / "bad_emg.csv").write_bytes(b"\xff\xfe" + bytes(range(256)) * 8)
        code = main(["--out", str(tmp_path), "process", "--emg", str(tmp_path / "bad_emg.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and len(err.strip().splitlines()) == 1

    def test_malformed_runs_file_is_input_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("subject,position,replication,wmape\ns01,1,1,4.0\ns01,2,1\n")
        code = main(["--out", str(tmp_path), "evaluate", "--runs", str(runs)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and len(err.strip().splitlines()) == 1
        assert "runs.csv:3: expected 4 fields" in err

    def test_non_finite_run_metric_is_input_error(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("s01,1,1,4.0\ns01,2,1,nan\ns02,1,1,4.5\ns02,2,1,5.75\n")
        assert main(["--out", str(tmp_path), "evaluate", "--runs", str(runs)]) == 2
        assert "run s01_p2_r1 has non-finite metric nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("== step zero\na\t0.0\t1.0\n", "line 1"),
            ("== step 0\na 0.0 1.0\n", "line 2"),
            ("== step 0\nwindow_size\t2.0\tinf\n", "window_size"),
            ("== step 0\nmask_2hz\tnan\t5.0\n", "mask_2hz"),
        ],
        ids=["step_not_int", "space_separated", "inf_bound", "nan_bound"],
    )
    def test_malformed_bounds_file_is_input_error(
        self, workspace, tmp_path, capsys, monkeypatch, text, where
    ):
        def never(*_):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr("emgrip.cli._load_corpus", never)
        root, data = workspace
        bounds_file = tmp_path / "bounds.txt"
        bounds_file.write_text(text)
        code = main([
            "--out", str(tmp_path), "sa", "lh", "--data", str(data), "--samples", "4",
            "--bounds-file", str(bounds_file),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and len(err.strip().splitlines()) == 1
        assert f"bounds.txt: {where}: " in err

    @pytest.mark.parametrize(
        "args",
        [
            ["sobol", "--boot", "-3"],
            ["rbdfast", "--boot", "-1"],
            ["rbdfast", "--boot", "two"],
            ["rbdfast", "--samples", "8", "--harmonics", "4"],
            ["rbdfast", "--samples", "16", "--harmonics", "0"],
        ],
        ids=["sobol_boot", "rbdfast_boot", "boot_not_int", "harmonics_high", "harmonics_zero"],
    )
    def test_bad_sa_count_fails_before_the_study(self, workspace, tmp_path, capsys, monkeypatch, args):
        def never(*_):
            raise AssertionError("the objective ran")

        monkeypatch.setattr("emgrip.cli.map_objective", never)
        _, data = workspace
        code = main(["--out", str(tmp_path), "sa", args[0], "--data", str(data), *args[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("cmd", [["xcorr"], ["sa", "rbdfast", "--samples", "8", "--harmonics", "2"]])
    def test_recording_too_short_for_lag_window_is_input_error(
        self, workspace, tmp_path, capsys, monkeypatch, cmd
    ):
        # 150 samples at 992.97 Hz: the +-0.16 s lag window needs 160
        def never(*_):
            raise AssertionError("the objective ran")

        monkeypatch.setattr("emgrip.cli.map_objective", never)
        _, data = workspace
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_recording(corpus, read_recording(data / "s01_p1_r1_emg.csv", data / "s01_p1_r1_grip.csv"))
        rec = synth_recording(seed=52, subject="s02")
        emg = TimestampedSeries(rec.emg.times[:150], rec.emg.values[:150])
        write_recording(corpus, Recording(emg, rec.grip, "s02", 2, 1))
        code = main(["--out", str(tmp_path / "out"), cmd[0], "--data", str(corpus), *cmd[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: s02_p2_r1: 150 EMG samples")
        assert "fewer than the 160" in err and len(err.strip().splitlines()) == 1

    def test_negative_synth_count_is_input_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "synth", "--subjects", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and len(err.strip().splitlines()) == 1


class TestMaskCommand:
    def test_default_mask_round_trip(self, tmp_path):
        assert main(["--out", str(tmp_path), "mask", "default"]) == 0
        mask = read_mask(tmp_path / "mask.tsv")
        ref = default_optimal_mask()
        assert np.array_equal(mask.gains, ref.gains)
        assert mask.bin_resolution == ref.bin_resolution

    def test_show_prints_bins(self, capsys):
        assert main(["mask", "show"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 249

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("EMGRIP_OUT_DIR", str(target))
        assert main(["mask", "default"]) == 0
        assert (target / "mask.tsv").exists()


class TestSynthCommand:
    def test_writes_corpus(self, tmp_path):
        code = main(["--seed", "7", "--out", str(tmp_path), "synth", "--subjects", "1"])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert "s01_p0_r0_emg.csv" in files
        assert "s01_p1_r1_grip.csv" in files

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--seed", "9", "--out", str(a), "synth"])
        main(["--seed", "9", "--out", str(b), "synth"])
        for f in a.glob("*.csv"):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_default_seed_is_zero(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--out", str(a), "synth"])
        main(["--seed", "0", "--out", str(b), "synth"])
        files = sorted(f.name for f in a.glob("*.csv"))
        assert files and files == sorted(f.name for f in b.glob("*.csv"))
        assert all((a / name).read_bytes() == (b / name).read_bytes() for name in files)


class TestPipelineCommands:
    def test_process_writes_envelope(self, workspace, tmp_path):
        root, data = workspace
        code = main([
            "--out", str(tmp_path),
            "process", "--emg", str(data / "s01_p1_r1_emg.csv"), "--window", "150",
        ])
        assert code == 0
        series, meta = read_series(tmp_path / "s01_p1_r1_emg_processed.csv")
        assert meta["stream"] == "processed_emg"
        assert series.values.min() >= 0.0

    def test_simulate_report_rows(self, workspace, tmp_path, capsys):
        root, data = workspace
        stem = data / "s01_p1_r1"
        argv = ["simulate", "--model", str(root / "model.txt"), "--emg", f"{stem}_emg.csv"]
        assert main(["--out", str(tmp_path / "bare"), *argv]) == 0
        assert main(["--out", str(tmp_path / "grip"), *argv, "--grip", f"{stem}_grip.csv"]) == 0
        out = capsys.readouterr().out
        assert "peak xcorr" in out and "estimation wMAPE" in out and "prediction wMAPE" in out
        counts = ["n_estimates", "n_forecasts", "runtime_s"]
        bare, grip = _report(tmp_path / "bare"), _report(tmp_path / "grip")
        assert list(bare) == counts
        assert list(grip) == counts + ["peak_xcorr", "estimation_wmape_pct", "prediction_wmape_pct"]
        estimates, _ = read_series(tmp_path / "grip" / "estimates.csv")
        assert grip["n_estimates"] == bare["n_estimates"] == estimates.values.size > 0
        forecasts = read_forecasts(tmp_path / "grip" / "forecasts.csv")
        assert grip["n_forecasts"] == bare["n_forecasts"] == len(forecasts) > 0
        assert grip["runtime_s"] > 0

    def test_estimate_on_stream_too_short_to_estimate(self, workspace, tmp_path, capsys):
        root, _ = workspace
        rec = synth_recording(seed=43)
        n = 400  # shorter than the model's estimation window
        write_series(tmp_path / "short_emg.csv", TimestampedSeries(rec.emg.times[:n], rec.emg.values[:n]))
        write_series(tmp_path / "short_grip.csv", rec.grip)
        code = main([
            "--out", str(tmp_path), "simulate",
            "--model", str(root / "model.txt"),
            "--emg", str(tmp_path / "short_emg.csv"),
            "--grip", str(tmp_path / "short_grip.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and len(err.strip().splitlines()) == 1
        assert "no data rows to write" in err
        # a header-only output file would fail its reader, so none is written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short_emg.csv", "short_grip.csv"]

        # 0.8 s: long enough to estimate, too short to forecast
        short = synth_recording(SynthProfile(levels=(1.0,), plateau_s=0.3, ramp_s=0.3, lead_s=0.2), seed=52)
        emg_path, grip_path = write_recording(tmp_path, short)
        out = tmp_path / "out"
        code = main([
            "--out", str(out), "simulate",
            "--model", str(root / "model.txt"), "--emg", str(emg_path), "--grip", str(grip_path),
        ])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["estimates.csv", "latency.tsv", "simulate_report.tsv"]
        report = _report(out)
        assert report["n_estimates"] > 0 and report["n_forecasts"] == 0
        assert "prediction_wmape_pct" not in report and "estimation_wmape_pct" in report
        assert "prediction wMAPE" not in capsys.readouterr().out

    def test_simulate_on_zero_grip_omits_undefined_metrics(self, workspace, tmp_path, capsys):
        # the first 0.8 s of seed 43, whose grip is 0 N throughout: xcorr
        # and both wMAPEs are undefined, so the report leaves them out
        root, _ = workspace
        rec = synth_recording(seed=43)
        write_series(tmp_path / "zero_emg.csv", TimestampedSeries(rec.emg.times[:800], rec.emg.values[:800]))
        write_series(tmp_path / "zero_grip.csv", TimestampedSeries(rec.grip.times[:170], rec.grip.values[:170]))
        argv = [
            "simulate", "--model", str(root / "model.txt"),
            "--emg", str(tmp_path / "zero_emg.csv"), "--grip", str(tmp_path / "zero_grip.csv"),
        ]
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == 0
        report = _report(out)
        assert list(report) == ["n_estimates", "n_forecasts", "runtime_s"]
        assert report["n_estimates"] > 0
        captured = capsys.readouterr()
        assert "peak xcorr" not in captured.out and not captured.err

        # a non-finite grip sample is still a numeric failure
        grip = rec.grip.values[:170].copy()
        grip[40] = np.nan
        write_series(tmp_path / "zero_grip.csv", TimestampedSeries(rec.grip.times[:170], grip))
        assert main(["--out", str(tmp_path / "nan"), *argv]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_simulate_writes_latency(self, workspace, tmp_path):
        root, data = workspace
        code = main([
            "--out", str(tmp_path), "simulate",
            "--model", str(root / "model.txt"),
            "--emg", str(data / "s01_p2_r1_emg.csv"),
            "--grip", str(data / "s01_p2_r1_grip.csv"),
        ])
        assert code == 0
        text = (tmp_path / "latency.tsv").read_text()
        assert text.splitlines()[0] == "stage\tp50_ms\tp90_ms\tp99_ms"
        assert (tmp_path / "forecasts.csv").exists()

    def test_xcorr_summary(self, workspace, tmp_path):
        root, data = workspace
        code = main(["--out", str(tmp_path), "xcorr", "--data", str(data), "--window", "150"])
        assert code == 0
        lines = (tmp_path / "xcorr_summary.tsv").read_text().splitlines()
        assert lines[0].startswith("metric\tmin")
        assert len(lines) == 3

    def test_reports_match_library_metrics(self, workspace, tmp_path):
        root, data = workspace
        stem = data / "s01_p1_r1"
        assert main([
            "--out", str(tmp_path), "simulate",
            "--model", str(root / "model.txt"),
            "--emg", f"{stem}_emg.csv", "--grip", f"{stem}_grip.csv",
        ]) == 0
        ev = evaluate_run(
            read_recording(f"{stem}_emg.csv", f"{stem}_grip.csv"),
            read_model(root / "model.txt"),
            default_optimal_mask(),
            SmoothingParams(150, 0.0),
        )
        report = _report(tmp_path)
        assert report["peak_xcorr"] == ev.peak_xcorr
        assert report["estimation_wmape_pct"] == ev.estimation_wmape
        assert report["prediction_wmape_pct"] == ev.prediction_wmape

    def test_xcorr_summary_matches_library(self, workspace, tmp_path):
        root, data = workspace
        assert main(["--out", str(tmp_path), "xcorr", "--data", str(data), "--window", "150"]) == 0
        peaks, lags_ms = [], []
        for emg_path in sorted(data.glob("*_emg.csv")):
            rec = read_recording(emg_path, str(emg_path).replace("_emg.csv", "_grip.csv"))
            envelope = process_recording(rec.emg, default_optimal_mask(), SmoothingParams(150, 0.0))
            peak, lag = envelope_grip_xcorr(envelope, rec.emg, rec.grip)
            peaks.append(peak)
            lags_ms.append(-1e3 * lag / rec.emg.rate)
        rows = (tmp_path / "xcorr_summary.tsv").read_text().splitlines()[1:]
        for row, (name, vals) in zip(rows, (("peak_xcorr", peaks), ("emg_lag_ms", lags_ms))):
            fields = row.split("\t")
            assert fields[0] == name
            assert [float(v) for v in fields[1:]] == list(summary_stats(vals).as_tuple())

    def test_sa_lh_projections(self, workspace, tmp_path):
        root, data = workspace
        code = main([
            "--seed", "1", "--out", str(tmp_path),
            "sa", "lh", "--data", str(data), "--samples", "6",
        ])
        assert code == 0
        assert (tmp_path / "sa_lh_projections.tsv").exists()

    def test_sa_sobol_and_rbdfast(self, workspace, tmp_path):
        root, data = workspace
        code = main([
            "--seed", "1", "--out", str(tmp_path),
            "sa", "sobol", "--data", str(data), "--samples", "4", "--boot", "8",
        ])
        assert code == 0
        lines = (tmp_path / "sa_sobol.tsv").read_text().splitlines()
        assert lines[0].startswith("variable\tS1")
        assert len(lines) == 4  # coarse grouping: mask / window / decay
        code = main([
            "--seed", "1", "--out", str(tmp_path),
            "sa", "rbdfast", "--data", str(data), "--samples", "16", "--harmonics", "4",
        ])
        assert code == 0
        assert len((tmp_path / "sa_rbdfast.tsv").read_text().splitlines()) == 251
        code = main([
            "--seed", "1", "--out", str(tmp_path),
            "sa", "rbdfast", "--data", str(data), "--samples", "24", "--harmonics", "4", "--boot", "50",
        ])
        assert code == 0
        lines = (tmp_path / "sa_rbdfast.tsv").read_text().splitlines()
        assert lines[0] == "variable\tS1\tS1_lo\tS1_hi" and len(lines) == 251
        for line in lines[1:]:
            s1, lo, hi = (float(v) for v in line.split("\t")[1:])
            assert lo <= s1 <= hi

    def test_unseeded_sa_reproducible(self, workspace, tmp_path):
        root, data = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main([
                "--out", str(out),
                "sa", "rbdfast", "--data", str(data), "--samples", "16", "--harmonics", "4",
            ])
            assert code == 0
        assert (a / "sa_rbdfast.tsv").read_bytes() == (b / "sa_rbdfast.tsv").read_bytes()

    def test_sa_sobol_ungrouped_over_narrowed_bounds(self, workspace, tmp_path):
        # a 3-variable bounds file keeps the ungrouped radial design small
        from emgrip.sensitivity import Bounds, NarrowingRecord
        import numpy as np

        root, data = workspace
        tiny = Bounds(
            np.array([0.0, 100.0, 0.0]),
            np.array([5.0, 400.0, 0.01]),
            ("mask_60hz", "window_size", "decay"),
        )
        bounds_file = tmp_path / "tiny.txt"
        bounds_file.write_text(NarrowingRecord(tiny).to_text())
        code = main([
            "--seed", "4", "--out", str(tmp_path),
            "sa", "sobol", "--data", str(data), "--samples", "4",
            "--groups", "none", "--bounds-file", str(bounds_file),
        ])
        assert code == 0
        lines = (tmp_path / "sa_sobol.tsv").read_text().splitlines()
        assert len(lines) == 4  # header + one row per variable

    def test_sa_sobol_keeps_groups_of_bounds_file(self, workspace, tmp_path):
        from emgrip.sensitivity import Bounds, NarrowingRecord, default_decision_bounds

        root, data = workspace
        base = default_decision_bounds()
        record = NarrowingRecord(base)
        upper = base.upper.copy()
        upper[248] = 330.0
        record.append(Bounds(base.lower, upper, base.names))
        bounds_file = tmp_path / "bounds.txt"
        bounds_file.write_text(record.to_text())
        code = main([
            "--seed", "4", "--out", str(tmp_path),
            "sa", "sobol", "--data", str(data), "--samples", "2",
            "--bounds-file", str(bounds_file),
        ])
        assert code == 0
        lines = (tmp_path / "sa_sobol.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines[1:]] == ["mask", "window_size", "decay"]

    def test_sa_sobol_coarse_over_ungrouped_bounds_is_input_error(self, workspace, tmp_path, capsys):
        from emgrip.sensitivity import Bounds, NarrowingRecord

        root, data = workspace
        tiny = Bounds(np.zeros(3), np.ones(3), ("mask_60hz", "window_size", "decay"))
        bounds_file = tmp_path / "tiny.txt"
        bounds_file.write_text(NarrowingRecord(tiny).to_text())
        code = main([
            "--out", str(tmp_path), "sa", "sobol", "--data", str(data), "--samples", "2",
            "--bounds-file", str(bounds_file),
        ])
        assert code == 2
        assert "--groups none" in capsys.readouterr().err
        assert not (tmp_path / "sa_sobol.tsv").exists()

    def test_sa_resumes_from_bounds_file(self, workspace, tmp_path):
        from emgrip.sensitivity import Bounds, NarrowingRecord, default_decision_bounds

        root, data = workspace
        base = default_decision_bounds()
        record = NarrowingRecord(base)
        upper = base.upper.copy()
        upper[248] = 330.0
        record.append(Bounds(base.lower, upper, base.names))
        bounds_file = tmp_path / "bounds.txt"
        bounds_file.write_text(record.to_text())
        code = main([
            "--seed", "2", "--out", str(tmp_path),
            "sa", "lh", "--data", str(data), "--samples", "4",
            "--bounds-file", str(bounds_file),
        ])
        assert code == 0

    def test_tune_single_point(self, workspace, tmp_path):
        root, data = workspace
        code = main([
            "--out", str(tmp_path), "tune",
            "--data", str(data), "--model", str(root / "model.txt"),
            "--window-mods", "1.3", "--smooth-mods", "1.1", "--thin-steps", "7",
        ])
        assert code == 0
        lines = (tmp_path / "tuning.tsv").read_text().splitlines()
        assert len(lines) == 2


class TestEvaluateCommand:
    def test_reproduces_reference_f_values(self, tmp_path, capsys):
        from test_metrics import estimation_records

        write_runs(tmp_path / "runs.csv", estimation_records())
        code = main(["--out", str(tmp_path), "evaluate", "--runs", str(tmp_path / "runs.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "subject" in out
        anova = (tmp_path / "anova.tsv").read_text().splitlines()
        subject_row = [l for l in anova if l.startswith("subject")][0]
        f_val = float(subject_row.split("\t")[4])
        assert f_val == pytest.approx(2.52, rel=0.05)
        assert (tmp_path / "effects_position.tsv").exists()
        assert (tmp_path / "wmape_summary.tsv").exists()

    def test_headerless_runs_file_reads_every_run(self, tmp_path):
        from test_metrics import estimation_records

        lines = write_runs(tmp_path / "runs.csv", estimation_records()).read_text().splitlines()
        (tmp_path / "bare.csv").write_text("\n".join(lines[1:]) + "\n")
        for name, out in (("runs.csv", "with"), ("bare.csv", "without")):
            code = main(["--out", str(tmp_path / out), "evaluate", "--runs", str(tmp_path / name)])
            assert code == 0
        with_header = (tmp_path / "with" / "anova.tsv").read_bytes()
        assert (tmp_path / "without" / "anova.tsv").read_bytes() == with_header


class TestConfigPrecedence:
    def test_three_way_override(self, workspace, tmp_path):
        """A flag overrides its built-in default, which is what no flag gives."""
        root, data = workspace
        emg = data / "s01_p1_r1_emg.csv"

        def run(outdir, *extra):
            assert main(["--out", str(outdir), "process", "--emg", str(emg), *extra]) == 0
            s, _ = read_series(outdir / "s01_p1_r1_emg_processed.csv")
            return s.values

        v_default = run(tmp_path / "default")
        v_flag = run(tmp_path / "flag", "--window", "80")
        assert not np.array_equal(v_default, v_flag)
        ts, _ = read_series(emg)
        built_in = process_recording(ts, default_optimal_mask(), SmoothingParams())
        assert np.array_equal(v_default, built_in)
