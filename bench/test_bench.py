"""Tests of the benchmark's own machinery.

    python3 -m pytest bench
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import worker
from tracing import Span, Tracer, percentile, self_times
from yardstick import REFERENCE_S, Yardstick, reference_factor

BENCH = Path(__file__).resolve().parent


def test_self_time_subtracts_merged_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 5.0, 0, 0),    # overlaps a: covered 1..5 counts once
        Span("c", 9.0, 12.0, 0, 0),   # runs past the parent: clipped at 10
        Span("leaf", 1.5, 2.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 3.0 - 0.5, 2.0, 3.0, 0.5])


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(np.arange(19.0), 50)
    assert percentile(np.arange(20.0), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(np.arange(999.0), 99)
    percentile(np.arange(1000.0), 99)
    percentile(np.arange(100.0), 90)


def test_reference_factor_uses_the_kernel_times_near_the_work():
    samples = [(0.0, REFERENCE_S), (0.5, REFERENCE_S / 2), (0.9, REFERENCE_S / 2), (5.0, 2 * REFERENCE_S)]
    assert reference_factor(samples, 0.7, window=0.3) == pytest.approx(2.0)
    assert reference_factor(samples, 4.0, window=0.5) == pytest.approx(0.5)  # nearest only
    assert reference_factor(samples, 0.4, window=1.0) == pytest.approx(2.0)  # median of three


def test_restore_puts_back_every_wrapped_attribute():
    worker._import_library()
    wraps = worker.session_wraps() + worker.sa_wraps()
    before = [getattr(sys.modules[mod], attr) for mod, attr, *_ in wraps]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(wraps):
            during = [getattr(sys.modules[mod], attr) for mod, attr, *_ in wraps]
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError("a failing traced run still restores")
    after = [getattr(sys.modules[mod], attr) for mod, attr, *_ in wraps]
    assert all(a is b for a, b in zip(after, before))


def test_wrapper_records_nesting_and_returns_the_result(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    seen = []
    tracer = Tracer()
    with tracer.installed([
        ("fake_layer", "outer", "l.outer", None, True),
        ("fake_layer", "inner", "l.inner", lambda tr, a, k, r: seen.append(r)),
    ]):
        assert mod.outer(1) == 4
        assert mod.outer(2) == 6
    assert [s.name for s in tracer.spans] == ["l.outer", "l.inner"] * 2
    assert [s.parent for s in tracer.spans] == [-1, 0, -1, 2]
    assert [s.op for s in tracer.spans] == [0, 0, 1, 1]
    assert seen == [2, 3]


def test_traced_stream_matches_untraced_and_self_times_cover_it():
    sess = worker.setup_session(1, worker.DEFAULT_SEED)
    n = sess.n_batches
    tracer = Tracer()
    traced, plain, restored = worker.measure_traced(
        worker.session_pass, sess, worker.session_wraps(), 0.0, tracer, Yardstick()
    )
    # the traced pass sets the digest the untraced pass must reproduce
    assert restored and sess.baseline is not None
    assert (traced.ops, traced.failed, plain.ops, plain.failed) == (n, 0, n, 0)
    m = worker.layer_metrics(tracer, "simulate.stream", n, 1)
    layers = ("forecasting", "estimation", "processing")
    per_batch = sum(m[f"{x}.self_ms_per_op"] for x in layers) + m["simulate.overhead_ms_per_batch"]
    stream = tracer.spans[0]  # a root span is listed before its children
    assert stream.name == "simulate.stream"
    assert per_batch == pytest.approx(1e3 * (stream.end - stream.start) / n, rel=1e-9)
    assert m["processing.calls"] == n


def test_reference_matches_this_tree():
    ref = json.loads((BENCH / "reference.json").read_text())
    sess = worker.setup_session(1, ref["session_default"]["seed"])
    assert worker.check_session_reference("session_default", sess, 0) == (60, 0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
