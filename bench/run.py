"""Benchmark launcher: one command for every workload and metric.

    python3 bench/run.py --workload session_default --seed 42 --seconds 30 --trace 0

Runs from the root of a checkout that holds ``src/emgrip``.  The launcher
pins the BLAS thread count, starts fresh worker processes (several that
only time set-up, then one that measures), merges what they report, and
prints human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  The exit code is 0 only when every operation
passed its correctness check.  See NOTES.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

WORKLOADS = ("session_default", "session_long", "sa_rbdfast")
SETUP_CHILDREN = 2        # set-up-only processes; the measuring one adds a third
SETUP_TIMEOUT_S = 20
BLAS_THREADS = 1          # one client, one process; never above nproc
# timings other than op_p95_ms are in reference time (see yardstick.py);
# the wall-clock figures are printed beside them
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "job_s": "s",
    "peak_rss_mb": "MB",
}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run one worker to completion and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="emgrip benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "emgrip" / "__init__.py").is_file():
        print(f"no emgrip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_CHILDREN):
                setups.append(run_child(common + ["--setup-only"], SETUP_TIMEOUT_S))
        res = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=args.seconds + 90,  # with the set-ups, within 180 s at 30 s
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["per_layer"]
    else:
        setups.append(res)
        values = dict(res["e2e"], peak_rss_mb=res["peak_rss_mb"],
                      setup_s=statistics.median(s["setup_ref_s"] for s in setups))
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0
    summary = {
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }

    print(f"machine {json.dumps(machine())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if not args.trace:
        print(f"setup wall s {[round(s['setup_s'], 4) for s in setups]}, "
              f"reference s {[round(s['setup_ref_s'], 4) for s in setups]}")
        print(f"ops {res['op_count']}, job repeats {res['job_repeats']}, "
              f"yardstick {res['yardstick_ms']:.4g} ms, wall {json.dumps(res['wall'])}")
        print(f"quality {json.dumps(res.get('quality'))}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    with open(OUT / f"result_{tag}.json", "w") as fh:
        json.dump({"machine": machine(), "args": vars(args), "worker": res, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
