"""Benchmark for thermoflux: reconstruct, sample and analytic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py              # every workload, untraced then traced

With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics (setup_s, op_p50_s, ops_per_s, peak_rss_mb); with
--trace 1 it carries the per-layer metrics of tracing.LAYER_METRICS.
Each workload runs in its own worker process (worker.py); setup_s is the
median import time of thermoflux.cli over fresh interpreters.  Result
files go to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("reconstruct", "sample", "analytic")
SETUP_IMPORTS = 10
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
IMPORT_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import speed; "
    "r0 = speed.reference_seconds(); t0 = time.perf_counter(); import thermoflux.cli; "
    "t1 = time.perf_counter(); r1 = speed.reference_seconds(); "
    "print(t1 - t0, speed.scale(r0, r1))"
)


def program_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(env: dict, count: int) -> list:
    """(wall time, speed factor) of importing thermoflux.cli, each in a
    fresh interpreter."""
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        wall, factor = done.stdout.split()[-2:]
        times.append((float(wall), float(factor)))
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp)]
    if trace:
        cmd += ["--trace-out", str(OUT / f"trace-{workload}.npz")]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=seconds + 90)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """One run: the worker's record plus setup_s, written to perfbench/out/."""
    if trace:
        record = run_workload(workload, seed, seconds, trace, env)
        record["metrics"] = record.pop("layers")
    else:
        # half the imports before the workload and half after, so that a
        # slow spell of the machine does not cover them all; the first
        # import may write bytecode caches and is not counted
        imports = import_times(env, SETUP_IMPORTS // 2 + 1)[1:]
        record = run_workload(workload, seed, seconds, trace, env)
        imports += import_times(env, SETUP_IMPORTS - len(imports))
        record["import_wall_s"] = [wall for wall, _ in imports]
        record["import_scale"] = [factor for _, factor in imports]
        record["wall_setup_s"] = statistics.median(record["import_wall_s"])
        record["metrics"] = {
            "setup_s": {"value": statistics.median(w * f for w, f in imports), "unit": "s"},
            "op_p50_s": {"value": record["op_p50_s"], "unit": "s"},
            "ops_per_s": {"value": record["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def show(record: dict) -> None:
    print(f"workload {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {str(record['correct']).lower()}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name in ("wall_setup_s", "wall_op_p50_s", "wall_ops_per_s"):
        if name in record:
            print(f"  ({name} = {record[name]:.6g}, unscaled wall time)")
    for label in record.get("absent", []):
        print(f"  absent: {label} (its metric reads 0)")
    for failure in record["failures"][:2]:
        print(f"  failed op {failure['op']}: {failure['input']}: {failure['errors'][0]}")


def last_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "thermoflux" / "cli.py").is_file():
        print("run.py: src/thermoflux not found; run from the repository root", file=sys.stderr)
        return 2
    env = program_env()

    if args.workload:
        record = measure(args.workload, args.seed, args.seconds, args.trace, env)
        show(record)
        print(last_line(record))
        return 0

    summary = {}
    for workload in WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, 0, env)
        traced = measure(workload, args.seed, args.seconds, 1, env)
        show(plain)
        show(traced)
        overhead = traced["metrics"]["trace.op_p50_s"]["value"] / plain["op_p50_s"] - 1.0
        print(f"  tracing overhead on op_p50_s: {100 * overhead:+.1f}%")
        summary[workload] = {"untraced": json.loads(last_line(plain)),
                             "traced": json.loads(last_line(traced)),
                             "tracing_overhead": overhead}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
