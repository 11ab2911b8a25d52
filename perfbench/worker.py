"""One workload in a process of its own; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR [--trace-out FILE]

Runs an untimed warm-up op, then whole rounds of the workload's ops for
about S seconds of op time (the round boundary nearest to S).  After each
op it times the speed reference (speed.py) and checks the op's output,
both outside the op's timing.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

# (family, a, beta, N, kept although it fails today)
RECONSTRUCT_INPUTS = [
    ("gaussian", 1.0, 1.0, 100, False),
    ("gaussian", 1.25, 0.8, 1000, False),
    ("gaussian", 1.0, 3.0, 10, True),  # 64 angles undersample: exit 3
    ("homotopy", 1.0, 1.0, 10, False),
    ("homotopy", 0.8, 1.25, 1000, False),
    ("homotopy", 0.5, 2.0, 10, True),  # exit 0, marginal moments off
]
SAMPLE_N = 300
SAMPLE_SWEEPS = 100_000
ANALYTIC_POINTS = 100
ANALYTIC_BETA_A = np.logspace(math.log10(0.05), math.log10(20.0), ANALYTIC_POINTS)
HOMOTOPY_T = np.linspace(0.0, math.pi / 2.0, 33)
TOMOGRAM_ANGLES = 16
TOMOGRAM_N0 = (4, 6, 8)
PROPAGATIONS = 4


@dataclass
class Op:
    run: object  # () -> output
    check: object  # output -> list of failure messages
    kept_failing: bool = False
    occupations: int = 0  # occupations the op draws (sample workload)
    label: str = ""


def run_cli(argv):
    import thermoflux.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = thermoflux.cli.main(argv)
    return code, buf.getvalue()


def _report(code, text):
    """Parsed JSON report of a CLI call, or a failure message."""
    if code != 0:
        return None, [f"exit code {code}: {text.strip()[:200]}"]
    return json.loads(text), []


def reconstruct_ops(tmp: Path) -> list:
    out = tmp / "grid.csv"
    ops = []
    for family, a, beta, n, kept in RECONSTRUCT_INPUTS:
        argv = ["reconstruct", "--json", "--output", str(out), "--family", family,
                "--a", repr(a), "--beta", repr(beta), "--N", repr(float(n))]
        grid_check = checks.check_gaussian_grid if family == "gaussian" else checks.check_homotopy_grid

        def check(result, a=a, beta=beta, n=n, grid_check=grid_check):
            report, errors = _report(*result)
            if errors:
                return errors
            x, y, values = checks.grid_from_csv(out.read_text())
            return grid_check(x, y, values, a, beta, n, report)

        ops.append(Op(run=lambda argv=argv: run_cli(argv), check=check, kept_failing=kept,
                      label=" ".join(argv[4:])))
    return ops


def sample_op(rng, tmp: Path) -> Op:
    out = tmp / "energies.csv"
    a = float(rng.choice([0.5, 1.0, 2.0]))
    beta = float(rng.uniform(0.8, 1.25)) / a
    run_seed = int(rng.integers(0, 2**31 - 1))
    argv = ["sample", "--check", "--json", "--output", str(out), "--a", repr(a),
            "--beta", repr(beta), "--N", repr(float(SAMPLE_N)), "--sweeps", str(SAMPLE_SWEEPS),
            "--seed", str(run_seed)]

    def check(result):
        report, errors = _report(*result)
        if errors:
            return errors
        energies = np.array(out.read_text().split()[1:], dtype=float)
        return checks.check_sample(energies, a, beta, SAMPLE_N, report)

    return Op(run=lambda: run_cli(argv), check=check, occupations=SAMPLE_N * SAMPLE_SWEEPS,
              label=" ".join(argv[5:]))


def analytic_batch(points, packets):
    """The analytic op: public-API calls over a batch of (a, beta, N)."""
    from thermoflux import core, cumulants, duality, homotopy, quantum, tomography

    results = []
    for a, beta, n in points:
        ens = core.OscillatorEnsemble(a=a, n=n)
        state = core.ThermoState(beta=beta)
        stats = core.energy_stats(state, ens)
        core.log_partition(state, ens)
        core.entropy_stat(ens, stats.mean)
        core.legendre_phi(state, ens)
        alpha = core.ManifoldPoint.from_beta(beta, ens)
        core.quasi_fluctuations(alpha, n)
        core.specific_entropy(alpha.epsilon, ens)
        big_k = cumulants.energy_cumulants(state, ens, 20)
        kappa = cumulants.fluctuation_cumulants(state, ens, 20)
        remark1 = duality.solve_remark1(a, beta, n)
        report = duality.verify_duality(remark1)
        symmetric = duality.solve_symmetric(a, beta, n)
        duality.verify_duality(symmetric)
        path = homotopy.HomotopyPath.from_dual_pair(remark1)
        table = []
        for t in HOMOTOPY_T:
            point = homotopy.path_params(path, float(t))
            homotopy.path_cumulants(path, float(t), 8)
            table.append(point)
        families = [(n0, tomography.homotopy_tomograms(path, TOMOGRAM_ANGLES, n0))
                    for n0 in TOMOGRAM_N0]
        results.append((stats, big_k, kappa, remark1, report, symmetric, table, families))
    norms = []
    for lam, x0, y0, h, t in packets:
        profile = quantum.to_profile(quantum.GaussianWavePacket(lam=lam, x0=x0, y0=y0, h=h))
        norms.append(quantum.propagate(profile, t, h).norm_sq())
    return results, norms


def analytic_records(points, results) -> list:
    """The dicts checks.check_points reads, one per point."""
    return [
        {
            "a": a, "beta": beta, "n": n,
            "mean": stats.mean, "variance": stats.variance,
            "energy_cumulants": big_k.values, "fluctuation_cumulants": kappa.values,
            "remark1": (remark1.a_dual, remark1.beta_dual),
            "remark1_product": report.variance_product_scaled,
            "symmetric": (symmetric.a_dual, symmetric.beta_dual),
            "table": [(p.t, p.a, p.beta, p.mean, p.variance) for p in table],
            "tomogram_angles": np.array([tom.angle for tom in families[0][1]]),
            "tomograms": [(n0, np.array([tom.variance for tom in toms]),
                           np.array([tom.moments for tom in toms]))
                          for n0, toms in families],
        }
        for (a, beta, n), (stats, big_k, kappa, remark1, report, symmetric, table, families)
        in zip(points, results)
    ]


def analytic_op(rng) -> Op:
    a = np.exp(rng.uniform(math.log(0.2), math.log(5.0), ANALYTIC_POINTS))
    n = rng.choice([10.0, 100.0, 1000.0], ANALYTIC_POINTS)
    points = [(float(a[i]), float(ANALYTIC_BETA_A[i] / a[i]), float(n[i]))
              for i in range(ANALYTIC_POINTS)]
    packets = [(float(rng.uniform(1.0, 3.0)), float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(-0.5, 0.5)), 0.1, float(rng.uniform(0.9, 1.5)))
               for _ in range(PROPAGATIONS)]

    def check(result):
        results, norms = result
        return checks.check_norms(norms) + checks.check_points(analytic_records(points, results))

    return Op(run=lambda: analytic_batch(points, packets), check=check)


def run_and_check(op: Op, run) -> tuple:
    """(seconds op.run took, failure messages).  A crash is a failed op,
    not a crashed run; the check is not timed."""
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - reported as the op's failure
        return time.perf_counter() - t0, [f"raised {exc!r}"]
    seconds = time.perf_counter() - t0
    try:
        return seconds, op.check(result)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the op
        return seconds, [f"output unreadable: {exc!r}"]


def build_ops(workload: str, seed: int, tmp: Path):
    """(warm-up op, function returning the ops of the next round).

    A reconstruct round is the fixed input list in a seed-given order; a
    sample or analytic round is one op with fresh inputs from the seed.
    """
    rng = np.random.default_rng(seed)
    if workload == "reconstruct":
        ops = reconstruct_ops(tmp)
        round_ops = [ops[i] for i in rng.permutation(len(ops))]
        return ops[0], lambda: round_ops
    make = (lambda: sample_op(rng, tmp)) if workload == "sample" else (lambda: analytic_op(rng))
    return make(), lambda: [make()]


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "THERMOFLUX_THREADS": os.environ.get("THERMOFLUX_THREADS"),
        "THERMOFLUX_KERNELS": os.environ.get("THERMOFLUX_KERNELS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    try:
        import thermoflux._kernels as kernels

        env["kernel_backend"] = kernels.BACKEND
    except (ImportError, AttributeError):
        env["kernel_backend"] = "absent"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["reconstruct", "sample", "analytic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)

    import thermoflux.cli  # noqa: F401  (set-up is paid before timing)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    def traced(name, op):
        return op.run if tracer is None else (lambda: tracer.run_span(name, op.run))

    warm, next_round = build_ops(args.workload, args.seed, tmp)
    if tracer is not None:
        tracer.track_memory = True
    _, warm_errors = run_and_check(warm, traced("warmup", warm))
    if tracer is not None:
        tracer.track_memory = False

    times, scales, work, failures, unexpected = [], [], [], [], []
    measured = 0.0  # op time so far; checks and speed references excluded
    ref_before = speed.reference_seconds()
    while True:
        round_start = measured
        for op in next_round():
            seconds, errors = run_and_check(op, traced("op", op))
            ref_after = speed.reference_seconds()
            times.append(seconds)
            scales.append(speed.scale(ref_before, ref_after))
            work.append(op.occupations)
            if errors:
                failures.append({"op": len(times) - 1, "input": op.label, "errors": errors[:3]})
                if not op.kept_failing:
                    unexpected.append(failures[-1])
            ref_before = ref_after
        measured = sum(times)
        # stop at the round boundary nearest to the requested length
        if measured + 0.5 * (measured - round_start) >= args.seconds:
            break

    rescaled = np.array(times) * np.array(scales)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not unexpected and not warm_errors,
        "attempted": len(times),
        "failed": len(failures),
        "op_p50_s": float(np.median(rescaled)),
        "ops_per_s": len(times) / float(rescaled.sum()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_op_p50_s": float(np.median(times)),
        "wall_ops_per_s": len(times) / measured,
        "op_wall_s": times,
        "op_scale": scales,
        "failures": failures,
        "warmup_errors": warm_errors,
        "environment": environment(),
    }
    if tracer is not None:
        spans = tracer.arrays()
        out["layers"] = tracing.layer_metrics(spans, tracer.peaks, work, scales)
        out["absent"] = tracer.absent
        out["spans"] = len(spans["start"])
        if args.trace_out:
            np.savez_compressed(args.trace_out, **spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
