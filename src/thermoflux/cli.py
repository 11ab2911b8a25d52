"""Command-line front end.

Subcommands: stats, cumulants, dual, homotopy, tomogram, reconstruct,
sample, verify.  Output is deterministic for a fixed config and seed:
JSON is emitted with sorted keys and shortest-roundtrip floats.

Exit codes: 0 success; 1 a `verify` invariant failed (the report names
it); 2 invalid configuration (message names the violated precondition);
3 numerical failure (bracket/quadrature/degeneracy) with a JSON
diagnostic payload.  Each error class carries its code as exit_code.

A plain-text config file (key=value per line, '#' comments) can supply
defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .core import (
    K_B_CGS,
    ManifoldPoint,
    OscillatorEnsemble,
    ThermoState,
    energy_stats,
    entropy_stat,
    legendre_phi,
    log_partition,
    quasi_fluctuations,
)
from .cumulants import energy_cumulants, fluctuation_cumulants
from .duality import solve_remark1, solve_symmetric, verify_duality
from .errors import ConfigError, ThermofluxError
from .homotopy import HomotopyPath, path_cumulants, path_params
from .sampler import empirical_cumulants, sample_energies
from .tomography import (
    build_tomogram,
    gaussian_tomogram_family,
    homotopy_tomograms,
    make_grid,
    purity,
    reconstruct,
)
from .verify import SUITES, run_suites


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line without '=': {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().lower().replace("-", "_")] = val.strip()
        return values
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")


def _resolve(args, key, default=None, cast=float):
    """Flag value if given, else config value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    config = getattr(args, "_config", {})
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ConfigError(f"config value for {key} is not a {cast.__name__}")
    if default is None:
        raise ConfigError(f"missing required parameter --{key.replace('_', '-')}")
    return default


def _seed(args, default: int) -> int:
    """The --seed value; numpy seed sequences take only nonnegative integers."""
    seed = int(_resolve(args, "seed", default, int))
    if seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {seed}")
    return seed


def _emit(args, results: dict, diagnostics: dict | None = None, text=None) -> None:
    if args.json:
        doc = {
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if not k.startswith("_") and k != "func" and v is not None
            },
            "results": results,
            "diagnostics": diagnostics or {},
            "version": __version__,
        }
        print(json.dumps(doc, sort_keys=True))
    elif text is not None:
        print(text)
    else:
        for k, v in results.items():
            print(f"{k} = {v!r}")


def _units(args) -> str:
    u = _resolve(args, "units", "internal", str)
    if u not in ("internal", "cgs"):
        raise ConfigError(f"units must be 'internal' or 'cgs', got {u!r}")
    return u


def _kb_scale(units: str) -> float:
    return K_B_CGS if units == "cgs" else 1.0


def cmd_stats(args):
    a = _resolve(args, "a")
    beta = _resolve(args, "beta")
    n = _resolve(args, "n")
    units = _units(args)
    kb = _kb_scale(units)
    ens = OscillatorEnsemble(a=a, n=n)
    st = ThermoState(beta=beta)
    es = energy_stats(st, ens)
    alpha = ManifoldPoint.from_beta(beta, ens)
    phi, phi2 = legendre_phi(st, ens)
    fl = quasi_fluctuations(alpha, n)
    entropy_unit = " erg/K" if units == "cgs" else ""
    results = {
        "mean": es.mean,
        "variance": es.variance,
        "epsilon": alpha.epsilon,
        "lambda": alpha.lam,
        "log_partition": log_partition(st, ens),
        "entropy": entropy_stat(ens, es.mean) * kb,
        "entropy_units": f"k_B units{entropy_unit}".strip(),
        "legendre_phi": phi * kb,
        "legendre_phi2": phi2,
        "variance_eps": fl.variance_eps * kb,
        "variance_beta": fl.variance_beta * kb,
    }
    _emit(args, results)
    return 0


def cmd_cumulants(args):
    a = _resolve(args, "a")
    beta = _resolve(args, "beta")
    n = _resolve(args, "n")
    order = int(_resolve(args, "order", 6, int))
    ens = OscillatorEnsemble(a=a, n=n)
    st = ThermoState(beta=beta)
    if args.fluctuation:
        kv = fluctuation_cumulants(st, ens, order)
        label = "kappa"
    else:
        kv = energy_cumulants(st, ens, order)
        label = "K"
    results = {f"{label}_{k}": kv.kappa(k) for k in range(1, order + 1)}
    lines = [f"{name} = {val!r}" for name, val in results.items()]
    out = _resolve(args, "output", "", str)
    if out:
        with open(out, "w") as fh:
            fh.write("order,value\n")
            for k in range(1, order + 1):
                fh.write(f"{k},{kv.kappa(k)!r}\n")
    _emit(args, results, text="\n".join(lines))
    return 0


def _solve_dual(a, beta, n, variant):
    if variant == "symmetric":
        return solve_symmetric(a, beta, n)
    if variant == "remark1":
        return solve_remark1(a, beta, n)
    raise ConfigError(f"variant must be 'symmetric' or 'remark1', got {variant!r}")


def cmd_dual(args):
    a = _resolve(args, "a")
    beta = _resolve(args, "beta")
    n = _resolve(args, "n")
    variant = _resolve(args, "variant", "remark1", str)
    pair = _solve_dual(a, beta, n, variant)
    report = verify_duality(pair)
    results = {
        "a_dual": pair.a_dual,
        "beta_dual": pair.beta_dual,
        "n_dual": pair.n_dual,
        "variant": pair.variant,
        "unphysical_spectrum": pair.unphysical_spectrum,
        "residuals": list(pair.residuals),
    }
    diagnostics = {
        "variance_product_scaled": report.variance_product_scaled,
        "imposed_condition_residual": report.imposed_condition_residual,
    }
    # duality output is JSON regardless of --json: residual vectors do not
    # render usefully as key=value lines
    doc = {
        "config": {"a": a, "beta": beta, "n": n, "variant": variant},
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_homotopy(args):
    a = _resolve(args, "a")
    beta = _resolve(args, "beta")
    n = _resolve(args, "n")
    variant = _resolve(args, "variant", "remark1", str)
    num_t = int(_resolve(args, "num_t", 33, int))
    if num_t < 1:
        raise ConfigError(f"--num-t must be at least 1, got {num_t}")
    t_max = _resolve(args, "t_max", math.pi / 2.0)
    order = int(_resolve(args, "order", 4, int))
    path = HomotopyPath.from_dual_pair(_solve_dual(a, beta, n, variant))
    rows = []
    for t in np.linspace(0.0, t_max, num_t):
        point = path_params(path, float(t))
        kv = path_cumulants(path, float(t), order)
        rows.append(
            {
                "t": float(t),
                "a_t": point.a,
                "beta_t": point.beta,
                "mean_t": point.mean,
                "variance_t": point.variance,
                **{f"kappa_{k}": kv.kappa(k) for k in range(3, order + 1)},
            }
        )
    out = _resolve(args, "output", "", str)
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines += [",".join(repr(float(row[k])) for k in header) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    if args.json:
        _emit(args, {"rows": rows})
    else:
        sys.stdout.write(text)
    return 0


def cmd_tomogram(args):
    a = _resolve(args, "a")
    beta = _resolve(args, "beta")
    n = _resolve(args, "n")
    variant = _resolve(args, "variant", "remark1", str)
    t = _resolve(args, "t", 0.0)
    n0 = int(_resolve(args, "n0", 4, int))
    num_z = int(_resolve(args, "num_z", 201, int))
    path = HomotopyPath.from_dual_pair(_solve_dual(a, beta, n, variant))
    kv = path_cumulants(path, t, max(n0, 2))
    tom = build_tomogram(kv, n0, angle=t)
    z = np.linspace(-6.0, 6.0, num_z) * math.sqrt(tom.variance)
    dens = tom.density(z)
    out = _resolve(args, "output", "", str)
    if out:
        with open(out, "w") as fh:
            fh.write("z,density\n")
            for zi, di in zip(z, dens):
                fh.write(f"{float(zi)!r},{float(di)!r}\n")
    results = {
        "variance": tom.variance,
        "gamma": [float(g) for g in tom.gamma],
        "moments": [float(m) for m in tom.moments],
        "min_density": tom.min_density(),
    }
    _emit(args, results)
    return 0


_GNUPLOT_GRID = """# gnuplot companion for a thermoflux grid dump
set datafile separator ','
set view map
set xlabel 'delta epsilon'
set ylabel 'delta beta'
splot '{path}' every ::1 using 1:2:3 with points pt 5 ps 1 palette notitle
"""


def cmd_reconstruct(args):
    a = _resolve(args, "a")
    beta = _resolve(args, "beta")
    n = _resolve(args, "n")
    variant = _resolve(args, "variant", "remark1", str)
    family = _resolve(args, "family", "homotopy", str)
    n0 = int(_resolve(args, "n0", 4, int))
    n_theta = int(_resolve(args, "n_theta", 64, int))
    n_r = int(_resolve(args, "n_r", 96, int))
    grid_points = int(_resolve(args, "grid_points", 41, int))
    n_sigma = _resolve(args, "n_sigma", 6.0)

    if family == "gaussian":
        fl = quasi_fluctuations(ManifoldPoint.from_beta(beta, OscillatorEnsemble(a=a, n=n)), n)
        v, vp = fl.variance_eps, fl.variance_beta
        toms = gaussian_tomogram_family(v, vp, n_theta)
    elif family == "homotopy":
        path = HomotopyPath.from_dual_pair(_solve_dual(a, beta, n, variant))
        toms = homotopy_tomograms(path, n_theta, n0)
        v, vp = path.variance_at(0.0), path.variance_at(math.pi / 2)
    else:
        raise ConfigError(f"family must be 'gaussian' or 'homotopy', got {family!r}")

    h = 2.0 / n  # after the family branch has checked n
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (grid_points, grid_points), n_sigma)
    grid = reconstruct(toms, h, x, y, n_r=n_r)
    grid = dataclasses.replace(grid, diagnostics={**grid.diagnostics, "purity": purity(grid)})

    out = _resolve(args, "output", "", str)
    if out:
        grid.to_csv(out)
        grid.to_json(out + ".json")
        if args.gnuplot:
            with open(out + ".gp", "w") as fh:
                fh.write(_GNUPLOT_GRID.format(path=out))
    results = {
        "h": h,
        "n0": grid.n0,
        "mass": grid.mass(),
        "moment_x2": grid.moment_x(2),
        "moment_y2": grid.moment_y(2),
    }
    _emit(args, results, grid.diagnostics)
    return 0


def cmd_sample(args):
    a = _resolve(args, "a")
    beta = _resolve(args, "beta")
    n = _resolve(args, "n")
    sweeps = int(_resolve(args, "sweeps", 10000, int))
    seed = _seed(args, 0)
    ens = OscillatorEnsemble(a=a, n=n)
    st = ThermoState(beta=beta)
    run = sample_energies(ens, st, sweeps=sweeps, seed=seed)
    out = _resolve(args, "output", "", str)
    if out:
        run.to_csv(out)
    emp = empirical_cumulants(run)
    results = {
        "sweeps": sweeps,
        "seed": seed,
        "k_statistics": [float(v) for v in emp.estimates],
        "standard_errors": [float(v) for v in emp.standard_errors],
    }
    diagnostics = {}
    if args.check:
        kv = energy_cumulants(st, ens, 4)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = np.abs(emp.estimates - kv.values) / emp.standard_errors
        diagnostics["analytic"] = [float(v) for v in kv.values]
        # null where the z-score has no finite value: a standard error of 0,
        # or one so small that the quotient overflows
        diagnostics["z_scores"] = [float(v) if math.isfinite(v) else None for v in z]
    _emit(args, results, diagnostics)
    return 0


def cmd_verify(args):
    suite = _resolve(args, "suite", "all", str)
    seed = _seed(args, 42)
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise ConfigError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'"
            )
    rows = run_suites(names, seed)
    failed = [r for r in rows if not r[2]]
    if args.json:
        _emit(
            args,
            {
                "checks": [
                    {"suite": s, "invariant": i, "passed": ok, "detail": d}
                    for s, i, ok, d in rows
                ]
            },
            {"failed": len(failed)},
        )
    else:
        for s, i, ok, d in rows:
            print(f"{'PASS' if ok else 'FAIL'} {s}.{i} ({d})")
    return 1 if failed else 0


def _add_common(p):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--config", help="key=value config file merged under flags")


def _add_output(p):
    p.add_argument("--output", help="write the main artifact to this path")


def _add_system(p):
    p.add_argument("--a", type=float, help="energy quantum")
    p.add_argument("--beta", type=float, help="inverse temperature")
    p.add_argument("--N", dest="n", type=float, help="particle count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoflux",
        description="Fluctuation toolkit for oscillator ensembles (k_B = 1 internally)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="closed-form mean/variance/entropy")
    _add_common(p)
    _add_system(p)
    p.add_argument("--units", choices=["internal", "cgs"], help="output units")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("cumulants", help="exact energy or fluctuation cumulants")
    _add_common(p)
    _add_output(p)
    _add_system(p)
    p.add_argument("--order", type=int, help="highest cumulant order (<= 20)")
    p.add_argument(
        "--fluctuation", action="store_true", help="cumulants of (E-<E>)/N"
    )
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("dual", help="solve the dual system")
    _add_common(p)
    _add_system(p)
    p.add_argument("--variant", choices=["symmetric", "remark1"])
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("homotopy", help="tabulate the interpolating family")
    _add_common(p)
    _add_output(p)
    _add_system(p)
    p.add_argument("--variant", choices=["symmetric", "remark1"])
    p.add_argument("--num-t", dest="num_t", type=int, help="number of t samples")
    p.add_argument("--t-max", dest="t_max", type=float, help="largest t (default pi/2)")
    p.add_argument("--order", type=int, help="cumulant order per row")
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("tomogram", help="the path's own per-angle tomogram, not the reconstruct family")
    _add_common(p)
    _add_output(p)
    _add_system(p)
    p.add_argument("--variant", choices=["symmetric", "remark1"])
    p.add_argument("--t", type=float, help="tomogram angle")
    p.add_argument("--n0", type=int, help="truncation degree (2..8)")
    p.add_argument("--num-z", dest="num_z", type=int, help="sample count for CSV")
    p.set_defaults(func=cmd_tomogram)

    p = sub.add_parser("reconstruct", help="joint quasiprobability grid")
    _add_common(p)
    _add_output(p)
    _add_system(p)
    p.add_argument("--variant", choices=["symmetric", "remark1"])
    p.add_argument("--family", choices=["gaussian", "homotopy"])
    p.add_argument("--n0", type=int)
    p.add_argument("--n-theta", dest="n_theta", type=int)
    p.add_argument("--n-r", dest="n_r", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--n-sigma", dest="n_sigma", type=float)
    p.add_argument("--gnuplot", action="store_true", help="emit companion plot script")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sample", help="Monte-Carlo energies and k-statistics")
    _add_common(p)
    _add_output(p)
    _add_system(p)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--check", action="store_true", help="z-scores vs analytic")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run invariant suites")
    _add_common(p)
    p.add_argument("--suite", help=f"one of {', '.join(SUITES)} or 'all'")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        # each key must name a value option (not a switch) of this subcommand
        options = {
            k for k, v in vars(args).items()
            if not isinstance(v, bool) and k not in ("func", "command", "config")
        }
        unknown = sorted(set(config) - options)
        if unknown:
            raise ConfigError(
                f"config keys not read by {args.command}: {', '.join(unknown)}"
            )
        args._config = config
        return args.func(args)
    except ThermofluxError as exc:
        if exc.exit_code == 3:
            payload = {"error": type(exc).__name__, "message": str(exc)}
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"config error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
