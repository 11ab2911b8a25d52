import argparse
import contextlib
import inspect
import io
import json
import math
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermoflux import cli, errors
from thermoflux.cli import build_parser, main
from thermoflux.verify import SUITES, run_suites


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite number {name} in JSON output")
    return json.loads(text, parse_constant=reject)


def test_stats_text(capsys):
    code, out, _ = _run(["stats", "--a", "1", "--beta", "1", "--N", "1"], capsys)
    assert code == 0
    values = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert float(values["mean"]) == pytest.approx(0.5819767068693265)
    assert float(values["variance"]) == pytest.approx(0.9206735942077924)


def test_stats_json_schema(capsys):
    code, out, _ = _run(
        ["stats", "--a", "1", "--beta", "1", "--N", "1", "--json"], capsys
    )
    doc = json.loads(out)
    assert set(doc) == {"config", "results", "diagnostics", "version"}
    assert doc["results"]["mean"] == pytest.approx(0.5819767068693265)


def test_stats_units_cgs(capsys):
    _, internal, _ = _run(["stats", "--a", "1", "--beta", "1", "--N", "1", "--json"], capsys)
    _, cgs, _ = _run(
        ["stats", "--a", "1", "--beta", "1", "--N", "1", "--json", "--units", "cgs"],
        capsys,
    )
    di, dc = json.loads(internal), json.loads(cgs)
    kb = 1.3806488e-16
    assert dc["results"]["entropy"] == pytest.approx(di["results"]["entropy"] * kb)
    assert dc["results"]["variance_eps"] == pytest.approx(
        di["results"]["variance_eps"] * kb
    )
    assert dc["results"]["mean"] == di["results"]["mean"]  # not k_B-bearing


def test_dual_json(capsys):
    code, out, _ = _run(
        ["dual", "--a", "1", "--beta", "1", "--N", "100", "--variant", "remark1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["a_dual"] == pytest.approx(0.086161269630487557, rel=1e-10)
    assert doc["results"]["beta_dual"] == pytest.approx(0.95924432845858624, rel=1e-10)
    assert max(doc["results"]["residuals"]) < 1e-10


def test_cumulants_output_file(tmp_path, capsys):
    path = tmp_path / "k.csv"
    code, out, _ = _run(
        ["cumulants", "--a", "1", "--beta", "1", "--N", "1", "--order", "3",
         "--output", str(path)],
        capsys,
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "order,value"
    assert float(lines[3].split(",")[1]) == pytest.approx(1.9922947671249874)


def test_homotopy_table(capsys):
    code, out, _ = _run(
        ["homotopy", "--a", "1", "--beta", "1", "--N", "100", "--num-t", "5"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,a_t,beta_t")
    assert len(lines) == 6


def test_homotopy_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = _run(
        ["homotopy", "--a", "1", "--beta", "1", "--N", "100", "--num-t", "7",
         "--order", "6", "--output", str(path)],
        capsys,
    )
    assert code == 0
    assert path.read_text() == out


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _dests(sub):
    return [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]


def test_flag_count():
    assert sum(len(_dests(sub)) for sub in _subparsers().values()) == 66


def test_every_flag_is_read():
    # a flag counts as read where its cmd_* function, or a cli helper it
    # calls, names args.<dest> or "<dest>"; _emit reads --json, main --config
    for name, sub in _subparsers().items():
        func = sub.get_default("func")
        helpers = [
            getattr(cli, n) for n in func.__code__.co_names
            if n.startswith("_") and inspect.isfunction(getattr(cli, n, None))
        ]
        source = "".join(inspect.getsource(f) for f in [func, *helpers])
        for dest in _dests(sub):
            if dest == "config" or (name, dest) == ("dual", "json"):
                continue  # main reads --config; dual prints JSON either way
            assert f"args.{dest}" in source or f'"{dest}"' in source, (name, dest)


@pytest.mark.parametrize(
    "command, flag",
    [
        *[(c, "--units") for c in
          ("cumulants", "dual", "homotopy", "tomogram", "reconstruct", "sample", "verify")],
        *[(c, "--output") for c in ("stats", "dual", "verify")],
    ],
)
def test_removed_flags_exit_2(command, flag, tmp_path, capsys):
    value = "cgs" if flag == "--units" else str(tmp_path / "out.csv")
    system = [] if command == "verify" else ["--a", "1", "--beta", "1", "--N", "10"]
    with pytest.raises(SystemExit) as exc:
        main([command, *system, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err
    assert not (tmp_path / "out.csv").exists()


def test_reconstruct_surface_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--a", "1", "--beta", "1", "--N", "10", "--surface", "raw"])
    assert exc.value.code == 2
    assert "--surface" in capsys.readouterr().err


def test_sample_deterministic_csv(tmp_path, capsys):
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for p in (p1, p2):
        code, _, _ = _run(
            ["sample", "--a", "1", "--beta", "1", "--N", "10", "--sweeps", "500",
             "--seed", "7", "--output", str(p)],
            capsys,
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_check_zscores(capsys):
    code, out, _ = _run(
        ["sample", "--a", "1", "--beta", "1", "--N", "50", "--sweeps", "20000",
         "--seed", "3", "--check", "--json"],
        capsys,
    )
    doc = json.loads(out)
    assert max(abs(z) for z in doc["diagnostics"]["z_scores"]) < 6.0


def test_sample_check_true_deviation_under_5_sigma(capsys):
    # k1 deviates 4.45 sigma here; a noisy SE once read 5.30
    code, out, _ = _run(
        ["sample", "--check", "--json", "--a", "0.5", "--beta", "1.822287173124336",
         "--N", "300", "--sweeps", "100000", "--seed", "1736982378"],
        capsys,
    )
    assert code == 0
    assert all(abs(z) < 5.0 for z in _strict_json(out)["diagnostics"]["z_scores"])


def test_reconstruct_writes_artifacts(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, out, _ = _run(
        ["reconstruct", "--a", "1", "--beta", "1", "--N", "100",
         "--family", "gaussian", "--n-theta", "32", "--grid-points", "21",
         "--n-r", "48", "--output", str(path), "--gnuplot", "--json"],
        capsys,
    )
    assert code == 0
    assert path.exists()
    header = json.loads((tmp_path / "grid.csv.json").read_text())
    assert header["diagnostics"]["purity"] == pytest.approx(1.0, abs=1e-3)
    assert (tmp_path / "grid.csv.gp").read_text().startswith("# gnuplot companion")
    doc = json.loads(out)
    assert doc["results"]["mass"] == pytest.approx(1.0, abs=1e-4)


def test_tomogram_command(tmp_path, capsys):
    path = tmp_path / "tom.csv"
    code, out, _ = _run(
        ["tomogram", "--a", "1", "--beta", "1", "--N", "100", "--t", "0.0",
         "--n0", "4", "--output", str(path), "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["variance"] == pytest.approx(0.009206735942077922, rel=1e-10)
    assert len(path.read_text().splitlines()) == 202


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta=2.0\na=1.0\nN=1\n# comment line\n")
    code, out, _ = _run(["stats", "--config", str(cfg), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["epsilon"] == pytest.approx(1.0 / (np.e**2 - 1.0))
    # flags win over config
    code, out, _ = _run(
        ["stats", "--config", str(cfg), "--beta", "1.0", "--json"], capsys
    )
    assert json.loads(out)["results"]["mean"] == pytest.approx(0.5819767068693265)


def test_missing_parameter_exit_2(capsys):
    code, _, err = _run(["stats", "--a", "1", "--beta", "1"], capsys)
    assert code == 2
    assert "--N".lower() in err.lower() or "n" in err.lower()


def test_divergent_config_exit_2(capsys):
    code, _, err = _run(["stats", "--a", "-1", "--beta", "1", "--N", "1"], capsys)
    assert code == 2
    assert "beta*a" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--n-r", "0"],
        ["reconstruct", "--n-r", "-3"],
        ["reconstruct", "--grid-points", "1"],
        ["reconstruct", "--grid-points", "0"],
        ["homotopy", "--num-t", "0"],
        ["homotopy", "--num-t", "-2"],
        # an infinite particle count
        pytest.param(["sample", "--N", "inf", "--sweeps", "200"], id="sample-N-inf"),
        pytest.param(["stats", "--N", "inf", "--json"], id="stats-N-inf"),
        # totals numpy cannot draw, and sweep counts above 2**24
        pytest.param(["sample", "--N", "1e300", "--sweeps", "200"], id="sample-N-1e300"),
        pytest.param(
            ["sample", "--N", "1e18", "--beta", "0.001", "--sweeps", "200"], id="sample-N-1e18"
        ),
        pytest.param(["sample", "--sweeps", "100000000000000"], id="sample-sweeps-1e14"),
        # numpy's Gauss-Laguerre weights overflow from 187 nodes
        ["reconstruct", "--n-r", "187"],
        ["reconstruct", "--n-r", "400"],
    ],
)
def test_bad_sizes_exit_2(argv, capsys):
    # the case's own flags come last, so they win over the defaults
    code, out, err = _run(argv[:1] + ["--a", "1", "--beta", "1", "--N", "10"] + argv[1:], capsys)
    assert code == 2
    assert err.startswith("config error:") and out == ""


def test_sample_particle_count_above_2_pow_20(capsys):
    code, out, _ = _run(
        ["sample", "--a", "1", "--beta", "1", "--N", "1048577", "--sweeps", "200", "--json"],
        capsys,
    )
    assert code == 0
    assert _strict_json(out)["results"]["k_statistics"][0] > 0


# every error class, with the exit code and output stream it maps to
_ERROR_EXITS = [
    (errors.ConfigError, 2),
    (errors.DivergentPartition, 2),
    (errors.DomainError, 2),
    (errors.OrderTooLarge, 2),
    (errors.InsufficientSamples, 2),
    (errors.NoBracket, 3),
    (errors.QuadratureFailure, 3),
    (errors.DegeneratePoint, 3),
    (errors.GridTooSmall, 3),
    (errors.IllConditioned, 3),
]


@pytest.mark.parametrize("cls, code", _ERROR_EXITS, ids=[c.__name__ for c, _ in _ERROR_EXITS])
def test_error_class_exit_code(cls, code, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise cls("forced")

    monkeypatch.setattr(cli, "energy_stats", fail)
    got, out, err = _run(["stats", "--a", "1", "--beta", "1", "--N", "1", "--json"], capsys)
    assert got == code
    if code == 3:
        assert err == ""
        assert json.loads(out) == {"error": cls.__name__, "message": "forced"}
    else:
        assert out == "" and err == "config error: forced\n"


def test_error_classes_are_all_mapped():
    def concrete(cls):
        subs = cls.__subclasses__()
        return [c for s in subs for c in concrete(s)] if subs else [cls]

    assert sorted(c.__name__ for c in concrete(errors.ThermofluxError)) == sorted(
        c.__name__ for c, _ in _ERROR_EXITS
    )


@pytest.mark.parametrize(
    "argv, codes",
    [
        # epsilon underflows to 0 and the remark1 dual quantum overflows
        pytest.param(["stats", "--beta", "800"], (2, 3), id="stats"),
        pytest.param(["dual", "--beta", "800"], (2, 3), id="dual"),
        # epsilon is subnormal, so lambda = 1/(eps (eps + a)) overflows; at
        # the other extreme eps ~ 1/beta is so large that lambda underflows
        pytest.param(["stats", "--beta", "720"], (2, 3), id="stats-720"),
        pytest.param(["stats", "--beta", "1e-200"], (2, 3), id="stats-1e-200"),
        # the remark1 path: a_t ~ 1e84 at beta = 200 (representable), and an
        # order-4 cumulant past the largest double at beta = 400
        pytest.param(["homotopy", "--beta", "200"], (0,), id="homotopy-200"),
        pytest.param(["homotopy", "--beta", "400"], (2, 3), id="homotopy-400"),
        pytest.param(["reconstruct", "--beta", "200"], (0, 2, 3), id="reconstruct-200"),
        pytest.param(["reconstruct", "--beta", "400"], (0, 2, 3), id="reconstruct-400"),
        # the symmetric dual: variances past the double range at 720 and 800,
        # beta' underflows to 0 at 1e4 and 1e300
        *[
            pytest.param(
                ["dual", "--variant", "symmetric", "--beta", beta], (2, 3),
                id=f"dual-symmetric-{beta}",
            )
            for beta in ("720", "800", "1e4", "1e300")
        ],
        # an infinite beta is refused before it reaches the JSON config echo
        pytest.param(["cumulants", "--beta", "inf", "--json"], (2,), id="cumulants-beta-inf"),
    ],
)
def test_large_beta_typed_error(argv, codes, capsys):
    code, _, err = _run(argv + ["--a", "1", "--N", "10"], capsys)
    assert code in codes
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, codes",
    [
        # n**2 underflows at N = 1e-300; the higher path cumulants overflow
        pytest.param(["dual", "--N", "1e-300"], (0,), id="dual-N-1e-300"),
        pytest.param(["homotopy", "--N", "1e-300"], (2, 3), id="homotopy-N-1e-300"),
        pytest.param(["tomogram", "--N", "1e-300"], (2, 3), id="tomogram-N-1e-300"),
        pytest.param(["reconstruct", "--N", "1e-300"], (2, 3), id="reconstruct-N-1e-300"),
        # h = 2/N must not be formed before N is checked
        pytest.param(["reconstruct", "--N", "0"], (2,), id="reconstruct-N-0"),
        # eps * (eps + a) underflows to 0
        pytest.param(["stats", "--a", "1e-300", "--beta", "1e300"], (2, 3), id="stats-a-1e-300"),
        # n**k underflows to 0 (the quotient would be Infinity), and at the
        # other end n * kappa_k overflows from order 13 on
        pytest.param(
            ["cumulants", "--N", "1e-300", "--fluctuation", "--json"], (2, 3),
            id="cumulants-fluctuation-N-1e-300",
        ),
        pytest.param(
            ["cumulants", "--N", "1e300", "--order", "20", "--json"], (2, 3),
            id="cumulants-N-1e300",
        ),
        # n * lam underflows to 0, so 1/(n lam) is no double
        *[
            pytest.param(
                [command, *family, "--beta", "4.5e-123", "--N", "4.5e-123", "--json"], (2, 3),
                id=f"{command}-n-lam-underflow",
            )
            for command, family in (("stats", []), ("reconstruct", ["--family", "gaussian"]))
        ],
        # beta*a = +inf passes the convergence check; beta itself must be finite
        pytest.param(
            ["sample", "--a=-1", "--beta=-inf", "--N", "1", "--sweeps", "200", "--json"], (2,),
            id="sample-beta-minus-inf",
        ),
        # occupations near 1e300: too large to draw, or their power sums overflow
        pytest.param(
            ["sample", "--beta", "1e-300", "--N", "1", "--sweeps", "200", "--json"], (2, 3),
            id="sample-k-statistics-overflow",
        ),
        # total occupations near 1e19: past numpy's negative-binomial range
        pytest.param(["sample", "--beta", "1e-18", "--sweeps", "200"], (2,), id="sample-beta-1e-18"),
    ],
)
def test_tiny_value_typed_error(argv, codes, capsys):
    code, _, err = _run(argv[:1] + ["--a", "1", "--beta", "1", "--N", "10"] + argv[1:], capsys)
    assert code in codes
    assert "Traceback" not in err


def test_sample_check_zero_standard_error(capsys):
    # every sampled energy is 0 at beta*a = 700, so each standard error is 0
    # and a z-score has no finite value: it is null, not Infinity
    code, out, _ = _run(
        ["sample", "--a", "1", "--beta", "700", "--N", "5", "--sweeps", "500",
         "--check", "--json"],
        capsys,
    )
    assert code == 0
    doc = _strict_json(out)
    assert doc["results"]["standard_errors"] == [0.0] * 4
    assert doc["diagnostics"]["z_scores"] == [None] * 4


@pytest.mark.parametrize("command", ["dual", "homotopy", "tomogram", "reconstruct"])
def test_config_variant_checked(command, tmp_path, capsys):
    # a config file bypasses the argparse choices of --variant
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=1\nbeta=1\nN=10\nvariant=bogus\n")
    code, out, err = _run([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("config error:") and "bogus" in err and out == ""


_SYSTEM_CONFIG = "a=1\nbeta=1\nN=10\nunits=cgs\n"


@pytest.mark.parametrize(
    "argv, key",
    [
        (["sample"], "sweep"),  # misspelt --sweeps
        (["cumulants", "--order", "2"], "units"),  # cumulants has no --units
    ],
)
def test_config_key_not_read_is_refused(argv, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SYSTEM_CONFIG + "sweep=5\n")
    code, out, err = _run([*argv, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("config error:") and key in err and out == ""


def test_config_keys_of_the_subcommand_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SYSTEM_CONFIG)
    code, out, _ = _run(["stats", "--config", str(cfg), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["results"]["entropy_units"] == "k_B units erg/K"


def test_reconstruct_reports_one_mass(capsys):
    code, out, _ = _run(
        ["reconstruct", "--a", "0.5", "--beta", "2", "--N", "10", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["mass"] == doc["diagnostics"]["mass"]


@pytest.mark.parametrize("n_theta", [33, 63, 64, 65])
def test_reconstruct_odd_angle_count(n_theta, capsys):
    # an odd count has no tomogram at pi/2, where the grid's y extent is read
    code, out, _ = _run(
        ["reconstruct", "--a", "1", "--beta", "1", "--N", "100", "--n-theta", str(n_theta),
         "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["diagnostics"]["purity"] == pytest.approx(1.0130256903452057, rel=1e-12)


def test_numerical_failure_exit_3(capsys):
    # homotopy table through the degenerate angle
    code, out, _ = _run(
        ["homotopy", "--a", "1", "--beta", "1", "--N", "100", "--t-max", "3.1",
         "--num-t", "9"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["error"] == "DegeneratePoint"


def test_verify_subcommand(capsys):
    code, out, _ = _run(["verify", "--suite", "coefficients"], capsys)
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_verify_suite_passes(name):
    failed = [row for row in run_suites([name], 42) if not row[2]]
    assert failed == []


def test_verify_failed_invariant_exit_1(monkeypatch, capsys):
    monkeypatch.setitem(SUITES, "broken", lambda seed: [("always-fails", False, "forced")])
    code, out, _ = _run(["verify", "--suite", "broken"], capsys)
    assert code == 1
    assert out.strip() == "FAIL broken.always-fails (forced)"


def test_byte_identical_output():
    cmd = [sys.executable, "-m", "thermoflux.cli", "dual", "--a", "1", "--beta",
           "1", "--N", "100", "--variant", "symmetric"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.stdout == r2.stdout and r1.returncode == 0


# --a, --beta and --N: the edge values of the double range and any finite float
_EDGE_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300, 1.0]
_SYSTEM_VALUE = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats())
# each subcommand with its own flags at a small resolution
_SUBCOMMANDS = st.sampled_from([
    ["stats"],
    ["cumulants", "--order", "20"],
    ["cumulants", "--order", "6", "--fluctuation"],
    ["dual", "--variant", "remark1"],
    ["dual", "--variant", "symmetric"],
    ["homotopy", "--num-t", "5"],
    ["homotopy", "--num-t", "5", "--variant", "symmetric", "--order", "8"],
    ["tomogram", "--num-z", "11", "--n0", "8"],
    ["tomogram", "--num-z", "11", "--variant", "symmetric", "--t", "1"],
    ["reconstruct", "--n-theta", "32", "--n-r", "8", "--grid-points", "9"],
    ["reconstruct", "--family", "gaussian", "--n-theta", "32", "--n-r", "8",
     "--grid-points", "9"],
    ["sample", "--sweeps", "200"],
    ["sample", "--sweeps", "200", "--check"],
])


def _run_redirected(argv):
    # capsys is not reset between the examples of one @given test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_SEED = st.integers(-2, 2**64)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    command=_SUBCOMMANDS, a=_SYSTEM_VALUE, beta=_SYSTEM_VALUE, n=_SYSTEM_VALUE, seed=_SEED
)
@example(command=["sample", "--sweeps", "200"], a=1.0, beta=1.0, n=3.0, seed=-1)
# the largest radial rule numpy can build, and the smallest it cannot
@example(
    command=["reconstruct", "--n-theta", "32", "--n-r", "186", "--grid-points", "9"],
    a=1.0, beta=1.0, n=100.0, seed=-1,
)
@example(
    command=["reconstruct", "--n-theta", "32", "--n-r", "187", "--grid-points", "9"],
    a=1.0, beta=1.0, n=100.0, seed=-1,
)
def test_exit_code_contract(command, a, beta, n, seed):
    # 0 ok, 2 config, 3 numerical: never an uncaught exception, and every
    # JSON document on stdout is strict JSON (no NaN or Infinity)
    argv = command[:1] + [f"--a={a!r}", f"--beta={beta!r}", f"--N={n!r}", "--json"]
    if command[0] == "sample":
        argv.append(f"--seed={seed}")
    code, out, _ = _run_redirected(argv + command[1:])
    assert code in (0, 2, 3)
    if code == 2:
        assert out == ""
    else:
        _strict_json(out)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(suite=st.sampled_from(sorted(SUITES)), seed=_SEED)
@example(suite="identities", seed=-1)
def test_verify_exit_code_contract(suite, seed):
    # verify alone may exit 1 (an invariant failed)
    code, out, _ = _run_redirected(["verify", "--json", "--suite", suite, f"--seed={seed}"])
    assert code in (0, 1, 2, 3)
    if code != 2:
        _strict_json(out)


def _value_options(sub):
    # the options a config file may name: those that take a value
    return [a for a in sub._actions if a.nargs is None]


def test_every_value_option_has_a_default():
    # only the system parameters, the config path and the output path have none
    for name, sub in _subparsers().items():
        for action in _value_options(sub):
            if action.dest not in ("a", "beta", "n", "config", "output"):
                assert action.default is not None, (name, action.dest)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["stats"], "units=cgs\n"),
        (["cumulants", "--fluctuation"], "order=9\n"),
        (["dual"], "variant=symmetric\n"),
        (["homotopy"], "num-t=4\norder=6\nt_max=1.25\nvariant=symmetric\n"),
        (["tomogram"], "t=0.5\nn0=6\nnum_z=11\n"),
        (["reconstruct"], "family=gaussian\nn_theta=32\nn_r=24\ngrid_points=9\n"),
        (["sample", "--check"], "sweeps=300\nseed=11\n"),
        (["verify"], "suite=identities\nseed=3\n"),
    ],
)
def test_config_file_matches_the_same_flags(argv, config, tmp_path, capsys):
    # the same run from a file and from flags prints the same document,
    # config echo included, apart from the path of the file itself
    system = "" if argv[0] == "verify" else "a=1\nbeta=2\nN=10\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(system + config)
    flags = []
    for line in (system + config).splitlines():
        key, _, value = line.partition("=")
        flags += [f"--{key.replace('_', '-')}", value]
    code, from_file, _ = _run([*argv, "--config", str(cfg), "--json"], capsys)
    assert code == 0
    code, from_flags, _ = _run([*argv, *flags, "--json"], capsys)
    assert code == 0
    doc = _strict_json(from_file)
    assert doc["config"].pop("config") == str(cfg)
    assert doc == _strict_json(from_flags)


@pytest.mark.parametrize("variant", ["remark1", "symmetric"])
def test_flag_beats_config_even_at_its_default(variant, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    other = "symmetric" if variant == "remark1" else "remark1"
    cfg.write_text(f"a=1\nbeta=1\nN=10\nvariant={other}\n")
    code, out, _ = _run(["dual", "--config", str(cfg), "--variant", variant], capsys)
    assert code == 0
    doc = _strict_json(out)
    assert doc["results"]["variant"] == doc["config"]["variant"] == variant


@pytest.mark.parametrize(
    "command, line, value",
    [
        ("stats", "units=si", "si"),
        ("reconstruct", "family=bogus", "bogus"),
        ("verify", "suite=nope", "nope"),
        ("tomogram", "n0=4.5", "4.5"),
        ("sample", "sweeps=", "''"),
        ("stats", "beta=hot", "hot"),
    ],
)
def test_config_value_checked_by_its_option(command, line, value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(("" if command == "verify" else "a=1\nbeta=1\nN=10\n") + line + "\n")
    code, out, err = _run([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("config error:") and value in err and out == ""


def test_config_names_every_bad_key_and_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=1\nbeta=1\nN=10\nsweep=5\nunits=cgs\nseed=x\norder=4.5\n")
    code, out, err = _run(["sample", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    for name in ("sweep", "units", "order", "seed", "'x'"):
        assert name in err


def test_missing_system_parameter_names_the_flag(capsys):
    code, out, err = _run(["reconstruct", "--a", "1", "--beta", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "config error: missing required parameter --N\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tomogram", "--t", "inf"],
        ["tomogram", "--t", "nan"],
        ["tomogram", "--num-z", "-1"],
        ["homotopy", "--t-max", "inf"],
        ["reconstruct", "--n-theta", "0"],
    ],
)
def test_bad_angles_and_counts_exit_2(argv, capsys):
    code, out, err = _run(argv[:1] + ["--a", "1", "--beta", "1", "--N", "10"] + argv[1:], capsys)
    assert code == 2
    assert err.startswith("config error:") and out == ""


# config values: text no option accepts and the edges of the double range;
# an option with choices also takes every choice of every option.  A size
# takes only -1, 0 or 1 from these
_CONFIG_VALUES = ["", "x", "nan", "inf", "-1", "0", "1", "1e999"]
_CHOICES = sorted(
    {str(c) for sub in _subparsers().values() for a in _value_options(sub) for c in a.choices or ()}
)
# each subcommand's config at a small resolution
_CONFIG_BASES = {
    "stats": "", "cumulants": "", "dual": "", "homotopy": "num_t=5\n", "tomogram": "num_z=11\n",
    "reconstruct": "n_theta=32\nn_r=8\ngrid_points=9\n", "sample": "sweeps=200\n",
}


@st.composite
def _config_files(draw):
    command = draw(st.sampled_from(sorted(_CONFIG_BASES) + ["verify"]))
    # --output is left out: its value names a file to write
    options = {
        a.dest: a for a in _value_options(_subparsers()[command])
        if a.dest not in ("config", "output")
    }
    pairs = []
    for key in draw(st.lists(st.sampled_from(sorted(options) + ["not_an_option"]), max_size=3)):
        choices = _CHOICES if key in options and options[key].choices else []
        pairs.append((key, draw(st.sampled_from(_CONFIG_VALUES + choices))))
    if command == "verify":
        base = "suite=identities\n"
    else:
        base = "a=1\nbeta=1\nN=10\n" + _CONFIG_BASES[command]
    # a later line for the same key overrides an earlier one
    return command, base + "".join(f"{k}={v}\n" for k, v in pairs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_config_files())
# an infinite angle, a negative sample count and no angles at all
@example(case=("tomogram", "a=1\nbeta=1\nN=10\nt=inf\n"))
@example(case=("homotopy", "a=1\nbeta=1\nN=10\nt_max=1e999\n"))
@example(case=("tomogram", "a=1\nbeta=1\nN=10\nnum_z=-1\n"))
@example(case=("reconstruct", "a=1\nbeta=1\nN=10\nn_theta=0\n"))
def test_config_exit_code_contract(case):
    # as test_exit_code_contract, with the values read from a config file
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/run.cfg"
        with open(cfg, "w") as fh:
            fh.write(text)
        code, out, err = _run_redirected([command, "--config", cfg, "--json"])
    assert code in ((0, 1, 2, 3) if command == "verify" else (0, 2, 3))
    if code == 2:
        assert out == "" and err.startswith("config error:")
    else:
        _strict_json(out)
