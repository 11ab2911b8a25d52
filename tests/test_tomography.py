import dataclasses
import json
import math

import numpy as np
import pytest

from thermoflux.core import ManifoldPoint, OscillatorEnsemble
from thermoflux.cumulants import CumulantVector, _binomial_table, cumulants_to_moments
from thermoflux.duality import solve_remark1, solve_symmetric
from thermoflux import tomography
from thermoflux.errors import DomainError, GridTooSmall, QuadratureFailure
from thermoflux.homotopy import HomotopyPath, path_cumulants
from thermoflux.quadrature import radial_rule, uniform_angles
from thermoflux.tomography import (
    QuasiDensityGrid,
    Tomogram,
    _hermite_moment_table,
    build_tomogram,
    gaussian_limit,
    gaussian_tomogram,
    gaussian_tomogram_family,
    homotopy_tomograms,
    make_grid,
    purity,
    reconstruct,
)


def _gauss_hermite_prob(n):
    """Nodes/weights of numpy's hermgauss rescaled to the standard normal density."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def _quad_moment(tom, k, n_nodes=80):
    """Independent moment oracle: probabilists' GH against the tomogram's
    own Gaussian factor (exact for the polynomial part)."""
    s, w = _gauss_hermite_prob(n_nodes)
    z = s * math.sqrt(tom.variance)
    dens_over_gauss = tom.density(z) * math.sqrt(2 * math.pi * tom.variance) * np.exp(s * s / 2)
    return float(np.sum(w * z**k * dens_over_gauss))


def _centered(values):
    return CumulantVector(order=len(values), values=np.asarray(values, dtype=float))


def test_gaussian_tomogram_is_normal_density():
    tom = gaussian_tomogram(0.02)
    z = np.linspace(-0.5, 0.5, 101)
    ref = np.exp(-z * z / 0.04) / math.sqrt(2 * math.pi * 0.02)
    assert np.allclose(tom.density(z), ref, rtol=1e-14)
    assert np.all(tom.gamma == 0.0)


def test_tomogram_unit_mass():
    tom = build_tomogram(_centered([0.0, 0.01, 2e-4, 3e-5]), 4)
    assert _quad_moment(tom, 0) == pytest.approx(1.0, abs=1e-10)


def test_tomogram_moment_matching():
    kv = _centered([0.0, 0.009207, 1.99e-4, 2.6e-4])
    tom = build_tomogram(kv, 4)
    for k in range(1, 5):
        assert _quad_moment(tom, k) == pytest.approx(tom.moments[k - 1], abs=1e-10)
    # third moment equals the third cumulant for a centered variable
    assert _quad_moment(tom, 3) == pytest.approx(1.99e-4, abs=1e-10)


def test_tomogram_order8_matching():
    rng = np.random.default_rng(4)
    v = 0.5
    kappa = np.zeros(8)
    kappa[1] = v
    kappa[2:] = rng.normal(scale=0.02, size=6) * v ** (np.arange(3, 9) / 2.0)
    tom = build_tomogram(_centered(kappa), 8)
    for k in range(1, 9):
        assert _quad_moment(tom, k, 120) == pytest.approx(tom.moments[k - 1], abs=1e-12)


def test_tomogram_homogeneity():
    tom = build_tomogram(_centered([0.0, 0.01, 1e-4, 2e-5]), 4)
    z = np.linspace(-0.4, 0.4, 41)
    assert np.allclose(tom.density_scaled(z, 2.0), tom.density(z / 2.0) / 2.0, rtol=1e-15)
    assert np.allclose(tom.density_scaled(z, -1.0), tom.density(-z), rtol=1e-15)


def test_char_function_vs_quadrature():
    tom = build_tomogram(_centered([0.0, 0.01, 2e-4, 1e-4]), 4)
    s, w = _gauss_hermite_prob(120)
    z = s * math.sqrt(tom.variance)
    poly = tom.density(z) * math.sqrt(2 * math.pi * tom.variance) * np.exp(s * s / 2)
    for k in (0.0, 1.3, 7.7, -4.1):
        ft = np.sum(w * poly * np.exp(1j * k * z))
        assert abs(ft - tom.char_function(k)) < 1e-12


def test_negativity_diagnostic():
    mild = build_tomogram(_centered([0.0, 1.0, 0.05, 0.0]), 4)
    wild = build_tomogram(_centered([0.0, 1.0, 3.0, 0.0]), 4)
    assert mild.min_density() > -1e-6
    assert wild.min_density() < -1e-3


def test_build_tomogram_preconditions():
    with pytest.raises(DomainError):
        build_tomogram(_centered([0.0, -1.0]), 2)
    with pytest.raises(DomainError):
        build_tomogram(_centered([0.0, 1.0]), 9)
    with pytest.raises(DomainError):
        build_tomogram(_centered([0.5, 1.0]), 2)  # not centered
    with pytest.raises(DomainError):
        build_tomogram(_centered([0.0, 1.0]), 4)  # too short


def test_gaussian_limit_closed_form():
    n = 100.0
    alpha = ManifoldPoint.from_energy(1.0, OscillatorEnsemble(a=1.0, n=n))
    x, y = make_grid(math.sqrt(0.02), math.sqrt(0.005), (41, 41), 6.0)
    grid = gaussian_limit(alpha, n, x, y)
    assert grid.values[20, 20] == pytest.approx(n / (2 * math.pi), rel=1e-14)
    assert grid.mass() == pytest.approx(1.0, abs=1e-8)
    assert grid.moment_x(2) == pytest.approx(0.02, rel=1e-6)
    assert grid.moment_y(2) == pytest.approx(0.005, rel=1e-6)
    assert grid.moment_x(2) * grid.moment_y(2) == pytest.approx((grid.h / 2) ** 2, rel=1e-5)
    assert purity(grid) == pytest.approx(1.0, abs=1e-3)


def _manual_gaussian_grid(vx, vy, h, shape=(61, 61), n_sigma=7.0):
    x, y = make_grid(math.sqrt(vx), math.sqrt(vy), shape, n_sigma)
    vals = np.exp(-0.5 * (x[:, None] ** 2 / vx + y[None, :] ** 2 / vy)) / (
        2 * math.pi * math.sqrt(vx * vy)
    )
    return QuasiDensityGrid(x=x, y=y, values=vals, h=h, n0=2, diagnostics={})


def test_purity_scaling():
    h = 0.02
    sat = _manual_gaussian_grid(0.02, 0.005, h)  # sqrt(vx*vy) = h/2
    assert purity(sat) == pytest.approx(1.0, abs=1e-6)
    wide = _manual_gaussian_grid(0.04, 0.01, h)  # var product = h^2
    assert purity(wide) == pytest.approx(0.5, abs=1e-6)


def test_purity_grid_guard():
    grid = _manual_gaussian_grid(0.02, 0.005, 0.02, (41, 41), 3.0)
    with pytest.raises(GridTooSmall):
        purity(grid)


def test_purity_refuses_nan_grid():
    grid = _manual_gaussian_grid(0.02, 0.005, 0.02)
    grid.values[30, 30] = math.nan
    with pytest.raises(GridTooSmall):
        purity(grid)


def test_reconstruct_gaussian_roundtrip_small():
    # angle aliasing decays geometrically: ~4e-4 at 32 angles, ~4e-8 at 48
    n = 100.0
    alpha = ManifoldPoint.from_energy(1.0, OscillatorEnsemble(a=1.0, n=n))
    v, vp = 0.02, 0.005
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (31, 31), 6.0)
    grid = reconstruct(gaussian_tomogram_family(v, vp, 48), 2.0 / n, x, y, n_r=64)
    ref = gaussian_limit(alpha, n, x, y)
    assert np.abs(grid.values - ref.values).max() < 1e-6
    assert grid.mass() == pytest.approx(1.0, abs=1e-4)


def test_reconstruct_marginals_match_tomograms():
    v, vp = 0.02, 0.005
    toms = gaussian_tomogram_family(v, vp, 48)
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (41, 41), 6.0)
    grid = reconstruct(toms, 0.02, x, y)
    marg_x = grid.marginal_x()
    assert np.allclose(marg_x, toms[0].density(x), atol=1e-7)
    marg_y = grid.marginal_y()
    assert np.allclose(marg_y, toms[24].density(y), atol=1e-7)


def test_reconstruct_symmetry_even_family():
    # with only even cumulants the grid is symmetric under (x,y) -> (-x,-y)
    v, vp = 0.02, 0.005
    toms = gaussian_tomogram_family(v, vp, 32)
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (33, 33), 6.0)
    grid = reconstruct(toms, 0.02, x, y, n_r=64)
    assert np.allclose(grid.values, grid.values[::-1, ::-1], atol=1e-12)


def _brute_force_reconstruct(toms, x, y, n_r):
    """Reference backprojection: the full per-angle phase array
    exp(i r (x cos t + y sin t)) summed over every signed radial node, one
    angle at a time, with the Gauss-Laguerre rule rebuilt per angle."""
    total = np.zeros((len(x), len(y)), dtype=complex)
    for tom in toms:
        t_nodes, t_weights = np.polynomial.laguerre.laggauss(n_r)
        r = np.sqrt(2.0 * t_nodes / tom.variance)
        w = t_weights / tom.variance
        sv = math.sqrt(tom.variance)
        poly_neg = np.ones(n_r, dtype=complex)
        poly_pos = np.ones(n_r, dtype=complex)
        for m in range(3, tom.n0 + 1):
            poly_neg = poly_neg + tom.gamma[m] * (-1j * r * sv) ** m
            poly_pos = poly_pos + tom.gamma[m] * (1j * r * sv) ** m
        r_signed = np.concatenate([r, -r])
        coeff = np.concatenate([w * poly_neg, w * poly_pos])
        u = math.cos(tom.angle) * x[:, None] + math.sin(tom.angle) * y[None, :]
        phase = np.exp(1j * np.multiply.outer(r_signed, u.ravel()))
        total += (coeff @ phase).reshape(len(x), len(y))
    return (total * (math.pi / len(toms)) / (4.0 * math.pi**2)).real


@pytest.mark.parametrize(
    "family, n0",
    [
        pytest.param("gaussian", 2, id="gaussian"),
        pytest.param("homotopy", 4, id="homotopy"),
        pytest.param("homotopy", 8, id="homotopy-n0-8"),
    ],
)
def test_reconstruct_matches_brute_force(family, n0):
    # 37 angles: the last angle block is partial
    if family == "gaussian":
        toms = gaussian_tomogram_family(0.02, 0.005, 37)
    else:
        path = HomotopyPath.from_dual_pair(solve_remark1(1.0, 1.0, 10.0))
        toms = homotopy_tomograms(path, 37, n0)
    x, y = make_grid(
        math.sqrt(toms[0].variance), math.sqrt(toms[18].variance), (17, 23), 6.0
    )
    ref = _brute_force_reconstruct(toms, x, y, 40)
    grid = reconstruct(toms, 0.2, x, y, n_r=40)
    assert np.abs(grid.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_reconstruct_preconditions():
    v, vp = 0.02, 0.005
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (33, 33), 6.0)
    with pytest.raises(DomainError):
        reconstruct(gaussian_tomogram_family(v, vp, 16), 0.02, x, y)
    with pytest.raises(DomainError):
        reconstruct(gaussian_tomogram_family(v, vp, 32), -1.0, x, y)
    toms = gaussian_tomogram_family(v, vp, 32)
    with pytest.raises(DomainError):
        reconstruct(toms, 0.02, x, y, n_r=0)
    with pytest.raises(DomainError):
        reconstruct(toms, 0.02, x[:1], y)
    toms = toms[1:] + toms[:1]  # angles no longer increase from 0
    with pytest.raises(DomainError):
        reconstruct(toms, 0.02, x, y)


def test_reconstruct_refuses_zero_variance_tomogram():
    v, vp = 0.02, 0.005
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (33, 33), 6.0)
    toms = gaussian_tomogram_family(v, vp, 32)
    toms[5] = Tomogram(
        angle=toms[5].angle, variance=0.0, n0=2, gamma=np.zeros(3), moments=np.zeros(2)
    )
    with pytest.raises(DomainError):
        reconstruct(toms, 0.02, x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reconstruct_refuses_non_finite_tomogram(bad):
    path = HomotopyPath.from_dual_pair(solve_remark1(1.0, 1.0, 100.0))
    toms = homotopy_tomograms(path, 64, 4)
    gamma = toms[7].gamma.copy()
    gamma[3] = bad
    toms[7] = dataclasses.replace(toms[7], gamma=gamma)
    x, y = make_grid(math.sqrt(toms[0].variance), math.sqrt(toms[32].variance), (41, 41), 6.0)
    with pytest.raises(QuadratureFailure):
        reconstruct(toms, 0.02, x, y)


def test_reconstruct_builds_one_radial_rule(monkeypatch):
    calls = []

    def counted(variance, n):
        calls.append(np.shape(variance))
        return radial_rule(variance, n)

    monkeypatch.setattr(tomography, "radial_rule", counted)
    v, vp = 0.02, 0.005
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (33, 33), 6.0)
    reconstruct(gaussian_tomogram_family(v, vp, 64), 0.02, x, y)
    assert calls == [(64, 1)]


def test_radial_rule_column_matches_scalar_calls():
    variances = [0.02, 0.005, 3.7, 1e-3, 1.0, 12345.6789]
    r, w = radial_rule(np.array(variances)[:, None], 96)
    assert r.shape == w.shape == (len(variances), 96)
    for i, v in enumerate(variances):
        r_i, w_i = radial_rule(v, 96)
        assert r[i].tobytes() == r_i.tobytes()
        assert w[i].tobytes() == w_i.tobytes()


@pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, [[1.0], [0.0]]])
def test_radial_rule_refuses_non_positive_variance(variance):
    with pytest.raises(DomainError):
        radial_rule(variance, 8)


def test_homotopy_reconstruction_moment_fidelity():
    pair = solve_remark1(1.0, 1.0, 100.0)
    path = HomotopyPath.from_dual_pair(pair)
    toms = homotopy_tomograms(path, 64, 4)
    x, y = make_grid(math.sqrt(toms[0].variance), math.sqrt(toms[32].variance), (41, 41), 6.0)
    grid = reconstruct(toms, 0.02, x, y)
    for k in range(1, 5):
        assert grid.moment_x(k) == pytest.approx(toms[0].moments[k - 1], abs=1e-7)
        assert grid.moment_y(k) == pytest.approx(toms[32].moments[k - 1], abs=1e-7)
    # relative fidelity on the dominant even moments
    assert grid.moment_x(2) == pytest.approx(toms[0].moments[1], rel=1e-5)
    assert grid.moment_y(2) == pytest.approx(toms[32].moments[1], rel=1e-5)


def test_grid_exports(tmp_path):
    n = 50.0
    alpha = ManifoldPoint.from_energy(1.0, OscillatorEnsemble(a=1.0, n=n))
    x, y = make_grid(0.1, 0.1, (11, 11), 6.0)
    grid = gaussian_limit(alpha, n, x, y)
    csv_path = tmp_path / "grid.csv"
    grid.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 11 * 11
    first = lines[1].split(",")
    assert float(first[0]) == grid.x[0] and float(first[2]) == grid.values[0, 0]
    json_path = tmp_path / "grid.json"
    grid.to_json(json_path)
    header = json.loads(json_path.read_text())
    assert header["grid"]["nx"] == 11
    assert header["h"] == pytest.approx(2.0 / n)
    assert "diagnostics" in header


def _looped_grid_csv(grid) -> str:
    # the former one-write-per-value loop
    lines = ["x,y,value\n"]
    for i, xi in enumerate(grid.x):
        for j, yj in enumerate(grid.y):
            lines.append(f"{float(xi)!r},{float(yj)!r},{float(grid.values[i, j])!r}\n")
    return "".join(lines)


def test_grid_csv_bytes_match_looped_writer(tmp_path):
    x = np.array([-1e300, -0.0, 5e-324])
    y = np.array([-2.5, 0.1])
    values = np.array([[-0.0, 5e-324], [1e300, -3.75], [-1e-310, 0.3]])
    hand = QuasiDensityGrid(x=x, y=y, values=values, h=0.02, n0=2, diagnostics={})
    n = 50.0
    alpha = ManifoldPoint.from_energy(1.0, OscillatorEnsemble(a=1.0, n=n))
    xg, yg = make_grid(0.1, 0.07, (11, 9), 6.0)
    for grid in (hand, gaussian_limit(alpha, n, xg, yg)):
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        assert path.read_bytes() == _looped_grid_csv(grid).encode()


# Scalar reference of the moment match: one angle at a time, as the
# tomograms were built before the row-vectorised match.


def _hermite_moment_coeff(n, k):
    """E[S^n He_k(S)] for standard normal S: n! / (2^j j!) with j = (n-k)/2."""
    if k > n or (n - k) % 2:
        return 0.0
    j = (n - k) // 2
    return math.factorial(n) / (2**j * math.factorial(j))


def _scalar_moments(values):
    """Raw moments by the Bell recursion, one cumulant vector at a time."""
    n = len(values)
    m = np.zeros(n + 1)
    m[0] = 1.0
    for j in range(1, n + 1):
        m[j] = sum(math.comb(j - 1, k) * values[k] * m[j - 1 - k] for k in range(j))
    return m[1:]


def _scalar_match(values, n0):
    """(variance, gamma, moments) of one angle's cumulants."""
    v = float(values[1])
    moments = _scalar_moments(values[:n0].copy())
    gamma = np.zeros(n0 + 1)
    sv = math.sqrt(v)
    for n in range(3, n0 + 1):
        acc = sv**n * _hermite_moment_coeff(n, 0)
        for k in range(3, n):
            acc += sv**n * gamma[k] * _hermite_moment_coeff(n, k)
        gamma[n] = (moments[n - 1] - acc) / (sv**n * _hermite_moment_coeff(n, n))
    return v, gamma, moments


def _assert_family_equals_scalar(toms, angles, rows, n0):
    assert len(toms) == len(angles) == len(rows)
    ref = [_scalar_match(np.asarray(r, dtype=float), n0) for r in rows]
    got = {
        "angle": np.array([t.angle for t in toms]),
        "variance": np.array([t.variance for t in toms]),
        "gamma": np.array([t.gamma for t in toms]),
        "moments": np.array([t.moments for t in toms]),
    }
    want = {
        "angle": np.asarray(angles, dtype=float),
        "variance": np.array([r[0] for r in ref]),
        "gamma": np.array([r[1] for r in ref]),
        "moments": np.array([r[2] for r in ref]),
    }
    for key in got:
        # equal bits, signed zeros included
        assert np.array_equal(got[key], want[key]), key
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("n_theta", [32, 37, 64])
def test_gaussian_family_matches_scalar_match(n_theta):
    angles = uniform_angles(n_theta)
    for v, v_dual in ((0.02, 0.005), (3.7, 1e-3), (1.0, 1.0)):
        rows = [[0.0, v * math.cos(t) ** 2 + v_dual * math.sin(t) ** 2] for t in angles]
        _assert_family_equals_scalar(gaussian_tomogram_family(v, v_dual, n_theta), angles, rows, 2)


def _consistent_rows(path, angles, order):
    k0 = path_cumulants(path, 0.0, order)
    k90 = path_cumulants(path, math.pi / 2.0, order)
    rows = []
    for t in angles:
        c, s = math.cos(t), math.sin(t)
        values = np.zeros(order)
        values[1] = path.variance_at(t)
        for m in range(3, order + 1):
            values[m - 1] = k0.kappa(m) * c**m + k90.kappa(m) * s**m
        rows.append(values)
    return rows


@pytest.mark.parametrize("n_theta", [32, 37, 64])
@pytest.mark.parametrize(
    "solver",
    [
        pytest.param(solve_remark1, id="solve_remark1-consistent"),
        pytest.param(solve_symmetric, id="solve_symmetric-consistent"),
    ],
)
def test_homotopy_family_matches_scalar_match(solver, n_theta):
    angles = uniform_angles(n_theta)
    for a, beta, n in ((1.0, 1.0, 10.0), (0.5, 2.0, 100.0), (2.0, 1.5, 1000.0)):
        path = HomotopyPath.from_dual_pair(solver(a, beta, n))
        for n0 in range(2, 9):
            rows = _consistent_rows(path, angles, max(n0, 2))
            toms = homotopy_tomograms(path, n_theta, n0)
            _assert_family_equals_scalar(toms, angles, rows, n0)


def test_build_tomogram_matches_scalar_match():
    rng = np.random.default_rng(12)
    for i in range(40):
        values = rng.normal(scale=0.1, size=8)
        values[0] = -0.0 if i % 2 else 0.0
        values[1] = abs(values[1]) + 1e-3
        for n0 in range(2, 9):
            tom = build_tomogram(_centered(values), n0, angle=0.25)
            _assert_family_equals_scalar([tom], [0.25], [values], n0)


def test_cumulants_to_moments_matches_scalar_recursion():
    rng = np.random.default_rng(13)
    for order in (1, 2, 8, 20):
        values = rng.normal(size=order)
        got = cumulants_to_moments(_centered(values))
        assert got.tobytes() == _scalar_moments(values).tobytes()


def test_match_tables_are_cached_read_only():
    for table in (_hermite_moment_table(8), _binomial_table(20)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
    assert _hermite_moment_table(8) is _hermite_moment_table(8)
    assert _binomial_table(20) is _binomial_table(20)
    n0 = 8
    assert np.array_equal(
        _hermite_moment_table(n0),
        [[_hermite_moment_coeff(n, k) for k in range(n0 + 1)] for n in range(n0 + 1)],
    )
