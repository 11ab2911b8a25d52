"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and nowhere else.  Every expected value is
either a frozen high-precision evaluation of a closed form or produced by
an independent oracle inside the test.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from thermoflux.core import (
    ManifoldPoint,
    OscillatorEnsemble,
    ThermoState,
    energy_stats,
    legendre_phi,
)
from thermoflux.cumulants import (
    c_explicit,
    coefficient_table,
    energy_cumulants,
    finite_difference_cumulant,
    power_sum_check,
    stirling2,
)
from thermoflux.duality import phi, solve_remark1, solve_symmetric, verify_duality
from thermoflux.homotopy import HomotopyPath, path_cumulants, path_params
from thermoflux.quantum import (
    GaussianWavePacket,
    gaussian_evolution_params,
    h_fourier,
    propagate,
    to_profile,
    wigner_coherent,
)
from thermoflux.sampler import empirical_cumulants, sample_energies
from thermoflux.tomography import (
    gaussian_limit,
    gaussian_tomogram_family,
    homotopy_tomograms,
    make_grid,
    purity,
    reconstruct,
)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE C{criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_exact_identity_suite():
    rng = np.random.default_rng(101)
    x = rng.uniform(0.1, 5.0, 100)
    a_arr = rng.uniform(0.2, 3.0, 100)
    worst_var, worst_leg = 0.0, 0.0
    for a, xi in zip(a_arr, x):
        beta = xi / a
        ens = OscillatorEnsemble(a=a, n=1.0)
        st = ThermoState(beta=beta)
        eps = energy_stats(st, ens).mean
        gibbs = math.exp(beta * a) * eps * eps  # Gibbs variance, closed form
        quasi = eps * (eps + a)  # 1/lambda
        worst_var = max(worst_var, abs(gibbs - quasi) / quasi)
        alpha = ManifoldPoint.from_beta(beta, ens)
        _, phi2 = legendre_phi(st, ens)
        worst_leg = max(worst_leg, abs(alpha.lam * phi2 - 1.0))
    ok = worst_var < 1e-12 and worst_leg < 1e-10
    _report(1, ok, f"gibbs-vs-quasi rel {worst_var:.2e} (<1e-12), "
                   f"lambda*phi'' dev {worst_leg:.2e} (<1e-10), 100 points")


def test_c02_coefficient_suite():
    table = coefficient_table(15)
    triple = all(
        table.c(n, m) == c_explicit(n, m) == math.factorial(m - 1) * stirling2(n, m)
        for n in range(1, 16)
        for m in range(1, n + 1)
    )
    psums = all(
        power_sum_check(m, n).consistent
        for m in range(1, 9)
        for n in range(1, 201)
    )
    _report(2, triple and psums,
            "c(n,m) triple equivalence exact for n<=15; "
            "power-sum triple equality exact for m<=8, n<=200")


def test_c03_cumulant_vs_derivative_suite():
    rng = np.random.default_rng(103)
    x = rng.uniform(0.1, 5.0, 20)
    a_arr = rng.uniform(0.2, 3.0, 20)
    worst = 0.0
    for a, xi in zip(a_arr, x):
        st = ThermoState(beta=xi / a)
        ens = OscillatorEnsemble(a=a, n=1.0)
        kv = energy_cumulants(st, ens, 5)
        for order in range(1, 6):
            fd = finite_difference_cumulant(st, ens, order)
            worst = max(worst, abs(fd - kv.kappa(order)) / abs(kv.kappa(order)))
    _report(3, worst < 1e-6,
            f"K_1..K_5 vs Richardson differences of log Z: max rel {worst:.2e} "
            "(<1e-6) at 20 random points")


def test_c04_monte_carlo_oracle():
    ens = OscillatorEnsemble(a=1.0, n=100)
    st = ThermoState(beta=1.0)
    run = sample_energies(ens, st, sweeps=100_000, seed=20240)
    emp = empirical_cumulants(run)
    kv = energy_cumulants(st, ens, 4)
    z = np.abs(emp.estimates - kv.values) / emp.standard_errors
    _report(4, bool(np.all(z < 5.0)),
            f"|k_n - K_n|/SE for n=1..4: max {z.max():.2f} (<5), M=1e5, seed fixed")


def test_c05_duality_suite():
    rng = np.random.default_rng(105)
    x = rng.uniform(0.05, 10.0, 200)
    a_arr = rng.uniform(0.2, 3.0, 200)
    worst_res, worst_prod = 0.0, 0.0
    signs_ok = True
    for a, xi in zip(a_arr, x):
        beta = xi / a
        for solver in (solve_symmetric, solve_remark1):
            pair = solver(a, beta, 128.0)
            worst_res = max(worst_res, *pair.residuals)
            rep = verify_duality(pair)
            worst_prod = max(worst_prod, abs(rep.variance_product_scaled - 1.0))
            if pair.variant == "symmetric":
                signs_ok &= pair.beta_dual * pair.a_dual < 0
            else:
                signs_ok &= pair.a_dual > 0 and pair.beta_dual > 0
    ok = worst_res < 1e-10 and worst_prod < 1e-9 and signs_ok
    _report(5, ok, f"200 random solves, both variants: residuals {worst_res:.2e} "
                   f"(<1e-10), Var*Var'*N^2 dev {worst_prod:.2e} (<1e-9), sign laws hold")


def test_c06_homotopy_suite():
    pair = solve_remark1(1.0, 1.0, 100.0)
    path = HomotopyPath.from_dual_pair(pair)
    p0, p1 = path_params(path, 0.0), path_params(path, math.pi / 2.0)
    end_dev = max(
        abs(p0.a - 1.0), abs(p0.beta - 1.0),
        abs(p1.a - pair.a_dual), abs(p1.beta - pair.beta_dual),
    )
    interp_dev = 0.0
    for t in np.linspace(0.0, math.pi / 2.0, 50):
        kv = path_cumulants(path, float(t), 4)
        interp_dev = max(interp_dev, abs(kv.kappa(2) - path.variance_at(float(t))))
    doubled = HomotopyPath(
        mean=path.mean, mean_dual=path.mean_dual,
        nv=(2 * path.n) * (path.nv / path.n / 2),
        nv_dual=(2 * path.n) * (path.nv_dual / path.n / 2),
        n=2 * path.n,
    )
    cancel = all(
        path_params(doubled, t).a == path_params(path, t).a
        and path_params(doubled, t).beta == path_params(path, t).beta
        for t in (0.0, 0.37, 1.1, math.pi / 2)
    )
    ok = end_dev < 1e-10 and interp_dev < 1e-12 and cancel
    _report(6, ok, f"endpoint dev {end_dev:.2e} (<1e-10), kappa_2 interpolation dev "
                   f"{interp_dev:.2e} (<1e-12) at 50 angles, N-cancellation exact")


def test_c07_tomography_gaussian_roundtrip():
    n = 100.0
    h = 2.0 / n
    alpha = ManifoldPoint.from_energy(1.0, OscillatorEnsemble(a=1.0, n=n))
    v, vp = 1.0 / (n * alpha.lam), alpha.lam / n
    assert v * vp == pytest.approx((h / 2.0) ** 2, rel=1e-14)
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (41, 41), 6.0)
    grid = reconstruct(gaussian_tomogram_family(v, vp, 64), h, x, y, n_r=96)
    ref = gaussian_limit(alpha, n, x, y)
    linf = float(np.abs(grid.values - ref.values).max())
    mass_dev = abs(grid.mass() - 1.0)
    pur = purity(grid)
    ok = linf < 1e-6 and mass_dev < 1e-4 and abs(pur - 1.0) < 1e-3
    _report(7, ok, f"41x41 grid, 64 angles: Linf {linf:.2e} (<1e-6), "
                   f"|mass-1| {mass_dev:.2e} (<1e-4), purity dev {abs(pur - 1):.2e} (<1e-3)")


def test_c08_non_gaussian_tomography():
    n = 100.0
    pair = solve_remark1(1.0, 1.0, n)
    path = HomotopyPath.from_dual_pair(pair)
    toms = homotopy_tomograms(path, 64, 4)
    x, y = make_grid(
        math.sqrt(toms[0].variance), math.sqrt(toms[32].variance), (41, 41), 6.0
    )
    grid = reconstruct(toms, 2.0 / n, x, y, n_r=96)
    worst = 0.0
    for k in range(1, 5):
        worst = max(worst, abs(grid.moment_x(k) - toms[0].moments[k - 1]))
        worst = max(worst, abs(grid.moment_y(k) - toms[32].moments[k - 1]))
    ok = worst < 1e-5
    _report(8, ok, f"n0=4 homotopy family (remark1): marginal moment dev {worst:.2e} (<1e-5)")


def test_c09_quantum_reference_suite():
    h, lam = 0.1, 2.0
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.3, y0=-0.2, h=h))
    four = h_fourier(prof, h)
    half = propagate(prof, math.pi / 2.0, h)
    linf = float(np.abs(half.values - four.values).max())
    width_dev = 0.0
    for t in (math.pi / 6, math.pi / 4, math.pi / 3):
        out = propagate(prof, t, h)
        evo = gaussian_evolution_params(0.3, -0.2, lam, t)
        width_dev = max(width_dev, abs(out.variance() - evo.variance(h)))
    st = GaussianWavePacket(lam=0.75, x0=-0.4, y0=0.2, h=0.3)
    xi, w = np.polynomial.hermite.hermgauss(80)
    q = st.x0 + xi * math.sqrt(st.h / st.lam)
    p = st.y0 + xi * math.sqrt(st.lam * st.h)
    wq = w * math.sqrt(st.h / st.lam) * np.exp(xi**2)
    wp = w * math.sqrt(st.lam * st.h) * np.exp(xi**2)
    vals = wigner_coherent(st, q[:, None], p[None, :])
    mass = float(np.sum(wq[:, None] * wp[None, :] * vals)) / (2 * math.pi * st.h)
    vq = float(np.sum(wq[:, None] * wp[None, :] * (q[:, None] - st.x0) ** 2 * vals)) / (
        2 * math.pi * st.h
    )
    vp_ = float(np.sum(wq[:, None] * wp[None, :] * (p[None, :] - st.y0) ** 2 * vals)) / (
        2 * math.pi * st.h
    )
    prod_dev = abs(vq * vp_ - st.h**2 / 4.0)
    mass_dev = abs(mass - 1.0)
    ok = linf < 1e-8 and width_dev < 1e-6 and mass_dev < 1e-10 and prod_dev < 1e-10
    _report(9, ok, f"pi/2 vs h-Fourier Linf {linf:.2e} (<1e-8), width dev "
                   f"{width_dev:.2e} (<1e-6), Wigner mass dev {mass_dev:.2e} and "
                   f"variance-product dev {prod_dev:.2e} (<1e-10)")


def test_c10_determinism():
    ens = OscillatorEnsemble(a=1.0, n=50)
    st = ThermoState(beta=1.0)
    r1 = sample_energies(ens, st, sweeps=40_000, seed=55)
    r2 = sample_energies(ens, st, sweeps=40_000, seed=55)
    same_seed = np.array_equal(r1.energies, r2.energies)

    r3 = sample_energies(ens, st, sweeps=40_000, seed=55)
    rerun_identical = np.array_equal(r1.energies, r3.energies)

    v, vp = 0.02, 0.005
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (21, 21), 6.0)
    toms = gaussian_tomogram_family(v, vp, 32)
    g1 = reconstruct(toms, 0.02, x, y, n_r=48)
    g2 = reconstruct(toms, 0.02, x, y, n_r=48)
    grid_dev = float(np.abs(g1.values - g2.values).max())

    cmd = [sys.executable, "-m", "thermoflux.cli", "sample", "--a", "1", "--beta",
           "1", "--N", "10", "--sweeps", "200", "--seed", "9", "--json"]
    o1 = subprocess.run(cmd, capture_output=True).stdout
    o2 = subprocess.run(cmd, capture_output=True).stdout
    cli_identical = o1 == o2 and len(o1) > 0

    ok = same_seed and rerun_identical and grid_dev <= 1e-12 and cli_identical
    _report(10, ok, f"three same-seed runs identical; grid re-run dev {grid_dev:.1e} "
                    f"<= 1e-12; CLI output byte-identical")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
