"""Self-check suites orchestrating the module invariants.

Each suite returns a list of (name, passed, detail) tuples; the CLI
`verify` subcommand renders them one line per invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ManifoldPoint,
    OscillatorEnsemble,
    ThermoState,
    energy_stats,
    legendre_phi,
    quasi_fluctuations,
    specific_entropy,
)
from .cumulants import (
    c_explicit,
    coefficient_table,
    energy_cumulants,
    finite_difference_cumulant,
    power_sum_check,
    stirling2,
)
from .duality import phi, solve_remark1, solve_symmetric, verify_duality
from .homotopy import HomotopyPath, path_cumulants, path_params
from .quantum import (
    GaussianWavePacket,
    gaussian_evolution_params,
    h_fourier,
    propagate,
    to_profile,
    wigner_coherent,
)
from .sampler import empirical_cumulants, sample_energies
from .tomography import (
    gaussian_limit,
    gaussian_tomogram_family,
    homotopy_tomograms,
    make_grid,
    purity,
    reconstruct,
)


def _random_points(rng, count, lo=0.1, hi=5.0):
    """Random (a, beta) pairs with beta*a uniform in [lo, hi]."""
    x = rng.uniform(lo, hi, count)
    a = rng.uniform(0.2, 3.0, count)
    return a, x / a


def suite_identities(seed: int):
    rng = np.random.default_rng(seed)
    a_arr, b_arr = _random_points(rng, 100)
    worst_var, worst_leg, worst_rt = 0.0, 0.0, 0.0
    for a, b in zip(a_arr, b_arr):
        ens = OscillatorEnsemble(a=a, n=1.0)
        st = ThermoState(beta=b)
        alpha = ManifoldPoint.from_beta(b, ens)
        gibbs = energy_stats(st, ens).variance
        quasi = 1.0 / alpha.lam
        worst_var = max(worst_var, abs(gibbs - quasi) / quasi)
        _, phi2 = legendre_phi(st, ens)
        worst_leg = max(worst_leg, abs(alpha.lam * phi2 - 1.0))
        back = ManifoldPoint.from_energy(alpha.epsilon, ens)
        worst_rt = max(worst_rt, abs(back.beta - b) / b)
    results = [
        ("gibbs-vs-quasi-variance", worst_var < 1e-12, f"max rel {worst_var:.2e}"),
        ("legendre-involution", worst_leg < 1e-10, f"max |lam*phi''-1| {worst_leg:.2e}"),
        ("manifold-roundtrip", worst_rt < 1e-12, f"max rel {worst_rt:.2e}"),
    ]
    worst_prod = 0.0
    for a, b in zip(a_arr[:20], b_arr[:20]):
        alpha = ManifoldPoint.from_beta(b, OscillatorEnsemble(a=a, n=1.0))
        fl = quasi_fluctuations(alpha, 57.0)
        worst_prod = max(
            worst_prod, abs(fl.variance_eps * fl.variance_beta * 57.0**2 - 1.0)
        )
    results.append(
        ("uncertainty-product", worst_prod < 1e-14, f"max dev {worst_prod:.2e}")
    )
    s_ens = OscillatorEnsemble(a=1.0, n=1.0)
    s2_ok = all(
        specific_entropy(rng.uniform(0.01, 10.0), s_ens)[2] < 0 for _ in range(100)
    )
    results.append(("entropy-concavity", s2_ok, "s'' < 0 at 100 random points"))
    return results


def suite_coefficients(seed: int = 0):
    table = coefficient_table(15)
    triple = all(
        table.c(n, m) == c_explicit(n, m) == math.factorial(m - 1) * stirling2(n, m)
        for n in range(1, 16)
        for m in range(1, n + 1)
    )
    seeds = all(
        table.c(n, 1) == 1 and table.c(n, n) == math.factorial(n - 1)
        for n in range(1, 16)
    )
    psums = all(
        power_sum_check(m, n).consistent
        for m in range(1, 9)
        for n in (1, 2, 3, 5, 10, 50, 137, 200)
    )
    return [
        ("c-triple-equivalence", triple, "recurrence = explicit = (m-1)!*S2, n <= 15"),
        ("c-seed-values", seeds, "c(n,1)=1, c(n,n)=(n-1)!"),
        ("power-sum-triple", psums, "direct = bernoulli = c-form, m <= 8, n <= 200"),
    ]


def suite_derivatives(seed: int):
    rng = np.random.default_rng(seed)
    a_arr, b_arr = _random_points(rng, 20)
    worst = 0.0
    for a, b in zip(a_arr, b_arr):
        ens = OscillatorEnsemble(a=a, n=1.0)
        st = ThermoState(beta=b)
        kv = energy_cumulants(st, ens, 5)
        for order in range(1, 6):
            fd = finite_difference_cumulant(st, ens, order)
            worst = max(worst, abs(fd - kv.kappa(order)) / abs(kv.kappa(order)))
    return [("cumulants-vs-logZ-derivatives", worst < 1e-6, f"max rel {worst:.2e}")]


def suite_duality(seed: int):
    rng = np.random.default_rng(seed)
    a_arr, b_arr = _random_points(rng, 200, lo=0.05, hi=10.0)
    worst_res, worst_prod, worst_phi = 0.0, 0.0, 0.0
    signs_ok = True
    for a, b in zip(a_arr, b_arr):
        for solver in (solve_symmetric, solve_remark1):
            pair = solver(a, b, 64.0)
            rep = verify_duality(pair)
            worst_res = max(worst_res, *pair.residuals)
            worst_prod = max(worst_prod, abs(rep.variance_product_scaled - 1.0))
            if pair.variant == "symmetric":
                y = pair.beta_dual * pair.a_dual
                signs_ok &= y < 0 and pair.beta_dual > 0 and pair.a_dual < 0
                worst_phi = max(worst_phi, abs(phi(y) * phi(b * a) - 1.0))
            else:
                signs_ok &= pair.a_dual > 0 and pair.beta_dual > 0
    return [
        ("equation-residuals", worst_res < 1e-10, f"max {worst_res:.2e}"),
        ("variance-product", worst_prod < 1e-9, f"max dev {worst_prod:.2e}"),
        ("sign-laws", signs_ok, "symmetric: b'a'<0; remark1: all positive"),
        ("phi-reciprocal", worst_phi < 1e-12, f"max dev {worst_phi:.2e}"),
    ]


def suite_homotopy(seed: int):
    rng = np.random.default_rng(seed)
    worst_end, worst_interp = 0.0, 0.0
    cancel_ok = True
    for _ in range(5):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.3, 2.0)
        n = float(rng.integers(10, 1000))
        pair = solve_remark1(a, b, n)
        path = HomotopyPath.from_dual_pair(pair)
        p0 = path_params(path, 0.0)
        p1 = path_params(path, math.pi / 2.0)
        worst_end = max(
            worst_end,
            abs(p0.a - a) / a,
            abs(p0.beta - b) / b,
            abs(p1.a - pair.a_dual) / abs(pair.a_dual),
            abs(p1.beta - pair.beta_dual) / pair.beta_dual,
        )
        for t in np.linspace(0.0, math.pi / 2.0, 50):
            kv = path_cumulants(path, float(t), 4)
            worst_interp = max(worst_interp, abs(kv.kappa(2) - path.variance_at(t)))
        half = HomotopyPath(
            mean=path.mean,
            mean_dual=path.mean_dual,
            nv=(2.0 * n) * (path.nv / n / 2.0),
            nv_dual=(2.0 * n) * (path.nv_dual / n / 2.0),
            n=2.0 * n,
        )
        q = path_params(half, 0.7)
        p = path_params(path, 0.7)
        cancel_ok &= (q.a == p.a) and (q.beta == p.beta)
    return [
        ("endpoint-recovery", worst_end < 1e-10, f"max rel {worst_end:.2e}"),
        ("kappa2-interpolation", worst_interp < 1e-12, f"max dev {worst_interp:.2e}"),
        ("n-cancellation", cancel_ok, "(n, v) and (2n, v/2) coincide exactly"),
    ]


def suite_sampler(seed: int):
    ens = OscillatorEnsemble(a=1.0, n=100)
    st = ThermoState(beta=1.0)
    run = sample_energies(ens, st, sweeps=100_000, seed=seed)
    emp = empirical_cumulants(run)
    kv = energy_cumulants(st, ens, 4)
    z = np.abs(emp.estimates - kv.values) / emp.standard_errors
    lattice_ok = bool(np.all(run.energies >= 0) and np.all(run.energies % ens.a == 0))
    return [
        ("z-scores", bool(np.all(z < 5.0)), f"max |z| {z.max():.2f}"),
        ("energy-lattice", lattice_ok, "all energies are multiples of a, >= 0"),
    ]


def suite_tomography(seed: int = 0):
    n = 100.0
    alpha = ManifoldPoint.from_energy(1.0, OscillatorEnsemble(a=1.0, n=n))
    v, vp = 1.0 / (n * alpha.lam), alpha.lam / n
    x, y = make_grid(math.sqrt(v), math.sqrt(vp), (41, 41), 6.0)
    grid = reconstruct(gaussian_tomogram_family(v, vp, 64), 2.0 / n, x, y)
    ref = gaussian_limit(alpha, n, x, y)
    linf = float(np.abs(grid.values - ref.values).max())
    mass_dev = abs(grid.mass() - 1.0)
    pur = purity(grid)
    results = [
        ("gaussian-roundtrip", linf < 1e-6, f"Linf {linf:.2e}"),
        ("unit-mass", mass_dev < 1e-4, f"|mass-1| {mass_dev:.2e}"),
        ("purity", abs(pur - 1.0) < 1e-3, f"purity {pur:.6f}"),
    ]
    pair = solve_remark1(1.0, 1.0, n)
    path = HomotopyPath.from_dual_pair(pair)
    toms = homotopy_tomograms(path, 64, 4)
    gx, gy = make_grid(
        math.sqrt(toms[0].variance), math.sqrt(toms[32].variance), (41, 41), 6.0
    )
    g2 = reconstruct(toms, 2.0 / n, gx, gy)
    err = 0.0
    for k in range(1, 5):
        err = max(err, abs(g2.moment_x(k) - toms[0].moments[k - 1]))
        err = max(err, abs(g2.moment_y(k) - toms[32].moments[k - 1]))
    results.append(("marginal-moments-n0-4", err < 1e-5, f"max dev {err:.2e}"))
    return results


def suite_quantum(seed: int = 0):
    h, lam = 0.1, 2.0
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.3, y0=-0.2, h=h))
    half = propagate(prof, math.pi / 2.0, h)
    four = h_fourier(prof, h)
    linf = float(np.abs(half.values - four.values).max())
    results = [("halfturn-vs-fourier", linf < 1e-8, f"Linf {linf:.2e}")]
    worst_w = 0.0
    for t in (math.pi / 6, math.pi / 4, math.pi / 3):
        out = propagate(prof, t, h)
        evo = gaussian_evolution_params(0.3, -0.2, lam, t)
        worst_w = max(worst_w, abs(out.variance() - evo.variance(h)))
    results.append(("width-evolution", worst_w < 1e-6, f"max dev {worst_w:.2e}"))
    norm_dev = abs(propagate(prof, 1.1, h).norm_sq() - 1.0)
    results.append(("unitarity", norm_dev < 1e-8, f"|norm-1| {norm_dev:.2e}"))
    worst_p = max(
        _pauli_deviation(beta_a, n) for beta_a in (0.5, 1.0, 3.0) for n in (10.0, 100.0)
    )
    results.append(
        ("pauli-correspondence", worst_p < 1e-12, f"max dev {worst_p:.2e} of the peak")
    )
    return results


def _pauli_deviation(beta_a: float, n: float) -> float:
    """Largest deviation, as a fraction of the peak, of the quantum objects
    at hbar = h = 2/n and width lam = ManifoldPoint.lam from the thermal
    ones at a = 1: the packet's Wigner function from 2 pi h times
    gaussian_limit, and |psi|^2 of the packet propagated to t = k pi/16
    from the Gaussian tomogram at that angle, for k = 0 .. 15."""
    h = 2.0 / n
    alpha = ManifoldPoint.from_beta(beta_a, OscillatorEnsemble(a=1.0, n=n))
    fl = quasi_fluctuations(alpha, n)
    x, y = make_grid(math.sqrt(fl.variance_eps), math.sqrt(fl.variance_beta), (41, 41), 6.0)
    thermal = 2.0 * math.pi * h * gaussian_limit(alpha, n, x, y).values
    packet = GaussianWavePacket(lam=alpha.lam, x0=0.0, y0=0.0, h=h)
    wigner = wigner_coherent(packet, x[:, None], y[None, :])
    worst = float(np.abs(thermal - wigner).max() / thermal.max())

    prof = to_profile(packet)
    for tom in gaussian_tomogram_family(fl.variance_eps, fl.variance_beta, 16):
        wave = propagate(prof, tom.angle, h)
        ref = tom.density(wave.nodes)
        worst = max(worst, float(np.abs(np.abs(wave.values) ** 2 - ref).max() / ref.max()))
    return worst


SUITES = {
    "identities": suite_identities,
    "coefficients": suite_coefficients,
    "derivatives": suite_derivatives,
    "duality": suite_duality,
    "homotopy": suite_homotopy,
    "sampler": suite_sampler,
    "tomography": suite_tomography,
    "quantum": suite_quantum,
}


def run_suites(names, seed: int):
    """Run the named suites; returns [(suite, invariant, ok, detail), ...]."""
    rows = []
    for name in names:
        for inv, ok, detail in SUITES[name](seed):
            rows.append((name, inv, bool(ok), detail))
    return rows
