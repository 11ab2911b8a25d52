"""Output checks for the benchmark, computed apart from thermoflux.

Nothing here imports the program.  Every reference value is rebuilt from
the oscillator closed forms or from the series

    K_n = N * a^n * sum_{j>=1} j^(n-1) * exp(-j*beta*a),

the n-th cumulant of the total energy of N oscillators with quantum a at
inverse temperature beta.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

# Tolerances, each set from the accuracy the method reaches on the
# benchmark's inputs (see README.md) and tight enough that the corruptions
# in selftest_checks.py are rejected.
GRID_PEAK_TOL = 1e-6  # |R - R_ref| / max R_ref, gaussian family
MASS_TOL = 1e-6  # |mass - 1|
PURITY_TOL = 1e-6  # |purity - 1|, gaussian family
MOMENT_SD_TOL = 2e-4  # marginal moment error in units of sd^k, homotopy family
REL_TOL = 1e-9  # closed-form identities and recomputed statistics
Z_MAX = 5.0  # k-statistic distance from K_n in reported standard errors
SE_FACTOR = 2.0  # jackknife SE vs Fisher's leading-order value
NORM_TOL = 1e-8  # |norm^2 - 1| after propagation


@functools.cache
def _eulerian(n: int) -> tuple:
    """Eulerian numbers A(n, 0..n-1) (A(0, 0) = 1), exact."""
    if n == 0:
        return (1,)
    return tuple(
        sum((-1) ** i * math.comb(n + 1, i) * (k + 1 - i) ** n for i in range(k + 1))
        for k in range(n)
    )


def cumulant_series(a: float, beta: float, n: float, order: int) -> np.ndarray:
    """K_1..K_order of the total energy, the level series summed in closed
    form: sum_{j>=1} j^(k-1) q^j = q A_{k-1}(q) / (1-q)^k, q = e^(-beta a),
    with A the Eulerian polynomials (positive coefficients, no cancellation).
    """
    x = beta * a
    q = math.exp(-x)
    one_minus_q = -math.expm1(-x)
    out = np.empty(order)
    for k in range(1, order + 1):
        poly = sum(c * q**i for i, c in enumerate(_eulerian(k - 1)))
        out[k - 1] = n * a**k * q * poly / one_minus_q**k
    return out


def fluctuation_series(a: float, beta: float, n: float, order: int) -> np.ndarray:
    """Cumulants of (E - <E>)/N: kappa_1 = 0, kappa_k = K_k / N^k."""
    k = cumulant_series(a, beta, n, order) / n ** np.arange(1, order + 1)
    k[0] = 0.0
    return k


def remark1_dual(a: float, beta: float):
    """(a', beta') of the remark1 dual: y = 2 log(sinh(u)/u), u = beta*a/2."""
    u = 0.5 * beta * a
    y = 2.0 * math.log(math.sinh(u) / u)
    a_dual = beta * math.expm1(y)
    return a_dual, y / a_dual


def specific_mean_var(a: float, beta: float, n: float):
    """Mean and variance of the specific energy E/N (either sign of beta*a)."""
    x = beta * a
    em = math.expm1(x)
    return a / em, a * a * (em + 1.0) / (em * em) / n


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield []
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


@functools.cache
def _partition_terms(n: int) -> tuple:
    """(number of set partitions, {block size: multiplicity}) per integer
    partition of n."""
    terms = []
    for parts in _partitions(n):
        count = math.factorial(n)
        mults = {size: parts.count(size) for size in set(parts)}
        for size, mult in mults.items():
            count //= math.factorial(size) ** mult * math.factorial(mult)
        terms.append((count, mults))
    return tuple(terms)


def moments_from_cumulants(kappa) -> np.ndarray:
    """Raw moments m_1..m_n by the set-partition sum (Faa di Bruno).

    kappa has shape (..., n); the sum runs over its last axis.
    """
    kappa = np.asarray(kappa, dtype=float)
    out = np.zeros(kappa.shape)
    for n in range(1, kappa.shape[-1] + 1):
        for count, mults in _partition_terms(n):
            term = np.full(kappa.shape[:-1], float(count))
            for size, mult in mults.items():
                term = term * kappa[..., size - 1] ** mult
            out[..., n - 1] += term
    return out


def k_statistics_exact(multiples, a: float) -> np.ndarray:
    """k_1..k_4 of energies a*multiples, from exact integer power sums."""
    q = np.asarray(multiples, dtype=np.int64)
    m = len(q)
    if m * float(q.max()) ** 4 >= 2.0**62:
        raise ValueError("power sums would overflow int64")
    s1, s2, s3, s4 = (int(np.sum(q**p)) for p in range(1, 5))
    k1 = Fraction(s1, m)
    k2 = Fraction(m * s2 - s1 * s1, m * (m - 1))
    k3 = Fraction(2 * s1**3 - 3 * m * s1 * s2 + m * m * s3, m * (m - 1) * (m - 2))
    k4 = Fraction(
        -6 * s1**4
        + 12 * m * s1 * s1 * s2
        - 3 * m * (m - 1) * s2 * s2
        - 4 * m * (m + 1) * s1 * s3
        + m * m * (m + 1) * s4,
        m * (m - 1) * (m - 2) * (m - 3),
    )
    return np.array([float(k) * a**i for i, k in enumerate((k1, k2, k3, k4), 1)])


def fisher_standard_errors(K, m: int) -> np.ndarray:
    """Leading-order standard errors of k_1..k_4 (Fisher), K = K_1..K_8."""
    k2, k3, k4, k5, k6, k8 = K[1], K[2], K[3], K[4], K[5], K[7]
    var = np.array(
        [
            k2,
            k4 + 2 * k2**2,
            k6 + 9 * k2 * k4 + 9 * k3**2 + 6 * k2**3,
            k8
            + 16 * k2 * k6
            + 48 * k3 * k5
            + 34 * k4**2
            + 72 * k2**2 * k4
            + 144 * k2 * k3**2
            + 24 * k2**4,
        ]
    )
    return np.sqrt(var / m)


# -- reconstruct ------------------------------------------------------------


def grid_from_csv(text: str):
    """(x, y, values) from the x,y,value CSV the CLI writes, x-major."""
    data = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    x = np.unique(data[:, 0])
    y = np.unique(data[:, 1])
    if len(x) * len(y) != len(data):
        raise ValueError("grid CSV is not a full rectangular lattice")
    return x, y, data[:, 2].reshape(len(x), len(y))


def _mass(x, y, values) -> float:
    return float(values.sum() * (x[1] - x[0]) * (y[1] - y[0]))


def check_gaussian_grid(x, y, values, a, beta, n, report) -> list:
    """Gaussian family: grid vs N/(2pi) exp(-N(lam x^2 + y^2/lam)/2),
    unit mass, and purity 1 (this Gaussian saturates the bound)."""
    errors = []
    eps = a / math.expm1(beta * a)
    lam = 1.0 / (eps * (eps + a))
    ref = n / (2.0 * math.pi) * np.exp(
        -0.5 * n * (lam * x[:, None] ** 2 + y[None, :] ** 2 / lam)
    )
    dev = float(np.abs(values - ref).max() / ref.max())
    if not dev <= GRID_PEAK_TOL:
        errors.append(f"grid deviates from the closed form by {dev:.3e} of the peak")
    mass = _mass(x, y, values)
    if not abs(mass - 1.0) <= MASS_TOL:
        errors.append(f"mass {mass!r} is not 1")
    dx, dy = x[1] - x[0], y[1] - y[0]
    pur = 2.0 * math.pi * (2.0 / n) * float((values**2).sum()) * dx * dy
    if not abs(pur - 1.0) <= PURITY_TOL:
        errors.append(f"purity of the grid {pur!r} is not 1")
    reported = report["diagnostics"]["purity"]
    if not abs(reported - pur) <= REL_TOL:
        errors.append(f"reported purity {reported!r} differs from the grid's {pur!r}")
    return errors


def marginal_moments(axis, marginal, order=4) -> np.ndarray:
    d = axis[1] - axis[0]
    return np.array([float((axis**k * marginal).sum() * d) for k in range(1, order + 1)])


def check_homotopy_grid(x, y, values, a, beta, n, report) -> list:
    """Homotopy family: marginal moments 1-4 against the source oscillator
    (x axis) and the remark1 dual (y axis), in units of sd^k; unit mass."""
    errors = []
    a_dual, beta_dual = remark1_dual(a, beta)
    dx, dy = x[1] - x[0], y[1] - y[0]
    for label, axis, marginal, (qa, qb) in (
        ("source", x, values.sum(axis=1) * dy, (a, beta)),
        ("dual", y, values.sum(axis=0) * dx, (a_dual, beta_dual)),
    ):
        ref = moments_from_cumulants(fluctuation_series(qa, qb, n, 4))
        sd = math.sqrt(ref[1])
        got = marginal_moments(axis, marginal)
        dev = max(abs(got[k] - ref[k]) / sd ** (k + 1) for k in range(4))
        if not dev <= MOMENT_SD_TOL:
            errors.append(f"{label} marginal moments off by {dev:.3e} sd^k")
    mass = _mass(x, y, values)
    if not abs(mass - 1.0) <= MASS_TOL:
        errors.append(f"mass {mass!r} is not 1")
    return errors


# -- sample -----------------------------------------------------------------


def check_sample(energies, a, beta, n, report) -> list:
    """k-statistics vs the series, SEs vs Fisher, energies on the lattice
    a*{0, 1, 2, ...}, and reported k-statistics vs a recount."""
    errors = []
    res = report["results"]
    k_rep = np.array(res["k_statistics"], dtype=float)
    se = np.array(res["standard_errors"], dtype=float)
    m = len(energies)
    if m != res["sweeps"]:
        errors.append(f"{m} energies dumped for {res['sweeps']} sweeps")
    K = cumulant_series(a, beta, n, 8)
    z = np.abs(k_rep - K[:4]) / se
    if not np.all(z <= Z_MAX):
        errors.append(f"k-statistics {z.round(2).tolist()} standard errors from K_n")
    ratio = se / fisher_standard_errors(K, m)
    if not np.all((ratio >= 1.0 / SE_FACTOR) & (ratio <= SE_FACTOR)):
        errors.append(f"standard errors are {ratio.round(3).tolist()} x Fisher's")
    q = np.asarray(energies, dtype=float) / a
    lattice = np.rint(q)
    if not (np.all(lattice >= 0) and np.abs(q - lattice).max() <= REL_TOL * max(1.0, q.max())):
        errors.append("dumped energies are not non-negative multiples of a")
        return errors
    own = k_statistics_exact(lattice, a)
    scale = np.maximum(np.abs(own), se)
    if not np.all(np.abs(k_rep - own) <= REL_TOL * scale):
        errors.append("reported k-statistics differ from those of the dumped energies")
    return errors


# -- analytic ---------------------------------------------------------------


def _rel(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def _check_point(pt) -> list:
    """Closed forms, cumulants, dual solves and homotopy table of one point."""
    errors = []
    a, beta, n = pt["a"], pt["beta"], pt["n"]
    K = cumulant_series(a, beta, n, 20)
    if not _rel(pt["energy_cumulants"], K) <= REL_TOL:
        errors.append(f"K_1..K_20 off by {_rel(pt['energy_cumulants'], K):.2e}")
    kappa = pt["fluctuation_cumulants"]
    if not (kappa[0] == 0.0 and _rel(kappa[1:], K[1:] / n ** np.arange(2, 21)) <= REL_TOL):
        errors.append("fluctuation cumulants off the series")
    mean, var = specific_mean_var(a, beta, n)
    if not _rel([pt["mean"], pt["variance"]], [n * mean, n * n * var]) <= REL_TOL:
        errors.append("closed-form mean/variance off")

    a_d, b_d = pt["remark1"]
    mean_d, var_d = specific_mean_var(a_d, b_d, n)
    if not _rel([a_d, b_d], remark1_dual(a, beta)) <= REL_TOL:
        errors.append("remark1 dual parameters off the closed form")
    if not _rel(mean_d, beta) <= REL_TOL:
        errors.append(f"remark1 dual mean {mean_d!r} != beta {beta!r}")
    if not _rel(var * var_d * n * n, 1.0) <= REL_TOL:
        errors.append(f"Var*Var'*N^2 = {var * var_d * n * n!r} for remark1")
    if not _rel(pt["remark1_product"], var * var_d * n * n) <= REL_TOL:
        errors.append("reported remark1 variance product differs")

    a_s, b_s = pt["symmetric"]
    mean_s = specific_mean_var(a_s, b_s, n)[0]
    if not _rel(mean * mean_s, b_s * beta) <= REL_TOL:
        errors.append("symmetric dual misses eps*eps' = beta*beta'")
    if not _rel((b_s * beta) ** 2 * math.exp(beta * a + b_s * a_s), 1.0) <= REL_TOL:
        errors.append("symmetric dual misses (beta*beta')^2 e^(beta a + beta' a') = 1")

    t, a_t, b_t, mean_t, var_t = np.array(pt["table"]).T
    em = np.expm1(a_t * b_t)
    want_mean = mean * np.cos(t) + beta * np.sin(t)
    want_var = var * np.cos(t) ** 2 + var_d * np.sin(t) ** 2
    got = [mean_t, var_t, a_t / em, a_t * a_t * (em + 1.0) / (em * em) / n]
    if not _rel(got, [want_mean, want_var] * 2) <= REL_TOL:
        errors.append("homotopy table does not reproduce mean_t, variance_t")
    return errors


def check_points(points) -> list:
    """Analytic points (dicts built by the analytic op); the tomogram
    moments of all points are checked in one batch."""
    kaps = []
    for pt in points:
        errors = _check_point(pt)
        if errors:
            return errors + [f"at a={pt['a']!r} beta={pt['beta']!r} N={pt['n']!r}"]
        a, beta, n = pt["a"], pt["beta"], pt["n"]
        a_d, b_d = pt["remark1"]
        var = specific_mean_var(a, beta, n)[1]
        var_d = specific_mean_var(a_d, b_d, n)[1]
        # consistent surface: kappa_m(t) = kappa_m(0) c^m + kappa_m(pi/2) s^m
        c = np.cos(pt["tomogram_angles"])[:, None]
        s = np.sin(pt["tomogram_angles"])[:, None]
        powers = np.arange(1, 9)
        kap = fluctuation_series(a, beta, n, 8) * c**powers
        kap += fluctuation_series(a_d, b_d, n, 8) * s**powers
        kap[:, 1] = var * c[:, 0] ** 2 + var_d * s[:, 0] ** 2
        kaps.append(kap)
    kap = np.stack(kaps)
    ref = moments_from_cumulants(kap)
    # scale of each moment's partition sum: the same sum over |kappa|, at
    # least sd^k
    scale = np.maximum(moments_from_cumulants(np.abs(kap)),
                       kap[..., 1:2] ** (np.arange(1, 9) / 2))
    for pt, kp, rf, sc in zip(points, kap, ref, scale):
        for n0, variances, moments in pt["tomograms"]:
            dev = float(np.max(np.abs(moments - rf[:, :n0]) / sc[:, :n0]))
            if not (_rel(variances, kp[:, 1]) <= REL_TOL and dev <= REL_TOL):
                return [f"tomograms with n0={n0} have moments off by {dev:.2e}",
                        f"at a={pt['a']!r} beta={pt['beta']!r} N={pt['n']!r}"]
    return []


def check_norms(norms) -> list:
    bad = [v for v in norms if not abs(v - 1.0) <= NORM_TOL]
    return [f"propagated norm^2 {bad[0]!r} is not 1"] if bad else []
