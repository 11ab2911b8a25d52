"""Angle-indexed tomograms and the joint quasiprobability reconstruction.

A tomogram at angle t is the distribution of the rotated fluctuation
cos(t)*delta_eps + sin(t)*delta_beta.  It is represented as a truncated
Hermite (Gram-Charlier A) density around the matched zero-mean Gaussian,

    T(z) = g(z; v) * (1 + sum_{k=3}^{n0} gamma_k He_k(z/sqrt(v))),

with the gamma_k fixed by a triangular linear solve so the first n0 raw
moments match the prescribed cumulants exactly.  T may dip negative for
large skew; that is reported as a diagnostic, not an error.

A family of tomograms is matched in one pass over its rows (one row of
cumulants per angle): the Bell recursion to raw moments and the forward
substitution for gamma each run once across all rows, with the
coefficients E[S^n He_k(S)] taken from a cached read-only table.  The
arithmetic of every row is that of the one-row solve, so each tomogram is
bit-identical whether it is built alone or in a family.  Two choices keep
it so: integer powers (cos^m t, sin^m t, sqrt(v)^n) are Python float
powers, because np.power(x, n) can differ from x**n in the last bit; and
every sum is accumulated left to right, never by np.sum or a matrix
product, which add in another order.

The joint quasidensity on the (delta_eps, delta_beta) plane is recovered by
filtered backprojection,

    R(x, y) = (1/4pi^2) int_0^pi dt int_R dr |r| chi_t(-r)
              * exp(i r (x cos t + y sin t)),

with the radial integral done by the Gauss rule matched to the tomogram's
Gaussian factor and the angle integral by the periodic trapezoid rule.
R carries unit Lebesgue mass; the Wigner-normalized object is 2*pi*h*R
with h the semiclassical scale (2/n in internal units).

The tomograms are real densities, so chi_t(-r) = conj chi_t(r): the node
-r contributes the complex conjugate of the node +r, and the radial sum is
twice the real part of the sum over the positive nodes alone.  The phase
separates, exp(i r (x cos t + y sin t)) = exp(i r x cos t) *
exp(i r y sin t), so on a rectangular grid that sum over one block of
angles is a single complex matrix product

    E_x diag(coeff) E_y^T,   E_x[a, k] = exp(i r_k x_a cos t_k),
                             E_y[b, k] = exp(i r_k y_b sin t_k),

with k running over the positive radial nodes of every angle in the
block.  The grid axes must be uniform, x_a = x_0 + a dx, so each phase
factor is built by stepping along its axis: row 0 is exp(i x_0 u_k) and
row a is row a-1 times exp(i dx u_k), with u_k = r_k cos t_k for E_x and
r_k sin t_k for E_y.  That is 2 n_r n_theta exponentials per axis and one
complex multiply per factor entry, where evaluating every entry would take
n_r n_theta (nx + ny) exponentials.  Only the real part of the sum is
kept, so each block is one real matrix product of the interleaved
(re, im) columns of E_x diag(coeff) and conj(E_y).  Blocks hold a fixed
number of angles and are summed in angle order, so the result does not
depend on any runtime setting.  The block is bounded, not all angles
stacked at once, so that the phase factors stay smaller than the
n_r x (nx ny) phase array of a single angle.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.hermite_e import hermeval

from .core import ManifoldPoint
from .cumulants import CumulantVector, cumulant_rows_to_moments
from .errors import (
    DomainError,
    GridTooSmall,
    IllConditioned,
    QuadratureFailure,
)
from .homotopy import HomotopyPath, path_cumulants
from .quadrature import radial_rule, uniform_angles

# Angles per backprojection block.  At the defaults (n_r = 96, 41 x 41 grid)
# each phase factor of a block is 41 x 768 complex, 0.5 MB, against 2.5 MB
# for the per-angle phase array of the unfactored sum.
_BLOCK_ANGLES = 8
# Tomogram.min_density scans this many points over +/- this many sd.
_MIN_SCAN_POINTS = 2001
_MIN_SCAN_SIGMAS = 8.0


@functools.cache
def _hermite_moment_table(n0: int) -> np.ndarray:
    """E[S^n He_k(S)] for standard normal S at [n, k], 0 <= n, k <= n0:
    n! / (2^j j!) with j = (n-k)/2 where k <= n and n-k is even, else 0.
    Computed once per n0 and shared read-only."""
    table = np.zeros((n0 + 1, n0 + 1))
    for n in range(n0 + 1):
        for k in range(n % 2, n + 1, 2):
            j = (n - k) // 2
            table[n, k] = math.factorial(n) / (2**j * math.factorial(j))
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class Tomogram:
    """Moment-matched density of one rotated fluctuation direction."""

    angle: float
    variance: float
    n0: int
    gamma: np.ndarray = field(repr=False)  # gamma[k] multiplies He_k; 0 for k < 3
    moments: np.ndarray = field(repr=False)  # matched raw moments 1..n0

    def _herm_coeffs(self) -> np.ndarray:
        c = self.gamma.copy()
        c[0] = 1.0
        return c

    def density(self, z):
        """T(z; cos angle, sin angle) on the unit direction."""
        z = np.asarray(z, dtype=float)
        s = z / math.sqrt(self.variance)
        g = np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi * self.variance)
        return g * hermeval(s, self._herm_coeffs())

    def char_poly(self, k):
        """P(k) = 1 + sum_m gamma_m (i k sqrt(v))^m, the polynomial factor
        of the characteristic function chi(k) = exp(-v k^2/2) P(k)."""
        k = np.asarray(k, dtype=float)
        sv = math.sqrt(self.variance)
        poly = np.ones_like(k, dtype=complex)
        for m in range(3, self.n0 + 1):
            if self.gamma[m]:
                poly = poly + self.gamma[m] * (1j * k * sv) ** m
        return poly

    def min_density(self) -> float:
        """Smallest density value at _MIN_SCAN_POINTS = 2001 uniform points
        over +/- _MIN_SCAN_SIGMAS = 8 standard deviations; negative means
        the truncated expansion is not a proper density there (diagnostic)."""
        z = np.linspace(-_MIN_SCAN_SIGMAS, _MIN_SCAN_SIGMAS, _MIN_SCAN_POINTS)
        z = z * math.sqrt(self.variance)
        return float(self.density(z).min())


def _float_powers(bases: list, lo: int, hi: int) -> np.ndarray:
    """x**m for m = lo..hi, one row per base x, as Python float powers
    (np.power(x, m) may round differently, module docstring)."""
    return np.array([[x**m for m in range(lo, hi + 1)] for x in bases]).reshape(
        len(bases), hi - lo + 1
    )


def _match_moments(values: np.ndarray, n0: int):
    """gamma (rows, n0+1) and matched raw moments (rows, n0) of every row of
    cumulants kappa_1..kappa_order in values (rows, order).

    Row i solves the triangular system of build_tomogram; the forward
    substitution runs over all rows at once.  The preconditions are those
    of build_tomogram, checked on every row.
    """
    if not 2 <= n0 <= 8:
        raise DomainError(f"truncation degree must be in 2..8, got {n0}")
    if values.shape[1] < n0:
        raise DomainError("cumulant vector shorter than the truncation degree")
    v = values[:, 1]
    if not np.all(v > 0):
        raise DomainError("tomogram requires a positive variance")
    if np.any(np.abs(values[:, 0]) > 1e-12 * np.maximum(1.0, np.sqrt(v))):
        raise DomainError("tomogram input must be centered (kappa_1 = 0)")

    rows = len(values)
    coeff = _hermite_moment_table(n0)
    sv_pow = _float_powers([math.sqrt(x) for x in v.tolist()], 3, n0)  # sqrt(v)^n
    diag = sv_pow * coeff.diagonal()[3:]
    if np.any(diag == 0.0):
        raise IllConditioned("degenerate diagonal in moment matching")

    moments = cumulant_rows_to_moments(values[:, :n0])
    gamma = np.zeros((rows, n0 + 1))
    terms = np.empty((rows, n0 - 2))
    for n in range(3, n0 + 1):
        p = sv_pow[:, n - 3 : n - 2]
        # sv^n E[S^n] + sum_{3<=k<n} sv^n gamma_k E[S^n He_k], left to right
        terms[:, :1] = p * coeff[n, 0]
        terms[:, 1 : n - 2] = p * gamma[:, 3:n] * coeff[n, 3:n]
        acc = np.cumsum(terms[:, : n - 2], axis=1)[:, -1]
        gamma[:, n] = (moments[:, n - 1] - acc) / diag[:, n - 3]
    return gamma, moments


def _family(values: np.ndarray, n0: int, angles) -> list:
    """One tomogram per row of cumulants, matched in a single pass."""
    gamma, moments = _match_moments(values, n0)
    return [
        Tomogram(angle=t, variance=v, n0=n0, gamma=g, moments=m)
        for t, v, g, m in zip(angles, values[:, 1].tolist(), gamma, moments)
    ]


def build_tomogram(cumulants: CumulantVector, n0: int, angle: float = 0.0) -> Tomogram:
    """Tomogram matched to the first n0 moments of the given cumulants.

    Requires a centered input (kappa_1 = 0) with positive variance and
    2 <= n0 <= 8.  The moment-matching system is triangular with diagonal
    n! * v^(n/2) > 0, so it cannot be singular for v > 0 (checked anyway).

    This is the one-row case of the row-vectorised match that builds whole
    families (module docstring): the raw moments come from the sequential
    Bell recursion, and gamma_n from the forward substitution

        gamma_n = (m_n - sum_{k<n} sv^n gamma_k E[S^n He_k]) / (sv^n E[S^n He_n])

    with sv = sqrt(v).  sv^n is a Python float power and the sum is taken
    left to right in k, so a tomogram built here has the same bits as the
    same row built within a family: np.power may round sv^n differently,
    and np.sum or a matrix product would add in another order.
    """
    values = np.asarray(cumulants.values, dtype=float)[None, :]
    return _family(values, n0, [angle])[0]


def gaussian_tomogram_family(v: float, v_dual: float, n_theta: int) -> list:
    """Gaussian family with the interpolated variances
    v_t = v cos^2 t + v' sin^2 t on the uniform angle grid."""
    angles = uniform_angles(n_theta)
    values = np.zeros((len(angles), 2))
    values[:, 1] = [v * math.cos(t) ** 2 + v_dual * math.sin(t) ** 2 for t in angles]
    return _family(values, 2, angles)


def homotopy_tomograms(path: HomotopyPath, n_theta: int, n0: int) -> list:
    """Moment-matched tomogram family driven by the interpolation path.

    The variance backbone v_t = v cos^2 t + v' sin^2 t is used at every
    angle, and the order-m corrections are homogeneous in (cos t, sin t),

        kappa_m(t) = kappa_m(0) cos^m t + kappa_m(pi/2) sin^m t,

    anchored on the path's own cumulants at the two marginal angles (cross
    cumulants are zeroed: the construction supplies no information about
    them).  Such a family is jointly consistent, so the reconstruction
    reproduces the marginal tomograms to quadrature accuracy.  The family
    is matched in one pass over its stacked rows.
    """
    order = max(n0, 2)
    angles = uniform_angles(n_theta)
    k0 = path_cumulants(path, 0.0, order).values
    k90 = path_cumulants(path, math.pi / 2.0, order).values
    values = np.zeros((len(angles), order))
    values[:, 1] = [path.variance_at(t) for t in angles]
    cos_pow = _float_powers([math.cos(t) for t in angles], 3, order)
    sin_pow = _float_powers([math.sin(t) for t in angles], 3, order)
    values[:, 2:] = k0[2:] * cos_pow + k90[2:] * sin_pow
    return _family(values, n0, angles)


def make_grid(sigma_x: float, sigma_y: float, shape=(41, 41), n_sigma: float = 6.0):
    """Uniform grid of +/- n_sigma standard deviations per axis."""
    nx, ny = shape
    if nx < 2 or ny < 2:
        raise DomainError(f"need at least 2 grid points per axis, got {nx} x {ny}")
    x = np.linspace(-n_sigma * sigma_x, n_sigma * sigma_x, nx)
    y = np.linspace(-n_sigma * sigma_y, n_sigma * sigma_y, ny)
    return x, y


@dataclass(frozen=True)
class QuasiDensityGrid:
    """Joint quasiprobability R(x, y) sampled on a rectangular lattice."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray  # shape (len(x), len(y)); may be negative
    h: float
    n0: int
    diagnostics: dict

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    def mass(self) -> float:
        return float(self.values.sum() * self.dx * self.dy)

    def marginal_x(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.dy

    def marginal_y(self) -> np.ndarray:
        return self.values.sum(axis=0) * self.dx

    def moment_x(self, k: int) -> float:
        return float((self.x**k * self.marginal_x()).sum() * self.dx)

    def moment_y(self, k: int) -> float:
        return float((self.y**k * self.marginal_y()).sum() * self.dy)

    def negativity_fraction(self) -> float:
        return float(np.mean(self.values < 0.0))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x,y,value\n")
            mids = [f",{yj!r}," for yj in self.y.tolist()]  # formatted once
            for xi, row in zip(self.x.tolist(), self.values.tolist()):  # one text per x
                xr = repr(xi)
                fh.write("".join([xr + mid + repr(v) + "\n" for mid, v in zip(mids, row)]))

    def to_json(self, path) -> None:
        header = {
            "grid": {
                "nx": len(self.x),
                "ny": len(self.y),
                "x_min": float(self.x[0]),
                "x_max": float(self.x[-1]),
                "y_min": float(self.y[0]),
                "y_max": float(self.y[-1]),
            },
            "h": self.h,
            "n0": self.n0,
            "diagnostics": dict(self.diagnostics),
        }
        with open(path, "w") as fh:
            json.dump(header, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _grid(x, y, values, h: float, n0: int) -> QuasiDensityGrid:
    """The grid of values, with its mass, negativity fraction and minimum
    value as diagnostics."""
    grid = QuasiDensityGrid(x=x, y=y, values=values, h=h, n0=n0, diagnostics={})
    return replace(
        grid,
        diagnostics={
            "mass": grid.mass(),
            "negativity_fraction": grid.negativity_fraction(),
            "min_value": float(grid.values.min()),
        },
    )


def _phases(axis: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(1j * np.multiply.outer(axis, k)) on a uniform axis, by stepping:
    row 0 is exp(i axis[0] k) and row a is row a-1 times exp(i dx k), with
    dx = (axis[-1] - axis[0]) / (len(axis) - 1)."""
    dx = (axis[-1] - axis[0]) / (len(axis) - 1)
    out = np.empty((len(axis), len(k)), dtype=complex)
    out[0] = np.exp(1j * axis[0] * k)
    out[1:] = np.exp(1j * dx * k)
    return np.cumprod(out, axis=0, out=out)


def reconstruct(
    tomograms,
    h: float,
    x: np.ndarray,
    y: np.ndarray,
    n_r: int = 96,
) -> QuasiDensityGrid:
    """Filtered backprojection of a uniform tomogram family over [0, pi).

    The radial integral uses the Gauss rule for |r|exp(-v_t r^2/2), built
    once for the whole family from the column of variances (n_r positive
    nodes per angle, each standing for a +/- pair); the angle integral is
    the periodic trapezoid rule.  The node -r adds the complex conjugate of
    the node +r (module docstring), so only the positive nodes are summed
    and the grid is twice the real part of that sum.  A grid that is not
    finite everywhere is refused (QuadratureFailure).

    The sum is evaluated in blocks of _BLOCK_ANGLES consecutive angles.
    Each block contributes Re((E_x * coeff) @ E_y.T) with the separable
    phase factors of the module docstring, built by stepping along the
    axes (2 n_r exponentials per angle and axis, one complex multiply per
    factor entry), and the blocks are added in angle order.  The block size
    is a constant: it bounds the memory of the phase factors, and fixing it
    fixes the order of every floating-point sum.

    Stepping is exact only on a uniform axis, such as make_grid returns: an
    axis with a point further than 1e-14 of its span from
    x_0 + a (x_last - x_0)/(len - 1) is refused (DomainError).
    """
    n_theta = len(tomograms)
    if n_theta < 32:
        raise DomainError(f"need at least 32 angles, got {n_theta}")
    if not h > 0:
        raise DomainError("semiclassical parameter h must be positive")
    if n_r < 1:
        raise DomainError(f"need at least 1 radial node, got {n_r}")
    angles = uniform_angles(n_theta)
    for tom, t in zip(tomograms, angles):
        if abs(tom.angle - t) > 1e-9:
            raise DomainError("tomogram angles must form a uniform grid on [0, pi)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise DomainError(
            f"need at least 2 grid points per axis, got {len(x)} x {len(y)}"
        )
    for name, axis in (("x", x), ("y", y)):
        span = axis[-1] - axis[0]
        steps = axis[0] + np.arange(len(axis)) * (span / (len(axis) - 1))
        # written as > so that a non-finite axis passes here; its grid is
        # not finite and is refused below
        if np.abs(axis - steps).max() > 1e-14 * abs(span):
            raise DomainError(f"grid axis {name} is not uniform")

    # one row of positive nodes r and weights w per angle; the node +r
    # carries w P(-r), where chi_t(k) = exp(-v_t k^2/2) P(k)
    r, w = radial_rule(np.array([[tom.variance] for tom in tomograms]), n_r)
    with np.errstate(invalid="ignore"):  # a non-finite grid is refused below
        coeff = w * np.array([tom.char_poly(-row) for tom, row in zip(tomograms, r)])
    r_cos = r * np.cos(angles)[:, None]
    r_sin = r * np.sin(angles)[:, None]

    total = np.zeros((len(x), len(y)))
    for lo in range(0, n_theta, _BLOCK_ANGLES):
        block = slice(lo, lo + _BLOCK_ANGLES)
        e_x = _phases(x, r_cos[block].ravel())
        e_x *= coeff[block].ravel()
        e_y_conj = _phases(y, -r_sin[block].ravel())
        # Re(a b) = Re a Re conj(b) + Im a Im conj(b): one real product over
        # the interleaved (re, im) columns
        total += e_x.view(float) @ e_y_conj.view(float).T
    total *= 2.0 * (math.pi / n_theta) / (4.0 * math.pi**2)
    if not np.all(np.isfinite(total)):
        raise QuadratureFailure("backprojection is not finite")
    return _grid(x, y, total, h, max(t.n0 for t in tomograms))


def gaussian_limit(alpha: ManifoldPoint, n: float, x: np.ndarray, y: np.ndarray) -> QuasiDensityGrid:
    """Closed-form concentration-limit quasidensity at a manifold point.

    R(x, y) = (n/2pi) exp(-n (lam x^2 + y^2/lam)/2) with lam = -s''(eps);
    unit mass analytically, variances (1/(n lam), lam/n), and
    Var_x * Var_y = (h/2)^2 with h = 2/n (saturated purity).
    """
    lam = alpha.lam
    if not lam > 0:
        raise DomainError("gaussian limit requires positive curvature")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    expo = -0.5 * n * (lam * x[:, None] ** 2 + y[None, :] ** 2 / lam)
    values = n / (2.0 * math.pi) * np.exp(expo)
    return _grid(x, y, values, 2.0 / n, 2)


def purity(grid: QuasiDensityGrid) -> float:
    """2*pi*h * int R^2; equals 1 exactly for a Gaussian saturating
    Var_x*Var_y = (h/2)^2 and is smaller for broader quasidensities.

    Requires the grid to cover at least 6 empirical standard deviations
    per axis.
    """
    mass = grid.mass()
    if mass == 0:
        raise GridTooSmall("grid carries no mass")
    mx = grid.moment_x(1) / mass
    my = grid.moment_y(1) / mass
    var_x = grid.moment_x(2) / mass - mx * mx
    var_y = grid.moment_y(2) / mass - my * my
    # written as not (...) so that a NaN fails the checks
    if not (var_x > 0 and var_y > 0):
        raise GridTooSmall("grid second moments are not positive")
    half_x = 0.5 * (grid.x[-1] - grid.x[0])
    half_y = 0.5 * (grid.y[-1] - grid.y[0])
    if not (
        half_x >= 6.0 * math.sqrt(var_x) * (1.0 - 1e-9)
        and half_y >= 6.0 * math.sqrt(var_y) * (1.0 - 1e-9)
    ):
        raise GridTooSmall(
            "grid must cover >= 6 standard deviations in each axis"
        )
    return float(2.0 * math.pi * grid.h * (grid.values**2).sum() * grid.dx * grid.dy)
