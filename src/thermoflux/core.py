"""Closed-form canonical thermodynamics of an ensemble of identical oscillators.

Internal unit system: k_B = 1 throughout.  Energies are measured from the
ground level, so the specific energy eps is strictly positive.  Stable
evaluation is organized around the mean occupation

    nbar = exp(-beta*a) / (1 - exp(-beta*a)),

which never overflows for beta*a > 0 (for beta*a > 700 the naive
exp(beta*a) - 1 would).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentPartition, DomainError

# Boltzmann constant in CGS units (erg/K); used only for unit relabeling
# at the front end, never inside the math.
K_B_CGS = 1.3806488e-16

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class OscillatorEnsemble:
    """Ensemble of n identical oscillators with energy quantum a.

    a < 0 is permitted only for formal dual systems produced by the
    symmetric duality solve; such ensembles are flagged unphysical.
    """

    a: float
    n: float

    def __post_init__(self):
        if self.a == 0 or not math.isfinite(self.a):
            raise DomainError(f"energy quantum a must be finite and nonzero, got {self.a!r}")
        if not 0 < self.n < math.inf:
            raise DomainError(f"particle count n must be finite and positive, got {self.n!r}")

    @property
    def physical_spectrum(self) -> bool:
        return self.a > 0


@dataclass(frozen=True)
class ThermoState:
    """Inverse temperature beta, finite, in internal units (k_B = 1)."""

    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise DomainError(f"inverse temperature must be finite, got {self.beta!r}")


@dataclass(frozen=True)
class EnergyStats:
    mean: float
    variance: float


@dataclass(frozen=True)
class ManifoldPoint:
    """Consistent (beta, eps) pair on the equilibrium manifold.

    lam = -s''(eps) = 1/(eps*(eps + a)) is the fluctuation curvature.
    """

    epsilon: float
    beta: float
    lam: float

    @classmethod
    def from_energy(cls, epsilon: float, ens: OscillatorEnsemble) -> "ManifoldPoint":
        if not epsilon > 0:
            raise DomainError("specific energy must be positive")
        a = ens.a
        beta = math.log1p(a / epsilon) / a
        lam = 1.0 / (epsilon * (epsilon + a))
        return cls(epsilon=epsilon, beta=beta, lam=lam)

    @classmethod
    def from_beta(cls, beta: float, ens: OscillatorEnsemble) -> "ManifoldPoint":
        _check_convergent(beta, ens.a)
        epsilon = ens.a * mean_occupation(beta * ens.a)
        if epsilon == 0.0:
            raise DomainError(
                f"specific energy underflows to 0 at beta*a = {beta * ens.a!r}"
            )
        curvature_inv = epsilon * (epsilon + ens.a)  # underflows to 0 for tiny a
        lam = 1.0 / curvature_inv if curvature_inv != 0.0 else math.inf
        if not 0.0 < lam < math.inf:
            raise DomainError(
                f"fluctuation curvature {lam!r} is not representable at "
                f"beta*a = {beta * ens.a!r}"
            )
        return cls(epsilon=epsilon, beta=beta, lam=lam)


@dataclass(frozen=True)
class GaussianFluctuation:
    """Matched Gaussian fluctuation law for (delta_eps, delta_beta).

    variance_eps * variance_beta == (1/n)**2 holds exactly by construction.
    Densities are normalized to unit mass.
    """

    variance_eps: float
    variance_beta: float
    n: float

    def density_eps(self, x):
        v = self.variance_eps
        return np.exp(-np.square(x) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)

    def density_beta(self, y):
        v = self.variance_beta
        return np.exp(-np.square(y) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def _check_convergent(beta: float, a: float) -> None:
    if not beta * a > 0:
        raise DivergentPartition(
            f"partition sum requires beta*a > 0, got beta*a = {beta * a!r}"
        )


def mean_occupation(x: float) -> float:
    """Mean occupation exp(-x)/(1 - exp(-x)) for x = beta*a > 0.

    Stable for the whole range: ~1/x for small x, underflows to 0 for
    x > ~745 instead of overflowing.
    """
    return math.exp(-x) / (-math.expm1(-x))


def mean_occupation_signed(x: float) -> float:
    """Formal extension of the mean occupation 1/(e^x - 1) to x < 0."""
    if x > 0:
        return mean_occupation(x)
    if x == 0:
        raise DomainError("mean occupation undefined at beta*a = 0")
    return 1.0 / math.expm1(x)


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0 to full relative precision.

    log(-expm1(-x)) loses it for large x, where 1 - exp(-x) rounds to 1,
    and log1p(-exp(-x)) for small x, where exp(-x) rounds near 1; each
    form is used on its own side of x = log 2 (Maechler, "Accurately
    computing log(1 - exp(-|a|))", 2012).
    """
    if x <= _LOG2:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def _occupation_entropy(nbar: float) -> float:
    """Entropy per oscillator at mean occupation nbar > 0,

        s = (1 + nbar) log1p(nbar) - nbar log(nbar),

    summed as two nonnegative terms on either side of nbar = 1, so that
    nothing cancels: as written for nbar < 1 (-nbar log nbar > 0), and as
    log1p(nbar) + nbar log1p(1/nbar) for nbar >= 1.  The textbook form
    log(nbar) + (1 + nbar) log1p(1/nbar) cancels two terms of size beta*a
    at large beta*a.
    """
    if nbar < 1.0:
        return (1.0 + nbar) * math.log1p(nbar) - nbar * math.log(nbar)
    return math.log1p(nbar) + nbar * math.log1p(1.0 / nbar)


def log_partition(state: ThermoState, ens: OscillatorEnsemble) -> float:
    """log Z for n oscillators: -n*log(1 - exp(-beta*a))."""
    _check_convergent(state.beta, ens.a)
    return -ens.n * _log1mexp(state.beta * ens.a)


def energy_stats(state: ThermoState, ens: OscillatorEnsemble) -> EnergyStats:
    """Mean and variance of the total energy.

    mean = n*a*nbar, variance = n*a^2*nbar*(nbar + 1); the latter equals
    the textbook form exp(beta*a)*mean^2/n without overflow.
    """
    _check_convergent(state.beta, ens.a)
    nbar = mean_occupation(state.beta * ens.a)
    mean = ens.n * ens.a * nbar
    variance = ens.n * ens.a * ens.a * nbar * (nbar + 1.0)
    return EnergyStats(mean=mean, variance=variance)


def entropy_stat(ens: OscillatorEnsemble, energy: float) -> float:
    """Entropy S(n, E) of the ensemble at total energy E > 0.

    First-degree homogeneous: S(c*n, c*E) = c*S(n, E).
    """
    if not energy > 0:
        raise DomainError("total energy must be positive")
    if not ens.a > 0:
        raise DomainError("entropy requires a physical spectrum (a > 0)")
    return ens.n * _occupation_entropy(energy / (ens.a * ens.n))


def specific_entropy(epsilon: float, ens: OscillatorEnsemble):
    """Specific entropy s(eps) and its first two derivatives.

    s'(eps) = log(1 + a/eps)/a is the inverse temperature of the state;
    s''(eps) = -1/(eps*(eps + a)) < 0 (concavity).
    Returns (s, s1, s2).
    """
    if not epsilon > 0:
        raise DomainError("specific energy must be positive")
    if not ens.a > 0:
        raise DomainError("specific entropy requires a > 0")
    a = ens.a
    s = _occupation_entropy(epsilon / a)
    s1 = math.log1p(a / epsilon) / a
    s2 = -1.0 / (epsilon * (epsilon + a))
    return s, s1, s2


def legendre_phi(state: ThermoState, ens: OscillatorEnsemble):
    """Legendre conjugate phi(beta) of s(eps) and its second derivative.

    phi(beta) = (-beta*eps + s(eps)) at eps = eps(beta), which collapses to
    the specific log-partition -log(1 - exp(-beta*a)); it is evaluated in
    that form, since the two terms of the first cancel at large beta*a.
    phi''(beta) = 1/lam.
    Returns (phi, phi2).
    """
    _check_convergent(state.beta, ens.a)
    a = ens.a
    nbar = mean_occupation(state.beta * a)
    phi = -_log1mexp(state.beta * a)
    phi2 = a * a * nbar * (nbar + 1.0)  # = eps*(eps + a) = 1/lam
    return phi, phi2


def quasi_fluctuations(alpha: ManifoldPoint, n: float) -> GaussianFluctuation:
    """Gaussian fluctuation variances at a manifold point.

    variance_eps = 1/(n*lam), variance_beta = lam/n; their product is
    exactly (1/n)**2, the fluctuation analogue of a minimum-uncertainty
    pair.
    """
    if not n > 0:
        raise DomainError("particle count must be positive")
    n_lam = n * alpha.lam  # underflows to 0 for tiny n and lam
    variance_eps = 1.0 / n_lam if n_lam != 0.0 else math.inf
    variance_beta = alpha.lam / n
    if not (0.0 < variance_eps < math.inf and 0.0 < variance_beta < math.inf):
        raise DomainError(
            f"fluctuation variances are not representable at n = {n!r}, "
            f"lam = {alpha.lam!r}"
        )
    return GaussianFluctuation(variance_eps=variance_eps, variance_beta=variance_beta, n=n)
