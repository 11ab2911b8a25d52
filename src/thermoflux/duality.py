"""Dual oscillator systems whose specific-energy fluctuations represent the
inverse-temperature fluctuations of the source system.

Two variants of the closing condition are supported:

* symmetric -- mean-energy product equals beta'*beta; the solve goes
  through the monotone function phi(z) = z/(1 - exp(-z)).  For beta*a > 0
  this forces beta'*a' < 0, i.e. a formally negative energy quantum; the
  dual is flagged unphysical and all closed forms are evaluated formally
  (they stay finite because exp(beta'*a') is in (0, 1)).
* remark1 -- dual mean energy pinned to beta; fully closed-form and
  all-positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    OscillatorEnsemble,
    ThermoState,
    energy_stats,
    mean_occupation,
    mean_occupation_signed,
)
from .errors import DomainError, NoBracket

_NEWTON_TOL = 1e-13
_BISECT_TOL = 1e-8
# below this z, exp(-z) squared (phi_prime) or exp(-z) itself (phi, from
# z = -709.8) overflows; both are then evaluated multiplied through by exp(z)
_EXP_SAFE = -300.0


def phi(z: float) -> float:
    """Monotone solvability function z / (1 - exp(-z)); phi(0) = 1."""
    if abs(z) < 1e-8:
        # removable singularity: z/(1-e^-z) = 1 + z/2 + z^2/12 + O(z^4)
        return 1.0 + z / 2.0 + z * z / 12.0
    if z < _EXP_SAFE:
        return z * math.exp(z) / math.expm1(z)
    return z / (-math.expm1(-z))


def phi_prime(z: float) -> float:
    """Derivative of phi, used by the Newton polish."""
    if abs(z) < 1e-6:
        return 0.5 + z / 6.0 - z**3 / 180.0
    if z < _EXP_SAFE:
        em = math.expm1(z)  # e^z - 1, the form above times e^(2z)
        return math.exp(z) * (em - z) / (em * em)
    em = -math.expm1(-z)  # 1 - e^-z
    return (em - z * math.exp(-z)) / (em * em)


@dataclass(frozen=True)
class DualPair:
    """A source system, its solved dual, and the defining-equation residuals."""

    a: float
    beta: float
    n: float
    a_dual: float
    beta_dual: float
    n_dual: float
    variant: str  # "symmetric" | "remark1"
    residuals: tuple  # per-equation absolute residuals
    unphysical_spectrum: bool

    @property
    def source(self) -> OscillatorEnsemble:
        return OscillatorEnsemble(a=self.a, n=self.n)


def _solve_phi_equals(target: float) -> float:
    """Solve phi(y) = target <= 1 for the unique real root y <= 0 by
    bracketed bisection followed by a Newton polish."""
    if not target > 0:
        raise NoBracket(f"phi only takes positive values, target {target!r}")
    # phi is strictly increasing with phi(0) = 1: expand the bracket below 0
    if target == 1.0:
        return 0.0
    lo, hi = -1.0, 0.0
    while phi(lo) > target:
        lo *= 2.0
        if lo < -1e12:
            raise NoBracket("failed to bracket root below")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if phi(mid) < target:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    for _ in range(60):
        step = (phi(y) - target) / phi_prime(y)
        y -= step
        if abs(step) < _NEWTON_TOL * max(1.0, abs(y)):
            break
    return y


def _system_residuals(a, beta, a_dual, beta_dual):
    """Residuals of the two defining equations of the symmetric variant."""
    eps = a * mean_occupation(beta * a)
    eps_dual = a_dual * mean_occupation_signed(beta_dual * a_dual)
    r1 = eps * eps_dual - beta_dual * beta
    # (beta'*beta)^2 * exp(beta*a + beta'*a') - 1, summed in the exponent so
    # that neither factor overflows or underflows
    r2 = math.expm1(beta * a + beta_dual * a_dual + 2.0 * math.log(beta_dual * beta))
    return abs(r1), abs(r2)


def solve_symmetric(a: float, beta: float, n: float) -> DualPair:
    """Solve the symmetric closing condition (mean-energy product)."""
    if not (a > 0 and beta > 0):
        raise DomainError("symmetric duality solve requires a > 0 and beta > 0")
    y = _solve_phi_equals(1.0 / phi(beta * a))
    beta_dual = math.exp(-(beta * a + y) / 2.0) / beta
    a_dual = y / beta_dual if beta_dual > 0 else -math.inf
    if not (0.0 < beta_dual < math.inf and -math.inf < a_dual < 0.0):
        raise DomainError(
            f"symmetric dual (beta' = {beta_dual!r}, a' = {a_dual!r}) is not "
            f"representable at beta*a = {beta * a!r}"
        )
    res = _system_residuals(a, beta, a_dual, beta_dual)
    return DualPair(
        a=a,
        beta=beta,
        n=n,
        a_dual=a_dual,
        beta_dual=beta_dual,
        n_dual=n,
        variant="symmetric",
        residuals=res,
        unphysical_spectrum=a_dual < 0,
    )


def _log_sinhc(u: float) -> float:
    """log(sinh(u)/u) for u > 0, finite where sinh(u) itself overflows."""
    if u > 20.0:
        # sinh(u) = exp(u)/2 to double precision (exp(-2u) < 1e-17)
        return u - math.log(2.0 * u)
    if u < 1.0:
        # sinh(u)/u - 1 = sum_k u^(2k)/(2k+1)!, summed as a series because
        # the difference sinh(u) - u keeps only ~3e-16/u^2 relative accuracy
        u2 = u * u
        term, total = 1.0, 0.0
        for k in range(1, 10):
            term *= u2 / ((2 * k) * (2 * k + 1))
            total += term
        return math.log1p(total)
    # log1p form keeps precision when sinh(u)/u is close to 1
    return math.log1p((math.sinh(u) - u) / u)


def solve_remark1(a: float, beta: float, n: float) -> DualPair:
    """Closed-form all-positive dual with the dual mean energy pinned to beta.

    beta'*a' = y = 2 log(sinh(u)/u) with u = beta*a/2, and a' =
    beta*expm1(y).  y is finite for every input, but a' is about
    beta^3 a^2/12 for small beta*a and beta*exp(beta*a)/(beta*a)^2 for large
    beta*a; where it under- or overflows a double, DomainError is raised.
    """
    if not (a > 0 and beta > 0):
        raise DomainError("remark1 duality solve requires a > 0 and beta > 0")
    y = 2.0 * _log_sinhc(beta * a / 2.0)
    try:
        a_dual = beta * math.expm1(y)
    except OverflowError:
        a_dual = math.inf
    if not 0.0 < a_dual < math.inf:
        raise DomainError(
            f"remark1 dual quantum {a_dual!r} is not representable at "
            f"beta*a = {beta * a!r}"
        )
    beta_dual = y / a_dual
    eps = a * mean_occupation(beta * a)
    eps_dual = a_dual * mean_occupation(beta_dual * a_dual)
    r1 = abs(eps_dual - beta)
    # exp(beta*a + y) * (beta*eps)^2 - 1, summed in the exponent so that
    # neither factor overflows or underflows
    r2 = abs(math.expm1(beta * a + y + 2.0 * math.log(beta * eps)))
    return DualPair(
        a=a,
        beta=beta,
        n=n,
        a_dual=a_dual,
        beta_dual=beta_dual,
        n_dual=n,
        variant="remark1",
        residuals=(r1, r2),
        unphysical_spectrum=False,
    )


@dataclass(frozen=True)
class DualityReport:
    variance_product_scaled: float  # Var(de) * Var(de') * n^2, target 1


def dual_fluctuation_variances(pair: DualPair):
    """Specific-energy fluctuation variances (v, v') of source and dual.

    Evaluated through the same closed forms for both; for a formal dual
    (beta'*a' < 0) the expressions remain finite.  Raises DomainError where
    either variance underflows to 0 or overflows a double.
    """
    # divided by n twice: n**2 alone can underflow
    v = energy_stats(ThermoState(pair.beta), pair.source).variance / pair.n / pair.n
    # a'^2 nbar' (nbar' + 1) = eps' (eps' + a'), which stays finite where
    # a'^2 would overflow
    eps_dual = pair.a_dual * mean_occupation_signed(pair.beta_dual * pair.a_dual)
    v_dual = eps_dual * (eps_dual + pair.a_dual) / pair.n_dual
    if not (0.0 < v < math.inf and 0.0 < v_dual < math.inf):
        raise DomainError(
            f"fluctuation variances ({v!r}, {v_dual!r}) are not representable "
            f"at beta*a = {pair.beta * pair.a!r}"
        )
    return v, v_dual


def verify_duality(pair: DualPair) -> DualityReport:
    """Check a solved pair against its defining system.

    Reports the realized product Var(de)*Var(de')*n^2 against the
    uncertainty target 1; the per-equation residuals, the variant's
    imposed condition first, are pair.residuals.
    """
    v, v_dual = dual_fluctuation_variances(pair)
    product = (v * pair.n) * (v_dual * pair.n_dual)  # each factor is O(1)
    return DualityReport(variance_product_scaled=product)
