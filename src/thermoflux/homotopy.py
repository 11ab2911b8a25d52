"""One-parameter family of oscillator ensembles interpolating a system and
its dual.

The family is pinned by two requirements at each angle t:

    mean_t     = mean * cos(t) + mean' * sin(t)
    variance_t = v * cos(t)^2 + v' * sin(t)^2

with (mean, v) the specific-energy mean/variance of the source and
(mean', v') of the dual.  Substituting the oscillator closed forms shows
the particle count enters only through the product n*v_t, giving the
closed-form parameters

    beta_t * a_t = log(n*v_t / mean_t^2),   a_t = n*v_t/mean_t - mean_t.

Negative beta_t*a_t (possible with the symmetric dual) is evaluated
formally and flagged; mean_t <= 0 or n*v_t = mean_t^2 is a degenerate
point and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ThermoState, energy_stats, mean_occupation_signed
from .cumulants import CumulantVector, oscillator_cumulants
from .duality import DualPair, dual_fluctuation_variances
from .errors import DegeneratePoint, DomainError, OrderTooLarge


@dataclass(frozen=True)
class HomotopyPath:
    """Endpoint data (means and scaled variances) of the interpolation."""

    mean: float        # specific-energy mean of the source
    mean_dual: float   # specific-energy mean of the dual
    nv: float          # n * Var(delta_eps) of the source
    nv_dual: float     # n * Var(delta_eps') of the dual
    n: float

    @classmethod
    def from_dual_pair(cls, pair: DualPair) -> "HomotopyPath":
        v, v_dual = dual_fluctuation_variances(pair)
        mean = energy_stats(ThermoState(pair.beta), pair.source).mean / pair.n
        if pair.variant == "symmetric":
            mean_dual = pair.a_dual * mean_occupation_signed(
                pair.beta_dual * pair.a_dual
            )
        else:
            mean_dual = pair.beta  # imposed condition of the remark1 variant
        return cls(
            mean=mean,
            mean_dual=mean_dual,
            nv=pair.n * v,
            nv_dual=pair.n_dual * v_dual,
            n=pair.n,
        )

    @classmethod
    def from_endpoints(cls, mean, variance, mean_dual, variance_dual, n):
        if not (variance > 0 and variance_dual > 0):
            raise DomainError("endpoint variances must be positive")
        return cls(
            mean=mean,
            mean_dual=mean_dual,
            nv=n * variance,
            nv_dual=n * variance_dual,
            n=n,
        )

    def mean_at(self, t: float) -> float:
        return self.mean * math.cos(t) + self.mean_dual * math.sin(t)

    def scaled_variance_at(self, t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        return self.nv * c * c + self.nv_dual * s * s

    def variance_at(self, t: float) -> float:
        return self.scaled_variance_at(t) / self.n


@dataclass(frozen=True)
class PathPoint:
    t: float
    a: float
    beta: float
    mean: float
    variance: float
    formal: bool  # beta*a < 0, evaluated formally


def path_params(path: HomotopyPath, t: float) -> PathPoint:
    """Oscillator parameters (a_t, beta_t) reproducing (mean_t, variance_t)."""
    if not math.isfinite(t):
        raise DomainError(f"path angle must be finite, got t={t!r}")
    mean_t = path.mean_at(t)
    nv_t = path.scaled_variance_at(t)
    if not mean_t > 0:
        raise DegeneratePoint(f"interpolated mean {mean_t!r} <= 0 at t={t!r}")
    ratio = nv_t / mean_t / mean_t  # mean_t^2 alone can underflow
    if ratio == 1.0:
        raise DegeneratePoint(f"n*v_t equals mean_t^2 at t={t!r} (a_t = 0)")
    x = math.log(ratio)  # beta_t * a_t
    a_t = nv_t / mean_t - mean_t
    beta_t = x / a_t
    return PathPoint(
        t=t,
        a=a_t,
        beta=beta_t,
        mean=mean_t,
        variance=nv_t / path.n,
        formal=x < 0,
    )


def path_cumulants(path: HomotopyPath, t: float, order: int) -> CumulantVector:
    """Cumulants of the centered specific-energy fluctuation of X_t.

    kappa_1 = 0 and kappa_2 = variance_t by construction; evaluation is
    formal (finite) when beta_t*a_t < 0.
    """
    if not 1 <= order <= 8:
        raise OrderTooLarge(f"path cumulant order must be in 1..8, got {order}")
    point = path_params(path, t)
    kappa = oscillator_cumulants(point.a, point.beta * point.a, order)
    if path.n >= 1.0:  # n^(1-k) <= 1, so the values stay finite
        values = kappa * path.n ** (1.0 - np.arange(1, order + 1))
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            values = kappa * path.n ** (1.0 - np.arange(1, order + 1))
        if not np.all(np.isfinite(values)):
            raise DomainError(
                f"path cumulants up to order {order} overflow a double at n = {path.n!r}"
            )
    values[0] = 0.0
    return CumulantVector(order=order, values=values)
