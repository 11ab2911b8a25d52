"""Quadrature rules of the tomography layer: the radial Gauss rule of the
backprojection and the uniform angle grid."""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError


@functools.cache
def _unit_laguerre(n: int):
    """Gauss-Laguerre nodes/weights for exp(-t) on [0, inf), computed once
    per n (an eigenvalue solve) and shared read-only by every variance.

    Refused when a node is not finite or the weights do not sum to the
    weight's mass 1: numpy's laggauss overflows from n = 187."""
    with np.errstate(all="ignore"):  # checked below
        t, w = np.polynomial.laguerre.laggauss(n)
    if not (np.all(np.isfinite(t)) and abs(w.sum() - 1.0) <= 1e-9):
        raise DomainError(f"laggauss({n}) overflows or underflows double precision")
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def radial_rule(variance, n: int):
    """Gauss rule for the radial weight |r| * exp(-variance * r^2 / 2) on R.

    Built from Gauss-Laguerre through t = variance*r^2/2, which maps the
    weight to exp(-t) exactly; the returned positive nodes scale like
    1/sqrt(variance) and each node stands for the +/- r pair:

        int |r| e^{-v r^2/2} f(r) dr  ~=  sum_i w_i * (f(r_i) + f(-r_i)).

    For the oscillatory integrands used here, f(+/- sqrt(2t/v)) is entire
    in t, so convergence is spectral.  The unit rule is cached per n;
    each call only rescales it.  The variance may be an array: the rule
    broadcasts against it, so a column of variances, shape (m, 1), gives
    one row of nodes and weights per variance, (m, n), each equal to the
    rule of that variance alone.  Every variance must be positive
    (DomainError).
    """
    if not np.all(np.asarray(variance) > 0):
        raise DomainError("radial rule requires a positive variance")
    t, w = _unit_laguerre(n)
    return np.sqrt(2.0 * t / variance), w / variance


def uniform_angles(n: int) -> np.ndarray:
    """Uniform angle grid on [0, pi); the rectangle rule on it is the
    periodic trapezoid rule for tomogram families."""
    if n < 1:
        raise DomainError(f"need at least 1 angle, got {n}")
    return np.arange(n) * (np.pi / n)
