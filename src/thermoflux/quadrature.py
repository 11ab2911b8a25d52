"""Quadrature rules shared by tomography and the quantum reference module."""

from __future__ import annotations

import functools

import numpy as np


def gauss_hermite(n: int):
    """Nodes/weights for the physicists' weight exp(-x^2) on the real line."""
    return np.polynomial.hermite.hermgauss(n)


def gauss_hermite_prob(n: int):
    """Nodes/weights for the standard normal density (probabilists' scaling)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


@functools.cache
def _unit_laguerre(n: int):
    """Gauss-Laguerre nodes/weights for exp(-t) on [0, inf), computed once
    per n (an eigenvalue solve) and shared read-only by every variance."""
    t, w = np.polynomial.laguerre.laggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def radial_rule(variance: float, n: int):
    """Gauss rule for the radial weight |r| * exp(-variance * r^2 / 2) on R.

    Built from Gauss-Laguerre through t = variance*r^2/2, which maps the
    weight to exp(-t) exactly; the returned positive nodes scale like
    1/sqrt(variance) and each node stands for the +/- r pair:

        int |r| e^{-v r^2/2} f(r) dr  ~=  sum_i w_i * (f(r_i) + f(-r_i)).

    For the oscillatory integrands used here, f(+/- sqrt(2t/v)) is entire
    in t, so convergence is spectral.  The unit rule is cached per n;
    each call only rescales it.
    """
    if not variance > 0:
        raise ValueError("radial rule requires a positive variance")
    t, w = _unit_laguerre(n)
    return np.sqrt(2.0 * t / variance), w / variance


def uniform_angles(n: int) -> np.ndarray:
    """Uniform angle grid on [0, pi); the rectangle rule on it is the
    periodic trapezoid rule for tomogram families."""
    return np.arange(n) * (np.pi / n)
