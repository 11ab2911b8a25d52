"""Quantum-mechanical reference objects: coherent states, their Wigner
functions, the oscillator propagator, and the Gaussian evolution law.

These supply independent oracles for the tomography layer: rotating a
Gaussian wave packet by the propagator reproduces the same interpolation
of centers and widths that the thermodynamic construction uses, and the
quarter-period propagator is the h-Fourier transform.

Normalization: the coherent-state and packet prefactors are chosen to give
unit L2 norm, (lam/(2 pi hbar))^(1/4) and (lam/(pi h))^(1/4) respectively.
The propagator phase (2 pi e^{i pi/2} h sin t)^(-1/2) uses the principal
branch; alternative branches only change a global phase, invisible to any
|.|^2 quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure, SingularTime
from .quadrature import gauss_hermite

# Gauss-Hermite nodes of the output grid of propagate and h_fourier.
_OUTPUT_NODES = 128


@dataclass(frozen=True)
class CoherentState:
    """Minimum-uncertainty Gaussian state centered at (q0, p0)."""

    p0: float
    q0: float
    lam: float
    hbar: float

    def __post_init__(self):
        if not (self.lam > 0 and self.hbar > 0):
            raise DomainError("width parameter and hbar must be positive")

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        amp = (self.lam / (2.0 * math.pi * self.hbar)) ** 0.25
        return amp * np.exp(
            1j * self.p0 * x / self.hbar
            - self.lam * (x - self.q0) ** 2 / (4.0 * self.hbar)
        )

    def wigner(self, p, q):
        return wigner_coherent(self, p, q)


def wigner_coherent(state: CoherentState, p, q):
    """Wigner function of a coherent state.

    W(p, q) = 2 exp(-lam (q-q0)^2/(2 hbar)) exp(-2 (p-p0)^2/(lam hbar));
    (2 pi hbar)^(-1) * int W dp dq = 1 and the (q, p) variance product is
    hbar^2/4.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    lam, hbar = state.lam, state.hbar
    return 2.0 * np.exp(
        -lam * (q - state.q0) ** 2 / (2.0 * hbar)
        - 2.0 * (p - state.p0) ** 2 / (lam * hbar)
    )


@dataclass(frozen=True)
class GaussianEvolution:
    """Closed-form drift and width of an evolved Gaussian packet."""

    t: float
    c_t: float
    lam_t: float

    def variance(self, h: float) -> float:
        """Variance of the evolved |.|^2 profile: (h/2)/lam_t."""
        return 0.5 * h / self.lam_t


def gaussian_evolution_params(
    x0: float, y0: float, lam: float, t: float
) -> GaussianEvolution:
    """c_t = x0 cos t + y0 sin t and lam_t = 1/(cos^2 t / lam + lam sin^2 t)."""
    if not lam > 0:
        raise DomainError("width parameter must be positive")
    c, s = math.cos(t), math.sin(t)
    return GaussianEvolution(
        t=t,
        c_t=x0 * c + y0 * s,
        lam_t=1.0 / (c * c / lam + lam * s * s),
    )


@dataclass(frozen=True)
class GaussianWavePacket:
    """phi_h(x) = (lam/(pi h))^(1/4) exp(-lam (x-x0)^2/(2h) + i y0 x / h)."""

    lam: float
    x0: float
    y0: float
    h: float

    def __post_init__(self):
        if not (self.lam > 0 and self.h > 0):
            raise DomainError("width parameter and h must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        amp = (self.lam / (math.pi * self.h)) ** 0.25
        return amp * np.exp(
            -self.lam * (x - self.x0) ** 2 / (2.0 * self.h)
            + 1j * self.y0 * x / self.h
        )


@dataclass(frozen=True)
class WaveProfile:
    """A wave sampled on its own (possibly band-truncated) Gauss-Hermite grid.

    qweights are plain integration weights: int f(x) dx ~= sum qw_i f(x_i)
    for f decaying at least like the envelope.  scale is the grid scale s
    in nodes = c + s*xi, with c the envelope's center.  meta carries the
    source packet parameters and the accumulated rotation angle, used only
    for placing the next output grid.
    """

    nodes: np.ndarray
    qweights: np.ndarray
    values: np.ndarray
    scale: float
    meta: tuple | None = None  # (lam, x0, y0, accumulated_angle)

    def norm_sq(self) -> float:
        return float(np.sum(self.qweights * np.abs(self.values) ** 2))

    def mean(self) -> float:
        w = self.qweights * np.abs(self.values) ** 2
        return float(np.sum(w * self.nodes) / np.sum(w))

    def variance(self) -> float:
        w = self.qweights * np.abs(self.values) ** 2
        m = np.sum(w * self.nodes) / np.sum(w)
        return float(np.sum(w * (self.nodes - m) ** 2) / np.sum(w))


def _grid_for(center: float, scale: float, n_nodes: int):
    """GH nodes/plain weights matched to an amplitude envelope
    exp(-(x-center)^2 / scale^2)."""
    xi, w = gauss_hermite(n_nodes)
    nodes = center + scale * xi
    qweights = scale * w * np.exp(xi * xi)
    return nodes, qweights


def to_profile(packet: GaussianWavePacket, n_nodes: int = 128) -> WaveProfile:
    """Sample a packet on the GH grid matched to its envelope."""
    scale = math.sqrt(2.0 * packet.h / packet.lam)
    nodes, qweights = _grid_for(packet.x0, scale, n_nodes)
    return WaveProfile(
        nodes=nodes,
        qweights=qweights,
        values=packet(nodes),
        scale=scale,
        meta=(packet.lam, packet.x0, packet.y0, 0.0),
    )


def propagator_kernel(y, x, t: float, h: float):
    """Oscillator propagator G(y, x, t) for sin t != 0."""
    st = math.sin(t)
    if abs(st) < 1e-8:
        raise SingularTime(f"propagator singular at t = {t!r}")
    ct = math.cos(t) / st  # cot t
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    pref = 1.0 / np.sqrt(1j * 2.0 * math.pi * h * st)
    return pref * np.exp(
        1j / h * (0.5 * ct * (y * y + x * x) - y * x / st)
    )


def _output_window(profile: WaveProfile, t: float, h: float):
    if profile.meta is None:
        raise DomainError(
            "propagation of a generic profile needs packet metadata "
            "(build it with to_profile)"
        )
    lam, x0, y0, angle = profile.meta
    evo = gaussian_evolution_params(x0, y0, lam, angle + t)
    return evo.c_t, evo.lam_t, (lam, x0, y0, angle + t)


def _band_limit(profile: WaveProfile, sin_t: float, h: float) -> float:
    """Largest |y - c_out| the input rule can resolve.

    The kernel's linear phase seen by the input grid is
    b(y) = |y - c_out| * scale_in / (h |sin t|) per unit xi; a GH-type rule
    stays accurate up to b ~ 1.2 * pi / (min xi spacing), its empirical
    oscillatory bandwidth.  Output nodes beyond the band would collect
    quadrature noise instead of the (tiny) true values, so they are
    dropped.
    """
    dxi = float(np.min(np.diff(profile.nodes))) / profile.scale
    b_max = 1.2 * math.pi / dxi
    return b_max * h * abs(sin_t) / profile.scale


def _truncated_output(profile, c_out, lam_out, sin_t, h):
    sigma_out = math.sqrt(0.5 * h / lam_out)
    band = _band_limit(profile, sin_t, h)
    # 6.5 sigma keeps norm/variance truncation below ~1e-12/1e-8
    if band < 6.5 * sigma_out:
        raise QuadratureFailure(
            f"input grid resolves only {band / sigma_out:.1f} output sigmas; "
            "increase the input node count"
        )
    scale = math.sqrt(2.0 * h / lam_out)
    nodes, qweights = _grid_for(c_out, scale, _OUTPUT_NODES)
    keep = np.abs(nodes - c_out) <= band
    return nodes[keep], qweights[keep], scale


def propagate(profile: WaveProfile, t: float, h: float) -> WaveProfile:
    """Numerically propagate a sampled wave by angle t.

    Quadrature of int G(y, x, t) phi(x) dx over the profile's own grid,
    evaluated on the _OUTPUT_NODES = 128 node GH grid of the
    analytically-placed output envelope.
    The propagator is unitary, so a result whose squared norm drifts from
    the input's by more than 1e-8 relative is refused (QuadratureFailure).
    """
    st = math.sin(t)
    if abs(st) < 1e-8:
        raise SingularTime(f"propagation singular at t = {t!r}")
    c_out, lam_out, meta = _output_window(profile, t, h)
    out_nodes, out_qw, scale = _truncated_output(profile, c_out, lam_out, st, h)
    kernel = propagator_kernel(out_nodes[:, None], profile.nodes[None, :], t, h)
    values = kernel @ (profile.qweights * profile.values)
    out = WaveProfile(
        nodes=out_nodes, qweights=out_qw, values=values, scale=scale, meta=meta
    )
    norm_in = profile.norm_sq()
    drift = abs(out.norm_sq() - norm_in)
    if not drift <= 1e-8 * norm_in:
        raise QuadratureFailure(f"squared norm drifts by {drift:.2e} at t={t!r} (bound 1e-8)")
    return out


def h_fourier(profile: WaveProfile, h: float) -> WaveProfile:
    """h-scaled Fourier transform
    (2 pi e^{i pi/2} h)^(-1/2) int exp(-i y x / h) phi(x) dx, on the
    output grid of propagate."""
    c_out, lam_out, meta = _output_window(profile, math.pi / 2.0, h)
    out_nodes, out_qw, scale = _truncated_output(profile, c_out, lam_out, 1.0, h)
    pref = 1.0 / np.sqrt(1j * 2.0 * math.pi * h)
    kernel = pref * np.exp(-1j * out_nodes[:, None] * profile.nodes[None, :] / h)
    values = kernel @ (profile.qweights * profile.values)
    return WaveProfile(
        nodes=out_nodes, qweights=out_qw, values=values, scale=scale, meta=meta
    )
