"""Quantum-mechanical reference objects: coherent states, their Wigner
functions, the oscillator propagator, and the Gaussian evolution law.

These supply independent oracles for the tomography layer: rotating a
Gaussian wave packet by the propagator reproduces the same interpolation
of centers and widths that the thermodynamic construction uses, and the
quarter-period propagator is the h-Fourier transform.

Normalization: the coherent-state and packet prefactors are chosen to give
unit L2 norm, (lam/(2 pi hbar))^(1/4) and (lam/(pi h))^(1/4) respectively.

Propagation is spectral.  The eigenfunctions psi_k of H = (p^2 + x^2)/2
with hbar = h evolve as U(t) psi_k = e^{-i(k+1/2)t} psi_k (the Mehler, or
Hermite-function, expansion), so propagate projects the profile onto
psi_0 .. psi_{K-1} and resums with those phases, on the profile's own
nodes.  There is no 1/sin t and no band limit: every t, 0 and pi
included, is an ordinary time.  The psi_k come from the normalised
three-term recurrence, with a per-node exponent so that e^{-x^2/(2h)}
never underflows, and K = R^2/(2h) + 20 with R the largest |node|.

to_profile samples a packet of width lam centred at (x0, y0) on the
uniform grid [-R, R] with R = |(x0, y0)| + 12 sqrt(h max(lam, 1/lam)/2),
which holds the packet's phase-space ellipse at every rotation angle, and
spacing at most pi h/(1.5 R), so momenta up to 1.5 R lie below the
Nyquist limit.  The node count, about 3 R^2/(pi h), is capped at
_MAX_NODES = 2^14 (DomainError above it), which bounds a call's time:
for a centred packet that admits 1/238 <= lam <= 238 at any h, and an
off-centre packet less.  The work grows as nodes x terms, both like
max(lam, 1/lam): a propagate at lam = 146 took 1.2-2.8 s on a 2-vCPU
x86_64 VM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure

# Largest node count to_profile builds.
_MAX_NODES = 2**14
# Rows of the h-Fourier matrix built at a time.
_FOURIER_ROWS = 64


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
    """A wave sampled on a uniform grid of nodes.

    qweights are plain integration weights, int f(x) dx ~= sum qw_i f(x_i),
    for f decaying within the grid.
    """

    nodes: np.ndarray
    qweights: np.ndarray
    values: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(self.qweights * np.abs(self.values) ** 2))

    def mean(self) -> float:
        w = self.qweights * np.abs(self.values) ** 2
        return float(np.sum(w * self.nodes) / np.sum(w))

    def variance(self) -> float:
        w = self.qweights * np.abs(self.values) ** 2
        m = np.sum(w * self.nodes) / np.sum(w)
        return float(np.sum(w * (self.nodes - m) ** 2) / np.sum(w))


def to_profile(packet: GaussianWavePacket) -> WaveProfile:
    """Sample a packet on the uniform grid that holds it at every rotation
    angle (module docstring); DomainError above _MAX_NODES nodes."""
    sd = math.sqrt(0.5 * packet.h * max(packet.lam, 1.0 / packet.lam))
    radius = math.hypot(packet.x0, packet.y0) + 12.0 * sd
    half = math.ceil(radius * 1.5 * radius / (math.pi * packet.h))
    if not 2 * half + 1 <= _MAX_NODES:
        raise DomainError(
            f"packet needs {2 * half + 1:.3g} grid nodes, more than {_MAX_NODES}"
        )
    nodes = np.arange(-half, half + 1) * (radius / half)
    return WaveProfile(
        nodes=nodes, qweights=np.full(len(nodes), radius / half), values=packet(nodes)
    )


def _eigenfunctions(x: np.ndarray, h: float, count: int):
    """Yield psi_0(x) .. psi_{count-1}(x), the normalised eigenfunctions of
    (p^2 + x^2)/2 with hbar = h.  Each node carries the exponent s of
    psi_k = v * e^s, raised whenever |v| passes 1e100, so that the
    Gaussian factor e^{-x^2/(2h)} never underflows on the way up."""
    xi = x / math.sqrt(h)
    v_prev = np.zeros_like(xi)
    v = np.full_like(xi, (math.pi * h) ** -0.25)
    s = -0.5 * xi * xi
    for k in range(count):
        yield v * np.exp(s)
        v_prev, v = v, math.sqrt(2.0 / (k + 1)) * xi * v - math.sqrt(k / (k + 1)) * v_prev
        big = np.abs(v) > 1e100
        if big.any():
            v[big] *= 1e-100
            v_prev[big] *= 1e-100
            s[big] += 100.0 * math.log(10.0)


def propagate(profile: WaveProfile, t: float, h: float) -> WaveProfile:
    """Propagate a sampled wave by angle t on its own nodes.

    One pass projects c_k = sum qw psi_k phi, a second resums
    sum c_k e^{-i(k+1/2)t} psi_k; K = R^2/(2h) + 20 terms, R the largest
    |node|.  The propagator is unitary, so a result whose squared norm
    drifts from the input's by more than 1e-8 relative is refused
    (QuadratureFailure): that is what an unresolved grid gives.
    """
    radius = float(np.max(np.abs(profile.nodes)))
    count = math.ceil(radius * radius / (2.0 * h)) + 20
    weighted = profile.qweights * profile.values
    coeffs = np.array([weighted @ psi for psi in _eigenfunctions(profile.nodes, h, count)])
    phased = coeffs * np.exp(-1j * (np.arange(count) + 0.5) * t)
    values = np.zeros(len(profile.nodes), dtype=complex)
    for c, psi in zip(phased, _eigenfunctions(profile.nodes, h, count)):
        values += c * psi
    out = WaveProfile(nodes=profile.nodes, qweights=profile.qweights, values=values)
    norm_in = profile.norm_sq()
    drift = abs(out.norm_sq() - norm_in)
    if not drift <= 1e-8 * norm_in:
        raise QuadratureFailure(f"squared norm drifts by {drift:.2e} at t={t!r} (bound 1e-8)")
    return out


def h_fourier(profile: WaveProfile, h: float) -> WaveProfile:
    """h-scaled Fourier transform
    (2 pi i h)^(-1/2) int exp(-i y x / h) phi(x) dx, by direct quadrature
    on the profile's own nodes, _FOURIER_ROWS output nodes at a time."""
    x = profile.nodes
    weighted = profile.qweights * profile.values / np.sqrt(2j * math.pi * h)
    values = np.concatenate([
        np.exp(-1j * x[lo:lo + _FOURIER_ROWS, None] * x[None, :] / h) @ weighted
        for lo in range(0, len(x), _FOURIER_ROWS)
    ])
    return WaveProfile(nodes=x, qweights=profile.qweights, values=values)
