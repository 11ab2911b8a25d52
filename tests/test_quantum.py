import math

import numpy as np
import pytest

from thermoflux.core import ManifoldPoint, OscillatorEnsemble, quasi_fluctuations
from thermoflux.errors import DomainError, QuadratureFailure
from thermoflux.quantum import (
    CoherentState,
    GaussianWavePacket,
    WaveProfile,
    gaussian_evolution_params,
    h_fourier,
    propagate,
    to_profile,
    wigner_coherent,
)
from thermoflux.tomography import gaussian_limit, gaussian_tomogram_family, make_grid
from thermoflux.verify import suite_quantum


def _wigner_quad(state, f, n=80):
    """2D Gauss-Hermite quadrature of f(p, q) * W(p, q) / (2 pi hbar)."""
    lam, hbar = state.lam, state.hbar
    xi, w = np.polynomial.hermite.hermgauss(n)
    q = state.q0 + xi * math.sqrt(2.0 * hbar / lam)
    p = state.p0 + xi * math.sqrt(lam * hbar / 2.0)
    wq = w * math.sqrt(2.0 * hbar / lam) * np.exp(xi * xi)
    wp = w * math.sqrt(lam * hbar / 2.0) * np.exp(xi * xi)
    vals = wigner_coherent(state, p[None, :], q[:, None]) * f(p[None, :], q[:, None])
    return float(np.real(np.sum(wq[:, None] * wp[None, :] * vals))) / (2 * math.pi * hbar)


def test_wigner_center_value():
    st = CoherentState(p0=0.4, q0=-1.0, lam=1.7, hbar=0.3)
    assert wigner_coherent(st, 0.4, -1.0) == 2.0


def test_wigner_mass_and_variances():
    st = CoherentState(p0=0.2, q0=0.5, lam=2.0, hbar=0.25)
    assert _wigner_quad(st, lambda p, q: 1.0) == pytest.approx(1.0, abs=1e-10)
    var_q = _wigner_quad(st, lambda p, q: (q - st.q0) ** 2)
    var_p = _wigner_quad(st, lambda p, q: (p - st.p0) ** 2)
    assert var_q == pytest.approx(st.hbar / st.lam, rel=1e-10)
    assert var_p == pytest.approx(st.lam * st.hbar / 4.0, rel=1e-10)
    assert var_q * var_p == pytest.approx(st.hbar**2 / 4.0, rel=1e-10)


def test_coherent_state_normalized():
    st = CoherentState(p0=0.3, q0=0.1, lam=0.8, hbar=0.5)
    xi, w = np.polynomial.hermite.hermgauss(96)
    x = st.q0 + xi * math.sqrt(2.0 * st.hbar / st.lam)
    qw = w * math.sqrt(2.0 * st.hbar / st.lam) * np.exp(xi * xi)
    assert np.sum(qw * np.abs(st.psi(x)) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_profile_refuses_a_packet_past_the_node_cap():
    # the grid rule asks for about 1e5 nodes here, past the cap of 2^14
    with pytest.raises(DomainError, match="grid nodes"):
        to_profile(GaussianWavePacket(lam=1.0, x0=1.0, y0=0.0, h=1e-5))


def test_profile_grid_holds_the_packet_at_every_angle():
    h, lam, x0, y0 = 0.2, 18.1, 0.3, -0.4
    prof = to_profile(GaussianWavePacket(lam=lam, x0=x0, y0=y0, h=h))
    radius = math.hypot(x0, y0) + 12.0 * math.sqrt(h * lam / 2.0)
    assert len(prof.nodes) % 2 == 1
    assert prof.nodes[-1] == pytest.approx(radius, rel=1e-15) and prof.nodes[0] == -prof.nodes[-1]
    spacing = np.diff(prof.nodes)
    assert np.allclose(spacing, prof.qweights[0], rtol=1e-12)
    assert np.all(prof.qweights == prof.qweights[0])
    assert prof.qweights[0] <= math.pi * h / (1.5 * radius)


def test_packet_profile_normalized():
    prof = to_profile(GaussianWavePacket(lam=2.0, x0=0.3, y0=-0.2, h=0.1))
    assert prof.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert prof.mean() == pytest.approx(0.3, abs=1e-12)
    assert prof.variance() == pytest.approx(0.1 / (2 * 2.0), rel=1e-10)


def test_halfturn_equals_fourier():
    h = 0.1
    prof = to_profile(GaussianWavePacket(lam=2.0, x0=0.3, y0=-0.2, h=h))
    a = propagate(prof, math.pi / 2, h)
    b = h_fourier(prof, h)
    assert np.abs(a.values - b.values).max() < 1e-8


def test_width_evolution_closed_form():
    h, lam = 0.1, 2.0
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.0, y0=0.0, h=h))
    for t in (math.pi / 6, math.pi / 4, math.pi / 3):
        out = propagate(prof, t, h)
        evo = gaussian_evolution_params(0.0, 0.0, lam, t)
        assert out.variance() == pytest.approx(evo.variance(h), abs=1e-6)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-8)


def test_halfturn_width_inverts_lambda():
    h, lam = 0.05, 2.0
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.0, y0=0.0, h=h))
    out = propagate(prof, math.pi / 2, h)
    # lam_{pi/2} = 1/lam: variance h/(2*lam_t) = h*lam/2
    assert out.variance() == pytest.approx(h * lam / 2.0, rel=1e-8)


def test_symmetric_packet_is_invariant():
    h = 0.1
    prof = to_profile(GaussianWavePacket(lam=1.0, x0=0.0, y0=0.0, h=h))
    for t in (0.6, 1.0, 2.2):
        out = propagate(prof, t, h)
        assert out.variance() == pytest.approx(h / 2.0, rel=1e-9)
        assert abs(out.mean()) < 1e-12


def test_center_rotation():
    h = 0.1
    x0, y0 = 1.0, 1.0
    prof = to_profile(GaussianWavePacket(lam=1.0, x0=x0, y0=y0, h=h))
    out = propagate(prof, math.pi / 4, h)
    assert out.mean() == pytest.approx(math.sqrt(2.0), rel=1e-10)
    evo = gaussian_evolution_params(x0, y0, 1.0, math.pi / 4)
    assert evo.c_t == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_group_property_on_widths():
    h, lam = 0.1, 2.0
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.1, y0=0.0, h=h))
    t1, t2 = math.pi / 6, math.pi / 4
    chained = propagate(propagate(prof, t1, h), t2, h)
    evo = gaussian_evolution_params(0.1, 0.0, lam, t1 + t2)
    assert chained.variance() == pytest.approx(evo.variance(h), abs=1e-6)
    assert chained.norm_sq() == pytest.approx(1.0, abs=1e-6)


def test_gaussian_evolution_params_endpoints():
    evo0 = gaussian_evolution_params(0.7, -0.3, 1.9, 0.0)
    assert (evo0.c_t, evo0.lam_t) == (0.7, pytest.approx(1.9, rel=1e-15))
    evo1 = gaussian_evolution_params(0.7, -0.3, 1.9, math.pi / 2)
    assert evo1.c_t == pytest.approx(-0.3, abs=1e-15)
    assert evo1.lam_t == pytest.approx(1.0 / 1.9, rel=1e-12)


@pytest.mark.parametrize("lam", [0.255, 2.0, 18.1])
def test_propagate_at_zero_and_half_period(lam):
    # U(0) psi = psi and U(pi) psi(x) = -i psi(-x), with no singular time
    h = 0.2
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.3, y0=-0.2, h=h))
    peak = np.abs(prof.values).max()
    assert np.abs(propagate(prof, 0.0, h).values - prof.values).max() < 1e-12 * peak
    flipped = -1j * prof.values[::-1]
    assert np.abs(propagate(prof, math.pi, h).values - flipped).max() < 1e-12 * peak


@pytest.mark.parametrize("lam, t", [(0.75, 0.449), (0.5, 0.698)])
def test_short_times_keep_the_norm(lam, t):
    # short times at lam < 1, which the kernel quadrature refused
    h = 0.1
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.3, y0=-0.2, h=h))
    assert abs(propagate(prof, t, h).norm_sq() - 1.0) < 1e-8


@pytest.mark.parametrize("lam, t", [(0.75, 0.449), (0.5, 0.698)])
def test_propagate_refuses_non_unitary_result(lam, t):
    # every 6th node of the profile leaves the high eigenfunctions
    # unresolved, so the projection aliases and the norm drifts by O(1)
    h = 0.1
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.3, y0=-0.2, h=h))
    coarse = WaveProfile(
        nodes=prof.nodes[::6], qweights=6.0 * prof.qweights[::6], values=prof.values[::6]
    )
    with pytest.raises(QuadratureFailure, match="squared norm"):
        propagate(coarse, t, h)


def test_type_guards():
    with pytest.raises(DomainError):
        CoherentState(p0=0.0, q0=0.0, lam=-1.0, hbar=1.0)
    with pytest.raises(DomainError):
        GaussianWavePacket(lam=1.0, x0=0.0, y0=0.0, h=0.0)
    with pytest.raises(DomainError):
        gaussian_evolution_params(0.0, 0.0, -2.0, 0.3)


@pytest.mark.parametrize("beta_a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [10.0, 100.0])
def test_pauli_correspondence(beta_a, n):
    # the thermal objects at a = 1 are the quantum ones at hbar = h = 2/n
    # for a packet of width lam (the paper's 2 k_B / N in the role of hbar)
    h = 2.0 / n
    alpha = ManifoldPoint.from_beta(beta_a, OscillatorEnsemble(a=1.0, n=n))
    fl = quasi_fluctuations(alpha, n)
    x, y = make_grid(math.sqrt(fl.variance_eps), math.sqrt(fl.variance_beta), (41, 41), 6.0)
    thermal = 2.0 * math.pi * h * gaussian_limit(alpha, n, x, y).values
    state = CoherentState(p0=0.0, q0=0.0, lam=2.0 * alpha.lam, hbar=h)
    assert np.abs(thermal - state.wigner(y[None, :], x[:, None])).max() < 1e-12 * thermal.max()

    toms = gaussian_tomogram_family(fl.variance_eps, fl.variance_beta, 16)
    prof = to_profile(GaussianWavePacket(lam=alpha.lam, x0=0.0, y0=0.0, h=h))
    for k, tom in enumerate(toms):
        wave = propagate(prof, k * math.pi / 16, h)
        peak = tom.density(0.0)
        assert np.abs(np.abs(wave.values) ** 2 - tom.density(wave.nodes)).max() < 1e-12 * peak


def test_pauli_correspondence_is_a_verify_invariant():
    rows = {name: ok for name, ok, _ in suite_quantum(0)}
    assert rows["pauli-correspondence"]
