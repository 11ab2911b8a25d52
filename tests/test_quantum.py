import math

import numpy as np
import pytest

from thermoflux.core import ManifoldPoint, OscillatorEnsemble, quasi_fluctuations
from thermoflux.errors import DomainError, QuadratureFailure, SingularTime
from thermoflux.quadrature import gauss_hermite
from thermoflux.quantum import (
    CoherentState,
    GaussianWavePacket,
    gaussian_evolution_params,
    h_fourier,
    propagate,
    propagator_kernel,
    to_profile,
    wigner_coherent,
)
from thermoflux.tomography import gaussian_limit, gaussian_tomogram_family, make_grid
from thermoflux.verify import suite_quantum


def _wigner_quad(state, f, n=80):
    """2D Gauss-Hermite quadrature of f(p, q) * W(p, q) / (2 pi hbar)."""
    lam, hbar = state.lam, state.hbar
    xi, w = gauss_hermite(n)
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
    xi, w = gauss_hermite(96)
    x = st.q0 + xi * math.sqrt(2.0 * st.hbar / st.lam)
    qw = w * math.sqrt(2.0 * st.hbar / st.lam) * np.exp(xi * xi)
    assert np.sum(qw * np.abs(st.psi(x)) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_nodes", [371, 512])
def test_profile_refuses_overflowing_rule(n_nodes):
    # numpy's hermgauss weights are all zero at 371 nodes, non-finite from 372
    with pytest.raises(DomainError):
        to_profile(GaussianWavePacket(lam=2.0, x0=0.3, y0=-0.2, h=0.1), n_nodes=n_nodes)


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


def test_singular_time():
    h = 0.1
    prof = to_profile(GaussianWavePacket(lam=1.0, x0=0.0, y0=0.0, h=h))
    with pytest.raises(SingularTime):
        propagate(prof, 0.0, h)
    with pytest.raises(SingularTime):
        propagate(prof, math.pi, h)
    with pytest.raises(SingularTime):
        propagator_kernel(0.0, 0.0, 2 * math.pi, h)


@pytest.mark.parametrize("lam, t", [(0.75, 0.449), (0.5, 0.698)])
def test_propagate_refuses_non_unitary_result(lam, t):
    # the band guard lets these short times through, but the quadrature
    # changes the squared norm by 3.6e-5 and 1.6e-6
    h = 0.1
    prof = to_profile(GaussianWavePacket(lam=lam, x0=0.3, y0=-0.2, h=h))
    with pytest.raises(QuadratureFailure, match="squared norm"):
        propagate(prof, t, h)


def test_propagator_kernel_at_halfturn_is_fourier_kernel():
    h = 0.2
    y, x = 0.37, -0.81
    g = propagator_kernel(y, x, math.pi / 2, h)
    ref = np.exp(-1j * y * x / h) / np.sqrt(1j * 2 * math.pi * h)
    assert abs(g - ref) < 1e-14


def test_generic_profile_needs_metadata():
    prof = to_profile(GaussianWavePacket(lam=1.0, x0=0.0, y0=0.0, h=0.1))
    stripped = type(prof)(
        nodes=prof.nodes,
        qweights=prof.qweights,
        values=prof.values,
        scale=prof.scale,
        meta=None,
    )
    with pytest.raises(DomainError):
        propagate(stripped, 0.7, 0.1)


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

    toms = gaussian_tomogram_family(fl.variance_eps, fl.variance_beta, 64)
    prof = to_profile(GaussianWavePacket(lam=alpha.lam, x0=0.0, y0=0.0, h=h))
    for wave, tom in ((prof, toms[0]), (h_fourier(prof, h), toms[32])):
        peak = tom.density(0.0)
        assert np.abs(np.abs(wave.values) ** 2 - tom.density(wave.nodes)).max() < 1e-12 * peak


def test_pauli_correspondence_is_a_verify_invariant():
    rows = {name: ok for name, ok, _ in suite_quantum(0)}
    assert rows["pauli-correspondence"]
