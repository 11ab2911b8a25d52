import math

import mpmath
import numpy as np
import pytest

from thermoflux.core import (
    ManifoldPoint,
    OscillatorEnsemble,
    ThermoState,
    energy_stats,
    entropy_stat,
    legendre_phi,
    log_partition,
    quasi_fluctuations,
    specific_entropy,
)
from thermoflux.errors import DivergentPartition, DomainError

# frozen to 40-digit evaluations of the closed forms
LOGZ1 = 0.45867514538708189
MEAN1 = 0.58197670686932642
VAR1 = 0.92067359420779232
S111 = 1.3862943611198906  # 2 log 2
LOG2 = 0.69314718055994531

ENS1 = OscillatorEnsemble(a=1.0, n=1.0)
ST1 = ThermoState(beta=1.0)


def test_log_partition_value():
    assert log_partition(ST1, ENS1) == pytest.approx(LOGZ1, abs=1e-14)


def test_log_partition_ground_state_limit():
    assert log_partition(ThermoState(beta=800.0), ENS1) == pytest.approx(0.0, abs=1e-300)


def test_log_partition_extensive():
    big = OscillatorEnsemble(a=1.0, n=10.0)
    assert log_partition(ST1, big) == pytest.approx(10.0 * LOGZ1, rel=1e-15)


def test_log_partition_divergent():
    with pytest.raises(DivergentPartition):
        log_partition(ThermoState(beta=-1.0), ENS1)
    with pytest.raises(DivergentPartition):
        log_partition(ST1, OscillatorEnsemble(a=-1.0, n=1.0))


def test_energy_stats_values():
    es = energy_stats(ST1, ENS1)
    assert es.mean == pytest.approx(MEAN1, abs=1e-14)
    assert es.variance == pytest.approx(VAR1, abs=1e-14)


def test_energy_stats_extensivity():
    es1 = energy_stats(ST1, ENS1)
    es100 = energy_stats(ST1, OscillatorEnsemble(a=1.0, n=100.0))
    assert es100.mean == pytest.approx(100.0 * es1.mean, rel=1e-15)
    assert es100.variance == pytest.approx(100.0 * es1.variance, rel=1e-15)


def test_energy_stats_deep_quantum_regime_is_stable():
    # exp(beta*a) would overflow; the occupation form must not
    es = energy_stats(ThermoState(beta=800.0), ENS1)
    assert es.mean == 0.0
    assert es.variance == 0.0
    # the manifold point needs eps > 0 for its curvature 1/(eps(eps + a))
    with pytest.raises(DomainError):
        ManifoldPoint.from_beta(800.0, ENS1)
    # eps is subnormal at beta*a = 720, so the curvature overflows
    with pytest.raises(DomainError):
        ManifoldPoint.from_beta(720.0, ENS1)


def test_entropy_value_and_limits():
    assert entropy_stat(ENS1, 1.0) == pytest.approx(S111, abs=1e-14)
    assert entropy_stat(ENS1, 1e-12) < 1e-10  # third-law limit
    with pytest.raises(DomainError):
        entropy_stat(ENS1, 0.0)


def test_entropy_homogeneity_exact():
    assert entropy_stat(OscillatorEnsemble(a=1.0, n=2.0), 2.0) == 2.0 * entropy_stat(ENS1, 1.0)


def test_entropy_homogeneity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.2, 3.0)
        n = rng.uniform(0.5, 50.0)
        e = rng.uniform(0.1, 20.0)
        lam = rng.uniform(0.5, 4.0)
        s1 = entropy_stat(OscillatorEnsemble(a=a, n=lam * n), lam * e)
        s0 = entropy_stat(OscillatorEnsemble(a=a, n=n), e)
        assert s1 == pytest.approx(lam * s0, rel=1e-13)


def test_specific_entropy_derivatives():
    s, s1, s2 = specific_entropy(1.0, ENS1)
    assert s1 == pytest.approx(LOG2, abs=1e-15)
    assert s2 == pytest.approx(-0.5, abs=1e-15)


def test_specific_entropy_fd_crosscheck():
    # central finite differences of s reproduce the closed-form s' and s''
    h = 1e-5
    for eps, a in ((1.0, 1.0), (0.37, 2.1), (5.0, 0.4)):
        ens = OscillatorEnsemble(a=a, n=1.0)
        sm = specific_entropy(eps - h, ens)[0]
        s0, s1, s2 = specific_entropy(eps, ens)
        sp = specific_entropy(eps + h, ens)[0]
        assert (sp - sm) / (2 * h) == pytest.approx(s1, rel=1e-8)
        assert (sp - 2 * s0 + sm) / h**2 == pytest.approx(s2, rel=1e-5)


def test_specific_entropy_concavity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eps, a = rng.uniform(1e-2, 10.0, 2)
        assert specific_entropy(eps, OscillatorEnsemble(a=a, n=1.0))[2] < 0


def test_legendre_phi_value_and_involution():
    phi, phi2 = legendre_phi(ST1, ENS1)
    assert phi == pytest.approx(LOGZ1, abs=1e-13)
    alpha = ManifoldPoint.from_beta(1.0, ENS1)
    assert alpha.lam * phi2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("beta", [20.0, 30.0, 40.0])
def test_closed_forms_at_large_beta_a(beta):
    # -log(a/eps) and (1 + eps/a) log1p(a/eps) are both ~ beta*a here and
    # cancel; so do -beta*eps and s(eps) in the Legendre form of phi
    a, n = 1.0, 10.0
    with mpmath.workdps(60):
        q = mpmath.exp(-mpmath.mpf(beta) * a)
        nbar = q / (1 - q)
        s_ref = float((1 + nbar) * mpmath.log1p(nbar) - nbar * mpmath.log(nbar))
        phi_ref = float(-mpmath.log1p(-q))
    ens, st = OscillatorEnsemble(a=a, n=n), ThermoState(beta=beta)
    alpha = ManifoldPoint.from_beta(beta, ens)
    entropy = entropy_stat(ens, energy_stats(st, ens).mean)
    assert entropy == pytest.approx(n * s_ref, rel=1e-12, abs=0)
    assert specific_entropy(alpha.epsilon, ens)[0] == pytest.approx(s_ref, rel=1e-12, abs=0)
    assert legendre_phi(st, ens)[0] == pytest.approx(phi_ref, rel=1e-12, abs=0)
    assert log_partition(st, ens) == pytest.approx(n * phi_ref, rel=1e-12, abs=0)


def test_legendre_stationarity():
    # the conjugate variable eps(beta) solves -beta + s'(eps) = 0
    alpha = ManifoldPoint.from_beta(0.7, OscillatorEnsemble(a=1.3, n=1.0))
    _, s1, _ = specific_entropy(alpha.epsilon, OscillatorEnsemble(a=1.3, n=1.0))
    assert s1 == pytest.approx(0.7, rel=1e-14)


def test_manifold_consistency_sweep():
    rng = np.random.default_rng(11)
    for _ in range(100):
        eps = 10.0 ** rng.uniform(-2, 2)
        a = 10.0 ** rng.uniform(-2, 2)
        ens = OscillatorEnsemble(a=a, n=1.0)
        alpha = ManifoldPoint.from_energy(eps, ens)
        assert alpha.beta == pytest.approx(math.log1p(a / eps) / a, rel=1e-12)
        back = ManifoldPoint.from_beta(alpha.beta, ens)
        assert back.epsilon == pytest.approx(eps, rel=1e-12)
        assert alpha.lam > 0


def test_quasi_fluctuations_example():
    alpha = ManifoldPoint.from_energy(1.0, ENS1)
    fl = quasi_fluctuations(alpha, 100.0)
    assert fl.variance_eps == pytest.approx(0.02, abs=1e-16)
    assert fl.variance_beta == pytest.approx(0.005, abs=1e-16)


def test_uncertainty_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        eps, a = rng.uniform(0.05, 8.0, 2)
        n = rng.uniform(2.0, 1e4)
        fl = quasi_fluctuations(ManifoldPoint.from_energy(eps, OscillatorEnsemble(a=a, n=1.0)), n)
        assert fl.variance_eps * fl.variance_beta * n * n == pytest.approx(1.0, rel=1e-14)


def test_gibbs_variance_equals_quasi():
    # exp(beta*a) * eps^2 == eps*(eps+a): exact for oscillators
    es = energy_stats(ST1, ENS1)
    alpha = ManifoldPoint.from_beta(1.0, ENS1)
    assert es.variance == pytest.approx(1.0 / alpha.lam, rel=1e-13)


def test_fluctuation_densities_normalized():
    alpha = ManifoldPoint.from_energy(1.0, ENS1)
    fl = quasi_fluctuations(alpha, 100.0)
    x = np.linspace(-10, 10, 20001) * math.sqrt(fl.variance_eps)
    mass = np.trapezoid(fl.density_eps(x), x)
    assert mass == pytest.approx(1.0, abs=1e-9)
    y = np.linspace(-10, 10, 20001) * math.sqrt(fl.variance_beta)
    assert np.trapezoid(fl.density_beta(y), y) == pytest.approx(1.0, abs=1e-9)


def test_type_invariants():
    with pytest.raises(DomainError):
        OscillatorEnsemble(a=0.0, n=1.0)
    with pytest.raises(DomainError):
        OscillatorEnsemble(a=1.0, n=0.0)
    assert not OscillatorEnsemble(a=-1.0, n=1.0).physical_spectrum
