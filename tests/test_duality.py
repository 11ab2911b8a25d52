import math

import numpy as np
import pytest

from thermoflux.duality import (
    dual_fluctuation_variances,
    phi,
    phi_prime,
    solve_remark1,
    solve_symmetric,
    verify_duality,
)
from thermoflux.errors import DomainError

# frozen 40-digit solves at (a, beta) = (1, 1)
SYM_Y = -0.85657627342453056
SYM_BETA = 0.93079905455552024
SYM_A = -0.92025907120583302
R1_Y = 0.082649709225836218
R1_A = 0.086161269630487557
R1_BETA = 0.95924432845858624
PHI_1 = 1.5819767068693264


def test_phi_values():
    assert phi(0.0) == 1.0
    assert phi(1.0) == pytest.approx(PHI_1, abs=1e-15)
    assert phi(-1.0) == pytest.approx(PHI_1 - 1.0, abs=1e-15)


def test_phi_reflection_identity():
    # phi(z) * phi(-z) = (z / (2 sinh(z/2)))^2
    for z in (0.3, 1.7, 5.0, -2.2):
        target = (z / (2.0 * math.sinh(z / 2.0))) ** 2
        assert phi(z) * phi(-z) == pytest.approx(target, rel=1e-13)


def test_phi_monotone_and_limits():
    z = np.linspace(-40.0, 40.0, 4001)
    vals = np.array([phi(float(v)) for v in z])
    assert np.all(np.diff(vals) > 0)
    assert phi(-80.0) < 1e-30
    assert phi(80.0) == pytest.approx(80.0, rel=1e-12)


def test_phi_series_joins_direct_branch():
    # continuity across the small-|z| series switch at 1e-8
    for z in (9.9e-9, 1.01e-8, -9.9e-9, -1.01e-8):
        direct = z / (-math.expm1(-z))
        assert phi(z) == pytest.approx(direct, rel=1e-13)


def test_phi_prime_matches_fd():
    for z in (-3.0, -0.5, 1e-7, 0.4, 2.5):
        h = 1e-6
        fd = (phi(z + h) - phi(z - h)) / (2 * h)
        assert phi_prime(z) == pytest.approx(fd, rel=1e-8)


def test_solve_symmetric_frozen_values():
    pair = solve_symmetric(1.0, 1.0, 100.0)
    assert pair.beta_dual * pair.a_dual == pytest.approx(SYM_Y, abs=1e-11)
    assert pair.beta_dual == pytest.approx(SYM_BETA, abs=1e-11)
    assert pair.a_dual == pytest.approx(SYM_A, abs=1e-11)
    assert pair.unphysical_spectrum
    assert max(pair.residuals) < 1e-10


def test_symmetric_defining_equation():
    pair = solve_symmetric(1.0, 1.0, 100.0)
    lhs = (pair.beta_dual * pair.beta) ** 2 * math.exp(
        pair.beta * pair.a + pair.beta_dual * pair.a_dual
    )
    assert lhs == pytest.approx(1.0, abs=1e-10)


def test_symmetric_small_coupling_limit():
    pair = solve_symmetric(1.0, 1e-6, 10.0)
    assert abs(pair.beta_dual * pair.a_dual) < 1e-5


def test_solve_remark1_frozen_values():
    pair = solve_remark1(1.0, 1.0, 100.0)
    assert pair.beta_dual * pair.a_dual == pytest.approx(R1_Y, rel=1e-13)
    assert pair.a_dual == pytest.approx(R1_A, rel=1e-12)
    assert pair.beta_dual == pytest.approx(R1_BETA, rel=1e-12)
    assert not pair.unphysical_spectrum
    assert max(pair.residuals) < 1e-12


def test_remark1_small_coupling_limit():
    pair = solve_remark1(1.0, 1e-5, 10.0)
    assert 0 < pair.beta_dual * pair.a_dual < 1e-9


def test_verify_duality_symmetric():
    pair = solve_symmetric(1.0, 1.0, 100.0)
    rep = verify_duality(pair)
    assert rep.variance_product_scaled == pytest.approx(1.0, abs=1e-9)
    assert pair.residuals[0] < 1e-12


def test_verify_duality_remark1():
    pair = solve_remark1(1.0, 1.0, 100.0)
    rep = verify_duality(pair)
    assert rep.variance_product_scaled == pytest.approx(1.0, abs=1e-9)
    # imposed condition: dual mean energy equals beta
    assert pair.residuals[0] < 1e-12


@pytest.mark.parametrize("solve", [solve_symmetric, solve_remark1])
def test_verify_duality_tiny_n(solve):
    # n**2 underflows at n = 1e-300 and v * v' overflows, while v * n,
    # v' * n' and their product stay O(1)
    rep = verify_duality(solve(1.0, 1.0, 1e-300))
    assert rep.variance_product_scaled == pytest.approx(1.0, abs=1e-9)


def test_random_sweep_residuals_and_signs():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.05, 10.0, 200)
    a = rng.uniform(0.2, 3.0, 200)
    for ai, xi in zip(a, x):
        beta = xi / ai
        sym = solve_symmetric(ai, beta, 32.0)
        rem = solve_remark1(ai, beta, 32.0)
        assert max(sym.residuals) < 1e-10
        assert max(rem.residuals) < 1e-10
        assert sym.beta_dual * sym.a_dual < 0 and sym.beta_dual > 0 and sym.a_dual < 0
        assert rem.a_dual > 0 and rem.beta_dual > 0
        assert phi(sym.beta_dual * sym.a_dual) * phi(xi) == pytest.approx(1.0, abs=1e-12)


def test_dual_variance_positive_even_when_formal():
    pair = solve_symmetric(0.7, 2.1, 50.0)
    v, v_dual = dual_fluctuation_variances(pair)
    assert v > 0 and v_dual > 0
    assert v * v_dual * pair.n**2 == pytest.approx(1.0, abs=1e-9)


def test_remark1_extreme_coupling():
    # beta*a = 400: sinh and exp(beta*a + y) overflow on the direct route
    pair = solve_remark1(1.0, 400.0, 10.0)
    assert math.isfinite(pair.a_dual) and pair.beta_dual > 0
    assert max(pair.residuals) < 1e-10
    assert verify_duality(pair).variance_product_scaled == pytest.approx(1.0, abs=1e-9)
    # beta*a = 1e-8: y ~ (beta*a)^2/12, which sinh(u) - u rounds to 0
    pair = solve_remark1(1.0, 1e-8, 10.0)
    assert pair.beta_dual * pair.a_dual == pytest.approx(1e-16 / 12.0, rel=1e-12)
    for beta in (800.0, 1e-120):
        with pytest.raises(DomainError):
            solve_remark1(1.0, beta, 10.0)


def test_symmetric_extreme_coupling():
    # phi and phi' far below zero, where exp(-z) overflows
    assert 0.0 < phi(-720.0) < 1e-300
    assert phi(-800.0) == 0.0
    assert phi_prime(-697.0) > 0.0
    # beta*a = 720: beta' ~ 5e-158 and a' ~ -2e158 are representable, the
    # dual variance is not
    pair = solve_symmetric(1.0, 720.0, 10.0)
    assert 0.0 < pair.beta_dual and math.isfinite(pair.a_dual) and pair.a_dual < 0
    assert max(pair.residuals) < 1e-10
    with pytest.raises(DomainError):
        dual_fluctuation_variances(pair)
    # beta' = exp(-(beta*a + y)/2)/beta underflows to 0
    for beta in (1e4, 1e300):
        with pytest.raises(DomainError):
            solve_symmetric(1.0, beta, 10.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_symmetric(-1.0, 1.0, 10.0)
    with pytest.raises(DomainError):
        solve_remark1(1.0, 0.0, 10.0)
