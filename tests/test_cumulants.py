import math
from fractions import Fraction

import numpy as np
import pytest

from thermoflux.core import OscillatorEnsemble, ThermoState
from thermoflux.cumulants import (
    CumulantVector,
    bernoulli_numbers,
    c_explicit,
    central_moments,
    coefficient_table,
    cumulants_to_moments,
    energy_cumulants,
    finite_difference_cumulant,
    fluctuation_cumulants,
    moments_to_cumulants,
    oscillator_cumulants,
    power_sum_check,
    stirling2,
)
from thermoflux.errors import DivergentPartition, DomainError, OrderTooLarge

ENS1 = OscillatorEnsemble(a=1.0, n=1.0)
ST1 = ThermoState(beta=1.0)

# closed forms at beta = a = n = 1, evaluated at 40 digits
K1 = 0.58197670686932642
K2 = 0.92067359420779232
K3 = 1.9922947671249874
K4 = 6.0065127966367601
K5 = 24.003332974769052
# raw moments of the energy, same point, geometric-series summation
M1, M2, M3, M4 = (
    0.58197670686932642,
    1.2593704815462582,
    3.7968402256209116,
    15.173000253758959,
)


def test_table_seeds_and_examples():
    t = coefficient_table(6)
    assert t.c(3, 2) == 3
    assert t.c(4, 4) == 6
    assert t.c(4, 2) == 7
    for n in range(1, 7):
        assert t.c(n, 1) == 1
        assert t.c(n, n) == math.factorial(n - 1)


def test_explicit_formula_examples():
    assert c_explicit(1, 1) == 1
    assert c_explicit(5, 5) == 24


def test_triple_equivalence_to_15():
    t = coefficient_table(15)
    for n in range(1, 16):
        for m in range(1, n + 1):
            expected = math.factorial(m - 1) * stirling2(n, m)
            assert t.c(n, m) == expected
            assert c_explicit(n, m) == expected


def test_recurrence_invariant():
    t = coefficient_table(12)
    for n in range(2, 12):
        for m in range(2, n + 1):
            prev_m = t.c(n, m) if m <= n else 0
            assert t.c(n + 1, m) == m * prev_m + (m - 1) * t.c(n, m - 1)


def test_order_caps():
    with pytest.raises(OrderTooLarge):
        coefficient_table(21)
    with pytest.raises(OrderTooLarge):
        c_explicit(21, 3)
    with pytest.raises(OrderTooLarge):
        c_explicit(4, 5)
    with pytest.raises(OrderTooLarge):
        power_sum_check(11, 10)
    with pytest.raises(OrderTooLarge):
        power_sum_check(2, 1001)


def test_bernoulli_convention():
    b = bernoulli_numbers(8)
    assert b[0] == 1
    assert b[1] == 0.5  # Fraction(1, 2)
    assert b[2] * 6 == 1
    assert b[3] == 0
    assert b[4] * 30 == -1


def test_power_sum_examples():
    chk = power_sum_check(2, 3)
    assert chk.direct == 14 and chk.consistent
    assert power_sum_check(3, 5).direct == 225
    for n in range(1, 101):
        chk = power_sum_check(1, n)
        assert chk.direct == n * (n + 1) // 2
        assert chk.consistent


def test_power_sum_triple_sweep():
    for m in range(1, 9):
        for n in (1, 2, 3, 7, 19, 64, 143, 200):
            assert power_sum_check(m, n).consistent


def test_energy_cumulants_values():
    kv = energy_cumulants(ST1, ENS1, 5)
    for got, want in zip(kv.values, (K1, K2, K3, K4, K5)):
        assert got == pytest.approx(want, rel=1e-13)


def test_energy_cumulants_linear_in_n():
    kv1 = energy_cumulants(ST1, ENS1, 6)
    kv7 = energy_cumulants(ST1, OscillatorEnsemble(a=1.0, n=7.0), 6)
    assert np.array_equal(kv7.values, 7.0 * kv1.values)


def test_energy_cumulants_errors():
    with pytest.raises(DivergentPartition):
        energy_cumulants(ThermoState(beta=-2.0), ENS1, 3)
    with pytest.raises(OrderTooLarge):
        energy_cumulants(ST1, ENS1, 21)


def test_coefficient_table_is_cached():
    assert coefficient_table(9) is coefficient_table(9)


def test_oscillator_cumulants_either_sign():
    # x > 0, and the formal x < 0 with either sign of the quantum
    for a, x in ((1.3, 0.7), (1.3, -0.7), (-2.0, -1.5)):
        eps = a / math.expm1(x)
        kv = oscillator_cumulants(a, x, 8)
        assert kv[0] == pytest.approx(eps, rel=1e-15)
        assert kv[1] == pytest.approx(eps * (eps + a), rel=1e-14)
        e, q = Fraction(kv[0]), Fraction(a)
        for k in range(1, 9):
            terms = [c_explicit(k, m) * e**m * q ** (k - m) for m in range(1, k + 1)]
            scale = float(sum(abs(t) for t in terms))
            assert abs(kv[k - 1] - float(sum(terms))) <= 1e-14 * scale


def test_oscillator_cumulants_large_quantum():
    # the remark1 dual at beta = 200: a^4 overflows, eps * a^3 does not
    a, x = 3.6e84, 189.0
    kv = oscillator_cumulants(a, x, 4)
    assert np.all(np.isfinite(kv))
    # nbar ~ 1e-82: every cumulant is a^(k-1) * eps to double precision
    assert kv[3] == pytest.approx(a**3 * kv[0], rel=1e-14)
    with pytest.raises(DomainError):
        oscillator_cumulants(a, x, 8)


def test_fluctuation_cumulants():
    n10 = OscillatorEnsemble(a=1.0, n=10.0)
    kv = fluctuation_cumulants(ST1, n10, 4)
    assert kv.kappa(1) == 0.0
    assert kv.kappa(2) == pytest.approx(K2 / 10.0, rel=1e-13)
    # kappa_3 * n^2 is n-independent
    ref = fluctuation_cumulants(ST1, OscillatorEnsemble(a=1.0, n=3.0), 4).kappa(3) * 9.0
    for n in (7.0, 50.0):
        kvn = fluctuation_cumulants(ST1, OscillatorEnsemble(a=1.0, n=n), 4)
        assert kvn.kappa(3) * n * n == pytest.approx(ref, rel=1e-12)


def test_cumulants_to_moments_gaussian():
    m = cumulants_to_moments(CumulantVector(order=4, values=np.array([0.0, 2.5, 0.0, 0.0])))
    assert m[0] == 0.0
    assert m[1] == 2.5
    assert m[2] == 0.0
    assert m[3] == pytest.approx(3 * 2.5**2, rel=1e-15)


def test_cumulant_vector_length_mismatch_is_domain_error():
    with pytest.raises(DomainError):
        CumulantVector(order=3, values=np.array([0.0, 1.0]))


def test_cumulants_to_moments_deterministic():
    m = cumulants_to_moments(CumulantVector(order=3, values=np.array([1.7, 0.0, 0.0])))
    assert np.allclose(m, [1.7, 1.7**2, 1.7**3], rtol=1e-15)


def test_moment_cumulant_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(20):
        # keep the mean moderate: binomial round-off amplification at order
        # 10 grows with the raw-moment magnitude
        kappa = rng.normal(size=10)
        kappa[0] = rng.uniform(-0.5, 0.5)
        kv = CumulantVector(order=10, values=kappa)
        moments = cumulants_to_moments(kv)
        back = moments_to_cumulants(moments)
        atol = 1e-13 * max(1.0, float(np.abs(moments).max()))
        assert np.allclose(back.values, kappa, rtol=1e-10, atol=atol)


def _series_moment(k, beta=1.0, a=1.0, tol=1e-14):
    # independent oracle: direct summation over the geometric Gibbs weights
    q = math.exp(-beta * a)
    total, n = 0.0, 0
    while True:
        term = (1 - q) * q**n * (a * n) ** k
        total += term
        n += 1
        if n > 50 and term < tol:
            return total


def test_energy_moments_match_series_oracle():
    kv = energy_cumulants(ST1, ENS1, 4)
    moments = cumulants_to_moments(kv)
    for k, frozen in enumerate((M1, M2, M3, M4), start=1):
        assert _series_moment(k) == pytest.approx(frozen, rel=1e-12)
        assert moments[k - 1] == pytest.approx(frozen, rel=1e-12)


def test_central_moments():
    kv = energy_cumulants(ST1, ENS1, 4)
    cm = central_moments(kv)
    assert cm[0] == 0.0
    assert cm[1] == pytest.approx(K2, rel=1e-13)
    assert cm[2] == pytest.approx(K3, rel=1e-13)
    assert cm[3] == pytest.approx(K4 + 3 * K2**2, rel=1e-13)


def test_finite_difference_oracle():
    rng = np.random.default_rng(23)
    for _ in range(8):
        x = rng.uniform(0.1, 5.0)
        a = rng.uniform(0.2, 3.0)
        st = ThermoState(beta=x / a)
        ens = OscillatorEnsemble(a=a, n=1.0)
        kv = energy_cumulants(st, ens, 5)
        for order in range(1, 6):
            fd = finite_difference_cumulant(st, ens, order)
            assert fd == pytest.approx(kv.kappa(order), rel=1e-6)
