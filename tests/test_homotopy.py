import math

import numpy as np
import pytest

from thermoflux.core import OscillatorEnsemble, ThermoState
from thermoflux.cumulants import fluctuation_cumulants
from thermoflux.duality import solve_remark1, solve_symmetric
from thermoflux.errors import DegeneratePoint, DomainError, OrderTooLarge
from thermoflux.homotopy import (
    HomotopyPath,
    path_cumulants,
    path_params,
)


def _path(a=1.0, beta=1.0, n=100.0, variant="remark1"):
    solver = solve_remark1 if variant == "remark1" else solve_symmetric
    pair = solver(a, beta, n)
    return pair, HomotopyPath.from_dual_pair(pair)


def test_endpoint_recovery_remark1():
    pair, path = _path()
    p0 = path_params(path, 0.0)
    assert p0.a == pytest.approx(1.0, rel=1e-12)
    assert p0.beta == pytest.approx(1.0, rel=1e-12)
    p1 = path_params(path, math.pi / 2.0)
    assert p1.a == pytest.approx(pair.a_dual, rel=1e-10)
    assert p1.beta == pytest.approx(pair.beta_dual, rel=1e-10)
    assert not p0.formal and not p1.formal


def test_endpoint_recovery_symmetric_is_formal():
    pair, path = _path(variant="symmetric")
    p1 = path_params(path, math.pi / 2.0)
    assert p1.a == pytest.approx(pair.a_dual, rel=1e-10)
    assert p1.beta == pytest.approx(pair.beta_dual, rel=1e-10)
    assert p1.formal  # beta' * a' < 0 for the symmetric dual


def test_path_params_roundtrip():
    _, path = _path()
    for t in (0.3, math.pi / 4, 1.2):
        p = path_params(path, t)
        # substituting (a_t, beta_t) back reproduces the required mean and
        # variance; the expm1 form extends to the formal (x_t < 0) stretch
        # the path crosses around pi/4
        mean = p.a / math.expm1(p.beta * p.a)
        assert mean == pytest.approx(path.mean_at(t), rel=1e-12)
        kv = path_cumulants(path, t, 2)
        assert kv.kappa(2) == pytest.approx(path.variance_at(t), rel=1e-12)


def test_remark1_path_crosses_formal_region():
    # the dual endpoint is all-positive, but linear mean vs quadratic
    # variance interpolation pushes n*v_t below mean_t^2 in the middle
    _, path = _path()
    assert not path_params(path, 0.0).formal
    assert path_params(path, math.pi / 4).formal
    assert not path_params(path, math.pi / 2).formal


def test_kappa2_interpolation_identity():
    _, path = _path()
    for t in np.linspace(0.0, math.pi / 2, 50):
        kv = path_cumulants(path, float(t), 4)
        assert kv.kappa(1) == 0.0
        assert kv.kappa(2) == pytest.approx(path.variance_at(float(t)), abs=1e-12)


def test_endpoint_cumulants_match_fluctuation_cumulants():
    _, path = _path()
    kv = path_cumulants(path, 0.0, 6)
    ref = fluctuation_cumulants(ThermoState(beta=1.0), OscillatorEnsemble(a=1.0, n=100.0), 6)
    assert np.allclose(kv.values, ref.values, rtol=1e-10, atol=1e-30)


def test_n_cancellation():
    _, path = _path()
    doubled = HomotopyPath(
        mean=path.mean,
        mean_dual=path.mean_dual,
        nv=(2.0 * path.n) * (path.nv / path.n / 2.0),
        nv_dual=(2.0 * path.n) * (path.nv_dual / path.n / 2.0),
        n=2.0 * path.n,
    )
    for t in (0.0, 0.4, 1.1, math.pi / 2):
        p, q = path_params(path, t), path_params(doubled, t)
        assert p.a == q.a and p.beta == q.beta  # only n*v_t enters
    tripled = HomotopyPath(
        mean=path.mean, mean_dual=path.mean_dual,
        nv=(3.0 * path.n) * (path.nv / path.n / 3.0),
        nv_dual=(3.0 * path.n) * (path.nv_dual / path.n / 3.0),
        n=3.0 * path.n,
    )
    q = path_params(tripled, 0.8)
    p = path_params(path, 0.8)
    assert q.a == pytest.approx(p.a, rel=1e-14)
    assert q.beta == pytest.approx(p.beta, rel=1e-14)


def test_continuity_dense_sampling():
    _, path = _path()
    t = np.arange(0.0, math.pi / 2, 1e-4)
    a_vals = np.array([path_params(path, float(ti)).a for ti in t])
    b_vals = np.array([path_params(path, float(ti)).beta for ti in t])
    # first differences bounded by the derivative scale, second differences
    # by curvature * dt^2
    assert np.abs(np.diff(a_vals)).max() < 1e-3
    assert np.abs(np.diff(b_vals)).max() < 1e-3
    assert np.abs(np.diff(a_vals, 2)).max() < 1e-6
    assert np.abs(np.diff(b_vals, 2)).max() < 1e-6


def test_degenerate_points():
    _, path = _path()
    # interpolated mean crosses zero near pi - arctan(mean/mean'): beyond it
    # the direct branch must refuse
    with pytest.raises(DegeneratePoint):
        path_params(path, 2.9)
    flat = HomotopyPath.from_endpoints(1.0, 0.01, 1.0, 0.01, n=100.0)
    with pytest.raises(DegeneratePoint):
        # n*v_0 == mean_0^2 by construction: 100*0.01 = 1^2 (a_t = 0)
        path_params(flat, 0.0)


def test_symmetric_path_formal_region():
    _, path = _path(variant="symmetric")
    p = path_params(path, math.pi / 2)
    assert p.formal
    kv = path_cumulants(path, math.pi / 2, 4)
    assert kv.kappa(2) == pytest.approx(path.variance_at(math.pi / 2), rel=1e-12)


def test_remark1_path_at_large_coupling():
    # beta*a = 200: a_t reaches ~4e84; the order-4 cumulants stay finite
    _, path = _path(beta=200.0, n=10.0)
    for t in np.linspace(0.0, math.pi / 2, 5):
        kv = path_cumulants(path, float(t), 4)
        assert np.all(np.isfinite(kv.values))
        assert kv.kappa(2) == pytest.approx(path.variance_at(float(t)), rel=1e-12)
    # beta*a = 400: at t = 0, mean_t^2 underflows but n v_t / mean_t^2 does
    # not; at t = pi/2, kappa_4 ~ 1e510
    _, path = _path(beta=400.0, n=10.0)
    point = path_params(path, 0.0)
    assert point.a == pytest.approx(1.0, rel=1e-12)
    assert point.beta == pytest.approx(400.0, rel=1e-12)
    with pytest.raises(DomainError):
        path_cumulants(path, math.pi / 2, 4)


def test_order_and_domain_guards():
    _, path = _path()
    with pytest.raises(OrderTooLarge):
        path_cumulants(path, 0.3, 9)
    with pytest.raises(DomainError):
        HomotopyPath.from_endpoints(1.0, -0.1, 1.0, 0.2, n=10.0)
