import math

import numpy as np
import pytest

from thermoflux.core import OscillatorEnsemble, ThermoState
from thermoflux.cumulants import energy_cumulants
from thermoflux.errors import DivergentPartition, DomainError, InsufficientSamples
from thermoflux.sampler import (
    empirical_cumulants,
    k_statistics,
    occupation_energies,
    sample_energies,
)


def test_seed_determinism():
    ens = OscillatorEnsemble(a=1.0, n=10)
    st = ThermoState(beta=0.8)
    r1 = sample_energies(ens, st, sweeps=5000, seed=123)
    r2 = sample_energies(ens, st, sweeps=5000, seed=123)
    assert np.array_equal(r1.energies, r2.energies)
    r3 = sample_energies(ens, st, sweeps=5000, seed=124)
    assert not np.array_equal(r1.energies, r3.energies)


def test_pinned_stream():
    # the chunk length (16384 sweeps, one child seed each) is part of the
    # stream: these values fix it, across a chunk boundary and a partial
    # last chunk (40000 = 2 * 16384 + 7232)
    run = sample_energies(OscillatorEnsemble(a=1.0, n=20), ThermoState(beta=1.0), sweeps=40000, seed=9)
    assert len(run.energies) == 40000
    assert list(run.energies[:4]) == [7, 15, 6, 9]
    assert list(run.energies[16383:16386]) == [19, 10, 8]
    assert run.energies.sum() == 466464


def test_ground_state_limit():
    run = sample_energies(OscillatorEnsemble(a=1.0, n=5), ThermoState(beta=700.0), sweeps=500, seed=1)
    assert np.all(run.energies == 0.0)


def test_energies_on_lattice():
    a = 0.7
    run = sample_energies(OscillatorEnsemble(a=a, n=8), ThermoState(beta=0.5), sweeps=2000, seed=5)
    occ = run.energies / a
    assert np.all(occ >= 0)
    assert np.allclose(occ, np.round(occ), atol=1e-9)


def test_single_oscillator_mean():
    run = sample_energies(OscillatorEnsemble(a=1.0, n=1), ThermoState(beta=1.0), sweeps=200_000, seed=77)
    target = 1.0 / (math.e - 1.0)
    se = math.sqrt(math.e / (math.e - 1.0) ** 2 / 200_000)
    assert abs(run.energies.mean() - target) < 5 * se


def test_occupation_energies_values():
    u = np.array([[0.5, 0.9], [0.01, 0.999]])
    log_q = math.log(0.5)
    # floor(log(u)/log(q)): 0.5 -> 1, 0.9 -> 0, 0.01 -> 6, 0.999 -> 0
    assert np.array_equal(occupation_energies(u, log_q), [1.0, 6.0])


def test_k_statistics_constant_sequence():
    ks = k_statistics(np.full(500, 3.25), order=4)
    assert ks[0] == 3.25
    assert ks[1] == ks[2] == ks[3] == 0.0


def test_k_statistics_gaussian_sanity():
    rng = np.random.default_rng(0)
    x = rng.normal(2.0, 1.5, 200_000)
    ks = k_statistics(x, 4)
    assert ks[0] == pytest.approx(2.0, abs=0.02)
    assert ks[1] == pytest.approx(2.25, rel=0.02)
    assert abs(ks[2]) < 0.1 and abs(ks[3]) < 0.3


def test_empirical_vs_analytic():
    ens = OscillatorEnsemble(a=1.0, n=100)
    st = ThermoState(beta=1.0)
    run = sample_energies(ens, st, sweeps=100_000, seed=2024)
    emp = empirical_cumulants(run, order=4)
    kv = energy_cumulants(st, ens, 4)
    z = np.abs(emp.estimates - kv.values) / emp.standard_errors
    assert np.all(z < 5.0)


def test_insufficient_samples():
    ens = OscillatorEnsemble(a=1.0, n=3)
    run = sample_energies(ens, ThermoState(beta=1.0), sweeps=50, seed=0)
    with pytest.raises(InsufficientSamples):
        empirical_cumulants(run)
    with pytest.raises(InsufficientSamples):
        k_statistics(np.ones(3), order=4)


def test_precondition_errors():
    with pytest.raises(DivergentPartition):
        sample_energies(OscillatorEnsemble(a=1.0, n=3), ThermoState(beta=-1.0), sweeps=10, seed=0)
    with pytest.raises(DomainError):
        sample_energies(OscillatorEnsemble(a=1.0, n=2.5), ThermoState(beta=1.0), sweeps=10, seed=0)
    with pytest.raises(DomainError):
        sample_energies(OscillatorEnsemble(a=1.0, n=3), ThermoState(beta=1.0), sweeps=0, seed=0)


def test_csv_export(tmp_path):
    run = sample_energies(OscillatorEnsemble(a=1.0, n=4), ThermoState(beta=1.0), sweeps=100, seed=11)
    path = tmp_path / "samples.csv"
    run.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "energy"
    values = np.array([float(v) for v in lines[1:]])
    assert np.array_equal(values, run.energies)
