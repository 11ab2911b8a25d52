import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from thermoflux.core import OscillatorEnsemble, ThermoState
from thermoflux.cumulants import energy_cumulants
from thermoflux.errors import DivergentPartition, DomainError, InsufficientSamples
from thermoflux.sampler import empirical_cumulants, k_statistics, sample_energies


def test_seed_determinism():
    ens = OscillatorEnsemble(a=1.0, n=10)
    st = ThermoState(beta=0.8)
    r1 = sample_energies(ens, st, sweeps=5000, seed=123)
    r2 = sample_energies(ens, st, sweeps=5000, seed=123)
    assert np.array_equal(r1.energies, r2.energies)
    r3 = sample_energies(ens, st, sweeps=5000, seed=124)
    assert not np.array_equal(r1.energies, r3.energies)


def test_pinned_stream():
    # (seed, sweeps, N, beta*a) fix the stream: these values pin it
    run = sample_energies(OscillatorEnsemble(a=1.0, n=20), ThermoState(beta=1.0), sweeps=40000, seed=9)
    assert len(run.energies) == 40000
    assert list(run.energies[:4]) == [10, 23, 18, 12]
    assert list(run.energies[16383:16386]) == [14, 15, 11]
    assert run.energies.sum() == 463885


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


def test_draw_follows_negative_binomial_law():
    # three oscillators at q = 1/2: P(k) = C(k+2, k) q**k (1-q)**3
    sweeps = 200_000
    run = sample_energies(
        OscillatorEnsemble(a=1.0, n=3), ThermoState(beta=math.log(2.0)), sweeps, seed=31
    )
    freq = np.bincount(run.energies.astype(np.int64), minlength=21)[:21] / sweeps
    for k in range(21):
        pk = math.comb(k + 2, k) * 0.5**k / 8
        assert abs(freq[k] - pk) < 5 * math.sqrt(pk * (1 - pk) / sweeps), k


def test_k_statistics_constant_sequence():
    ks = k_statistics(np.full(500, 3.25))
    assert ks[0] == 3.25
    assert ks[1] == ks[2] == ks[3] == 0.0


def test_k_statistics_gaussian_sanity():
    rng = np.random.default_rng(0)
    x = rng.normal(2.0, 1.5, 200_000)
    ks = k_statistics(x)
    assert ks[0] == pytest.approx(2.0, abs=0.02)
    assert ks[1] == pytest.approx(2.25, rel=0.02)
    assert abs(ks[2]) < 0.1 and abs(ks[3]) < 0.3


def test_empirical_vs_analytic():
    ens = OscillatorEnsemble(a=1.0, n=100)
    st = ThermoState(beta=1.0)
    run = sample_energies(ens, st, sweeps=100_000, seed=2024)
    emp = empirical_cumulants(run)
    kv = energy_cumulants(st, ens, 4)
    z = np.abs(emp.estimates - kv.values) / emp.standard_errors
    assert np.all(z < 5.0)


def test_insufficient_samples():
    ens = OscillatorEnsemble(a=1.0, n=3)
    run = sample_energies(ens, ThermoState(beta=1.0), sweeps=50, seed=0)
    with pytest.raises(InsufficientSamples):
        empirical_cumulants(run)
    with pytest.raises(InsufficientSamples):
        k_statistics(np.ones(3))


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


def test_csv_bytes_match_looped_writer(tmp_path):
    # reference: the former one-write-per-energy loop; 20000 sweeps span
    # three blocks of CSV text
    run = sample_energies(OscillatorEnsemble(a=0.3, n=7), ThermoState(beta=2.0), sweeps=20000, seed=5)
    want = "energy\n" + "".join(f"{float(e)!r}\n" for e in run.energies)
    path = tmp_path / "samples.csv"
    run.to_csv(path)
    assert path.read_bytes() == want.encode()


def _exact_jackknife_se(occ, g):
    # delete-block jackknife of Fisher k-statistics in exact rational
    # arithmetic, from integer power sums over each leave-out set
    occ = [int(v) for v in occ]
    sums, lo = [], 0
    for size in (len(b) for b in np.array_split(np.arange(len(occ)), g)):
        sums.append([sum(v**p for v in occ[lo : lo + size]) for p in range(5)])
        lo += size
    total = [sum(s[p] for s in sums) for p in range(5)]
    loo = []
    for s in sums:
        n, s1, s2, s3, s4 = (total[p] - s[p] for p in range(5))
        loo.append([
            Fraction(s1, n),
            Fraction(n * s2 - s1**2, n * (n - 1)),
            Fraction(n * n * s3 - 3 * n * s2 * s1 + 2 * s1**3, n * (n - 1) * (n - 2)),
            Fraction(
                (n**3 + n**2) * s4 - 4 * (n**2 + n) * s3 * s1 - 3 * (n**2 - n) * s2**2
                + 12 * n * s2 * s1**2 - 6 * s1**4,
                n * (n - 1) * (n - 2) * (n - 3),
            ),
        ])
    se = []
    for k in range(4):
        center = sum(row[k] for row in loo) / g
        se.append(math.sqrt(Fraction(g - 1, g) * sum((row[k] - center) ** 2 for row in loo)))
    return np.array(se)


def test_jackknife_matches_exact_rational():
    # one block per sweep: the exact delete-1 jackknife
    run = sample_energies(OscillatorEnsemble(a=1.0, n=10), ThermoState(beta=1.0), sweeps=3001, seed=8)
    emp = empirical_cumulants(run)
    exact = _exact_jackknife_se(run.energies, len(run.energies))
    assert np.all(np.abs(emp.standard_errors - exact) <= 1e-12 * exact)


@pytest.mark.parametrize(
    "a, beta, n, seed",
    [(1.0, 1.0, 300, 1), (0.5, 1.822287173124336, 300, 1736982378), (0.3, 5.0, 7, 4)],
)
def test_k1_standard_error_is_sqrt_k2_over_m(a, beta, n, seed):
    # the delete-1 jackknife SE of the mean is sqrt(k2/m) algebraically
    run = sample_energies(OscillatorEnsemble(a=a, n=n), ThermoState(beta=beta), sweeps=100_000, seed=seed)
    emp = empirical_cumulants(run)
    want = math.sqrt(emp.estimates[1] / len(run.energies))
    assert emp.standard_errors[0] == pytest.approx(want, rel=1e-11)


def test_jackknife_memory():
    run = sample_energies(OscillatorEnsemble(a=1.0, n=300), ThermoState(beta=1.0), sweeps=100_000, seed=1)
    tracemalloc.start()
    try:
        empirical_cumulants(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the leave-out moments are updated in place: about 11 doubles per
    # sweep (8.8 MB here), not one stacked (sweeps x 4) array per step
    assert peak < 10e6


def test_draw_memory_is_one_tile():
    ens = OscillatorEnsemble(a=1.0, n=300)
    tracemalloc.start()
    try:
        sample_energies(ens, ThermoState(beta=1.0), sweeps=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the draw holds one count and one energy per sweep (1.6 MB here), not
    # one double per oscillator (240 MB)
    assert peak < 8e6
