"""Each output check accepts the program's real output and rejects a
corrupted copy of it.  A check that cannot fail proves nothing.

    PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider perfbench/selftest_checks.py

Program outputs go to perfbench/out/selftest/.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import worker  # noqa: E402

SCRATCH = Path(__file__).resolve().parent / "out" / "selftest"


def test_series_matches_direct_summation():
    for a, beta, n in [(1.0, 0.05, 10.0), (1.0, 1.0, 300.0), (2.0, 5.0, 7.0), (0.3, 0.3, 1.0)]:
        x = a * beta
        j = np.arange(1, int(300 / x) + 50, dtype=float)
        direct = [n * a**k * np.sum(j ** (k - 1) * np.exp(-x * j)) for k in range(1, 9)]
        assert np.allclose(checks.cumulant_series(a, beta, n, 8), direct, rtol=1e-13, atol=0)


def test_moments_from_cumulants_known_laws():
    gauss = checks.moments_from_cumulants([0.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(gauss, [0.0, 2.0, 0.0, 12.0, 0.0, 120.0])
    lam = 0.7  # Poisson: every cumulant is lam
    poisson = checks.moments_from_cumulants([lam] * 3)
    assert np.allclose(poisson, [lam, lam + lam**2, lam + 3 * lam**2 + lam**3])


def test_exact_k_statistics_match_textbook_forms():
    q = np.random.default_rng(3).geometric(0.4, 500) - 1
    k = checks.k_statistics_exact(q, 0.5)
    e = 0.5 * q
    assert k[0] == pytest.approx(e.mean(), rel=1e-14)
    assert k[1] == pytest.approx(e.var(ddof=1), rel=1e-12)


def _run_cli(argv):
    SCRATCH.mkdir(parents=True, exist_ok=True)
    code, text = worker.run_cli(argv)
    return code, json.loads(text)


@pytest.fixture(scope="module")
def gaussian_grid():
    out = SCRATCH / "gaussian.csv"
    code, report = _run_cli(["reconstruct", "--json", "--output", str(out), "--family",
                                   "gaussian", "--a", "1", "--beta", "1", "--N", "100"])
    assert code == 0
    return checks.grid_from_csv(out.read_text()), report


@pytest.fixture(scope="module")
def homotopy_grid():
    out = SCRATCH / "homotopy.csv"
    code, report = _run_cli(["reconstruct", "--json", "--output", str(out), "--family",
                                   "homotopy", "--a", "1", "--beta", "1", "--N", "100"])
    assert code == 0
    return checks.grid_from_csv(out.read_text()), report


def test_gaussian_grid_check(gaussian_grid):
    (x, y, values), report = gaussian_grid
    assert checks.check_gaussian_grid(x, y, values, 1.0, 1.0, 100.0, report) == []
    errors = checks.check_gaussian_grid(x, y, values * (1 + 1e-4), 1.0, 1.0, 100.0, report)
    assert any("closed form" in e for e in errors)
    assert any("mass" in e for e in errors)
    assert any("purity of the grid" in e for e in errors)
    bad = copy.deepcopy(report)
    bad["diagnostics"]["purity"] *= 1 + 1e-6
    assert any("reported purity" in e for e in
               checks.check_gaussian_grid(x, y, values, 1.0, 1.0, 100.0, bad))


def test_homotopy_grid_check(homotopy_grid):
    (x, y, values), report = homotopy_grid
    assert checks.check_homotopy_grid(x, y, values, 1.0, 1.0, 100.0, report) == []
    scaled = checks.check_homotopy_grid(x, y, values * (1 + 1e-4), 1.0, 1.0, 100.0, report)
    assert any("mass" in e for e in scaled)
    shifted = np.roll(values, 1, axis=1)  # moves the dual marginal by one cell
    errors = checks.check_homotopy_grid(x, y, shifted, 1.0, 1.0, 100.0, report)
    assert any("dual marginal" in e for e in errors)
    assert not any("source marginal" in e for e in errors)


def test_homotopy_grid_check_catches_kept_fault():
    out = SCRATCH / "kept.csv"
    code, report = _run_cli(["reconstruct", "--json", "--output", str(out), "--family",
                                   "homotopy", "--a", "0.5", "--beta", "2", "--N", "10"])
    assert code == 0  # the program reports success ...
    x, y, values = checks.grid_from_csv(out.read_text())
    errors = checks.check_homotopy_grid(x, y, values, 0.5, 2.0, 10.0, report)
    assert any("marginal moments off" in e for e in errors)  # ... but the grid is wrong


@pytest.fixture(scope="module")
def sample_run():
    out = SCRATCH / "energies.csv"
    code, report = _run_cli(["sample", "--check", "--json", "--output", str(out), "--a",
                                   "0.5", "--beta", "2", "--N", "300", "--sweeps", "20000",
                                   "--seed", "5"])
    assert code == 0
    return np.array(out.read_text().split()[1:], dtype=float), report


def test_sample_check(sample_run):
    energies, report = sample_run
    args = (0.5, 2.0, 300.0)
    assert checks.check_sample(energies, *args, report) == []

    shifted = copy.deepcopy(report)  # k_2 six standard errors from K_2
    K2 = checks.cumulant_series(*args, 2)[1]
    shifted["results"]["k_statistics"][1] = K2 + 6 * shifted["results"]["standard_errors"][1]
    assert any("standard errors from K_n" in e for e in checks.check_sample(energies, *args, shifted))

    wide = copy.deepcopy(report)
    wide["results"]["standard_errors"][3] *= 2.5
    assert any("x Fisher's" in e for e in checks.check_sample(energies, *args, wide))

    nudged = copy.deepcopy(report)
    nudged["results"]["k_statistics"][3] *= 1 + 1e-6
    assert any("dumped energies" in e for e in checks.check_sample(energies, *args, nudged))

    off_lattice = energies.copy()
    off_lattice[7] += 0.3 * 0.5
    assert any("multiples of a" in e for e in checks.check_sample(off_lattice, *args, report))


@pytest.fixture(scope="module")
def analytic_records():
    points = [(0.3, 0.05 / 0.3, 10.0), (1.0, 1.0, 100.0), (2.0, 3.0, 1000.0), (0.5, 40.0, 10.0)]
    packets = [(2.0, 0.3, -0.2, 0.1, 1.1)]
    results, norms = worker.analytic_batch(points, packets)
    return worker.analytic_records(points, results), norms


CORRUPTIONS = [
    ("energy_cumulants", lambda r: r["energy_cumulants"].__setitem__(19, r["energy_cumulants"][19] * (1 + 1e-6)), "K_1..K_20"),
    ("fluctuation_cumulants", lambda r: r["fluctuation_cumulants"].__setitem__(3, r["fluctuation_cumulants"][3] * (1 + 1e-6)), "fluctuation cumulants"),
    ("variance", lambda r: r.__setitem__("variance", r["variance"] * (1 + 1e-6)), "mean/variance"),
    ("remark1", lambda r: r.__setitem__("remark1", (r["remark1"][0] * (1 + 1e-6), r["remark1"][1])), "remark1"),
    ("remark1_product", lambda r: r.__setitem__("remark1_product", r["remark1_product"] * (1 + 1e-6)), "variance product"),
    ("symmetric", lambda r: r.__setitem__("symmetric", (r["symmetric"][0], r["symmetric"][1] * (1 + 1e-6))), "symmetric dual"),
    ("table", lambda r: r["table"].__setitem__(5, (*r["table"][5][:3], r["table"][5][3] * (1 + 1e-6), r["table"][5][4])), "homotopy table"),
    ("tomograms", lambda r: r["tomograms"][2][2].__setitem__((3, 7), r["tomograms"][2][2][3, 7] * (1 + 1e-6)), "tomograms with n0=8"),
]


def test_analytic_check_accepts_program_output(analytic_records):
    records, norms = analytic_records
    assert checks.check_points(records) == []
    assert checks.check_norms(norms) == []


@pytest.mark.parametrize("field,corrupt,message", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_analytic_check_rejects(analytic_records, field, corrupt, message, index):
    records = copy.deepcopy(analytic_records[0])
    corrupt(records[index])
    errors = checks.check_points(records)
    assert any(message in e for e in errors), errors


def test_norm_check():
    assert checks.check_norms([1.0 + 1e-12]) == []
    assert checks.check_norms([1.0, 1.0 + 1e-6]) != []
