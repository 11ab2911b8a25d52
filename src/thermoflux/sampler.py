"""Independent Monte-Carlo oracle for the canonical oscillator ensemble.

Each oscillator occupation is geometric, P(n) = (1 - q) q**n with
q = exp(-beta*a), so the total occupation of N independent oscillators is
exactly negative binomial with N successes of probability 1 - q.  Each sweep
is one such draw: a run is a single negative_binomial call of numpy's
default generator, and (seed, sweeps, N, beta*a) alone fix every energy.

Energies are the total occupations times a.  While the occupations stay
below 2**53 they are exact integers, so the energies are the correctly
rounded multiples of a; where numpy cannot draw them (n too large or
p too small) the run is refused with DomainError.

Standard errors come from the delete-1 jackknife (Efron & Stein, Ann. Stat.
9, 1981) evaluated in one pass: each leave-one-out set's central power sums
about the global mean are the totals less the left-out point's own powers,
and one k-statistic formula serves both the full sample and all m
leave-out sets at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import OscillatorEnsemble, ThermoState
from .errors import DivergentPartition, DomainError, InsufficientSamples

# Largest sweep count sampled: the energies then fit in 128 MiB, and the
# jackknife's peak of about 11 doubles per sweep in 1.4 GiB.
_MAX_SWEEPS = 2**24
# Energies per block of CSV text: the writer's memory then does not grow
# with the sweep count (one text for a run holds ~100 bytes per sweep).
_CSV_ROWS = 8192


@dataclass(frozen=True)
class SampleRun:
    """A completed sampling run.

    energies holds one negative-binomial total occupation per sweep, times
    ens.a: each is the correctly rounded multiple of a while the occupation
    is below 2**53.
    """

    seed: int
    sweeps: int
    ens: OscillatorEnsemble
    state: ThermoState
    energies: np.ndarray = field(repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("energy\n")
            for lo in range(0, len(self.energies), _CSV_ROWS):
                block = self.energies[lo : lo + _CSV_ROWS].tolist()
                fh.write("\n".join(map(repr, block)) + "\n")


def sample_energies(
    ens: OscillatorEnsemble,
    state: ThermoState,
    sweeps: int,
    seed: int,
) -> SampleRun:
    """Draw `sweeps` i.i.d. total energies of the ensemble."""
    if not state.beta * ens.a > 0:
        raise DivergentPartition("sampling requires beta*a > 0")
    if not 1 <= sweeps <= _MAX_SWEEPS:
        raise DomainError(f"sweeps must be in 1..{_MAX_SWEEPS}, got {sweeps}")
    n_osc = int(ens.n)
    if n_osc != ens.n:
        raise DomainError(f"sampling requires an integer particle count, got {ens.n!r}")

    p = -math.expm1(-state.beta * ens.a)  # 1 - q without cancellation
    try:
        counts = np.random.default_rng(seed).negative_binomial(n_osc, p, size=sweeps)
    except ValueError:  # numpy: "n too large or p too small"
        raise DomainError(
            f"total occupations at N={ens.n!r}, beta*a={state.beta * ens.a!r} "
            "are too large to draw"
        ) from None
    energies = counts * ens.a
    return SampleRun(seed=seed, sweeps=sweeps, ens=ens, state=state, energies=energies)


def _k_from_moments(m, mean, m2, m3, m4) -> np.ndarray:
    """Unbiased k-statistics k_1..k_4 from the sample size m, the mean and
    the central moments m2..m4 (each a mean of d**p about the mean).

    The mean and moments may be equal-shape arrays, one entry per sample;
    the result then has one row per order.
    """
    return np.array(
        [
            mean,
            m * m2 / (m - 1),
            m * m * m3 / ((m - 1) * (m - 2)),
            m * m * ((m + 1) * m4 - 3 * (m - 1) * m2 * m2)
            / ((m - 1) * (m - 2) * (m - 3)),
        ]
    )


def k_statistics(x: np.ndarray) -> np.ndarray:
    """Unbiased k-statistics k_1..k_4 of a sample."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    if m < 5:
        raise InsufficientSamples(f"need at least 5 samples, got {m}")
    mean = x.mean()
    d = x - mean
    return _k_from_moments(m, mean, np.mean(d**2), np.mean(d**3), np.mean(d**4))


def _leave_one_out_k_statistics(x: np.ndarray) -> np.ndarray:
    """k-statistics of d = x - x.mean() with each point left out in turn,
    one column per point.

    The shift by the mean moves every leave-out k1 by the same constant and
    leaves k2..k4 alone, so the jackknife errors are those of x.  Each
    leave-out set's power sums of d are the totals less the point's own
    d**p; its moments are then shifted to the set's own mean.  The arrays
    are updated in place, so at most about 11 doubles per point are held.
    """
    m = len(x)
    d = x - x.mean()
    own = d.copy()  # d**p of each point, p = 1..4
    s = []
    for _ in range(4):
        rest = own.sum() - own
        rest /= m - 1
        s.append(rest)
        own *= d
    del d, own
    s1, s2, s3, s4 = s
    # shift each leave-out set's moments from 0 to its own mean s1
    sq = s1 * s1
    s4 -= 4 * s1 * s3 - 6 * sq * s2 + 3 * sq * sq
    s3 -= 3 * s1 * s2 - 2 * sq * s1
    s2 -= sq
    del sq
    return _k_from_moments(float(m - 1), s1, s2, s3, s4)


@dataclass(frozen=True)
class EmpiricalCumulants:
    estimates: np.ndarray
    standard_errors: np.ndarray


def empirical_cumulants(run: SampleRun) -> EmpiricalCumulants:
    """k-statistics k_1..k_4 of the sampled energies with delete-1
    jackknife SEs, sqrt((m-1)/m * sum over the m leave-out sets of
    (k - mean k)**2)."""
    m = len(run.energies)
    if m < 100:
        raise InsufficientSamples(f"need at least 100 samples, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        estimates = k_statistics(run.energies)
        loo = _leave_one_out_k_statistics(run.energies)
        loo -= loo.mean(axis=1, keepdims=True)
        loo *= loo
        se = np.sqrt((m - 1) / m * loo.sum(axis=1))
    if not (np.all(np.isfinite(estimates)) and np.all(np.isfinite(se))):
        raise DomainError(
            "k-statistics up to order 4 of the sampled energies overflow a double"
        )
    return EmpiricalCumulants(estimates=estimates, standard_errors=se)
