"""Independent Monte-Carlo oracle for the canonical oscillator ensemble.

Each oscillator occupation is drawn by inversion as a geometric variable,
n = floor(log(u)/log(q)) with q = exp(-beta*a) and u uniform on (0, 1], so
any PRNG backend reproduces the run given the same uniform stream.  Sweeps
are partitioned into chunks of _CHUNK sweeps, each drawn from its own child
of the spawned seed sequence and evaluated in order.  The chunk length is
part of the stream: together with (seed, sweeps) it fixes every energy, so
changing it changes the samples.

Within a chunk the uniforms are drawn and reduced a tile of rows at a time
into one reused buffer of about _TILE doubles.  PCG64 fills doubles in
order, so the tiles see exactly the uniforms of one whole-chunk draw, and
occupation sums are exact integers: the tile size changes no energy.  Draw
memory is one tile, not chunk x n_oscillators.

Standard errors come from a delete-block jackknife evaluated in one pass:
per-block central power sums about the global mean give every leave-out
set's moments by subtraction, and one k-statistic formula serves both the
full sample and all leave-out sets at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import OscillatorEnsemble, ThermoState
from .errors import DivergentPartition, DomainError, InsufficientSamples

# Sweeps per chunk; each chunk has its own child seed, so this fixes the stream.
_CHUNK = 16384
# Doubles per draw tile; a tile holds max(1, _TILE // n_oscillators) sweeps.
# It bounds memory only and changes no energy.
_TILE = 65536
# Largest particle count sampled.  A tile holds at least one sweep of n
# doubles, so this bounds draw memory at 8 MiB (and the draw time, which is
# proportional to n).
_MAX_OSCILLATORS = 2**20


def occupation_energies(uniforms, log_q):
    """Total occupation numbers per sweep from a uniform stream.

    uniforms is a float array of shape (sweeps, n_oscillators) with entries
    in (0, 1]; each entry maps to a geometric occupation
    floor(log(u)/log(q)).  The work is done in place, so uniforms is
    overwritten with the occupations.  The result is an exact
    integer-valued float array.
    """
    np.log(uniforms, out=uniforms)
    np.divide(uniforms, log_q, out=uniforms)
    np.floor(uniforms, out=uniforms)
    return uniforms.sum(axis=1)


@dataclass(frozen=True)
class SampleRun:
    """A completed sampling run; energies are exact multiples of ens.a."""

    seed: int
    sweeps: int
    ens: OscillatorEnsemble
    state: ThermoState
    energies: np.ndarray = field(repr=False)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("energy\n")
            for e in self.energies:
                fh.write(f"{float(e)!r}\n")


def sample_energies(
    ens: OscillatorEnsemble,
    state: ThermoState,
    sweeps: int,
    seed: int,
) -> SampleRun:
    """Draw `sweeps` i.i.d. total energies of the ensemble."""
    if not state.beta * ens.a > 0:
        raise DivergentPartition("sampling requires beta*a > 0")
    if sweeps < 1:
        raise DomainError("sweeps must be >= 1")
    n_osc = int(ens.n)
    if n_osc != ens.n or not 1 <= n_osc <= _MAX_OSCILLATORS:
        raise DomainError(
            f"sampling requires an integer particle count in 1..{_MAX_OSCILLATORS}, "
            f"got {ens.n!r}"
        )

    log_q = -state.beta * ens.a  # log of the geometric ratio q = exp(-beta*a)
    n_chunks = (sweeps + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    tile = np.empty((min(max(1, _TILE // n_osc), _CHUNK, sweeps), n_osc))
    energies = np.empty(sweeps)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        stop = min((i + 1) * _CHUNK, sweeps)
        for lo in range(i * _CHUNK, stop, len(tile)):
            u = tile[: min(len(tile), stop - lo)]
            rng.random(out=u)
            np.subtract(1.0, u, out=u)  # uniform on (0, 1]
            energies[lo : lo + len(u)] = occupation_energies(u, log_q)
    energies *= ens.a
    return SampleRun(seed=seed, sweeps=sweeps, ens=ens, state=state, energies=energies)


def _k_from_moments(m, mean, m2, m3, m4, order: int) -> np.ndarray:
    """Unbiased k-statistics k_1..k_order from the sample size m, the mean
    and the central moments m2..m4 (each a mean of d**p about the mean).

    The arguments may be equal-shape arrays, one entry per sample; the
    result then has one row per order.
    """
    out = [mean]
    if order >= 2:
        out.append(m * m2 / (m - 1))
    if order >= 3:
        out.append(m * m * m3 / ((m - 1) * (m - 2)))
    if order >= 4:
        out.append(
            m * m * ((m + 1) * m4 - 3 * (m - 1) * m2 * m2)
            / ((m - 1) * (m - 2) * (m - 3))
        )
    return np.array(out[:order])


def k_statistics(x: np.ndarray, order: int = 4) -> np.ndarray:
    """Unbiased k-statistics k_1..k_order (order <= 4) of a sample."""
    if not 1 <= order <= 4:
        raise DomainError("k-statistics implemented for order 1..4")
    x = np.asarray(x, dtype=float)
    m = len(x)
    if m < order + 1:
        raise InsufficientSamples(f"need at least {order + 1} samples, got {m}")
    mean = x.mean()
    d = x - mean
    return _k_from_moments(m, mean, np.mean(d**2), np.mean(d**3), np.mean(d**4), order)


def _leave_out_k_statistics(x: np.ndarray, g: int, order: int) -> np.ndarray:
    """k-statistics of x with each of its g np.array_split blocks left out,
    one row per block, from per-block central power sums in one pass."""
    sizes = np.array([len(part) for part in np.array_split(x, g)])
    mu = x.mean()
    d = x - mu
    # block power sums of d**1..d**4 about the global mean, one row per block
    block = np.add.reduceat(d[:, None] ** np.arange(1, 5), np.cumsum(sizes) - sizes, axis=0)
    rest = block.sum(axis=0) - block
    n = (len(x) - sizes).astype(float)
    s1, s2, s3, s4 = (rest[:, p] / n for p in range(4))
    # shift each leave-out set's moments from mu to its own mean mu + s1
    m2 = s2 - s1 * s1
    m3 = s3 - 3 * s1 * s2 + 2 * s1**3
    m4 = s4 - 4 * s1 * s3 + 6 * s1 * s1 * s2 - 3 * s1**4
    return _k_from_moments(n, mu + s1, m2, m3, m4, order).T


@dataclass(frozen=True)
class EmpiricalCumulants:
    order: int
    estimates: np.ndarray
    standard_errors: np.ndarray
    blocks: int


def empirical_cumulants(
    run: SampleRun, order: int = 4, blocks: int = 50
) -> EmpiricalCumulants:
    """k-statistics of the sampled energies with delete-block jackknife SEs."""
    m = len(run.energies)
    if m < 100:
        raise InsufficientSamples(f"need at least 100 samples, got {m}")
    g = min(blocks, m // 10)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        estimates = k_statistics(run.energies, order)
        loo = _leave_out_k_statistics(run.energies, g, order)
        center = loo.mean(axis=0)
        se = np.sqrt((g - 1) / g * np.sum((loo - center) ** 2, axis=0))
    if not (np.all(np.isfinite(estimates)) and np.all(np.isfinite(se))):
        raise DomainError(
            f"k-statistics up to order {order} of the sampled energies overflow a double"
        )
    return EmpiricalCumulants(
        order=order, estimates=estimates, standard_errors=se, blocks=g
    )
