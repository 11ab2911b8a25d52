"""Independent Monte-Carlo oracle for the canonical oscillator ensemble.

Each oscillator occupation is drawn by inversion as a geometric variable,
n = floor(log(u)/log(q)) with q = exp(-beta*a) and u uniform on (0, 1], so
any PRNG backend reproduces the run given the same uniform stream.  Sweeps
are partitioned into chunks of _CHUNK sweeps, each drawn from its own child
of the spawned seed sequence and evaluated in order.  The chunk length is
part of the stream: together with (seed, sweeps) it fixes every energy, so
changing it changes the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import OscillatorEnsemble, ThermoState
from .errors import DivergentPartition, DomainError, InsufficientSamples

# Sweeps per chunk; each chunk has its own child seed, so this fixes the stream.
_CHUNK = 16384


def occupation_energies(uniforms, log_q):
    """Total occupation numbers per sweep from a uniform stream.

    uniforms has shape (sweeps, n_oscillators) with entries in (0, 1];
    each entry maps to a geometric occupation floor(log(u)/log(q)).
    The result is an exact integer-valued float array.
    """
    occ = np.floor(np.log(uniforms) / log_q)
    return occ.sum(axis=1)


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
    if n_osc != ens.n or n_osc < 1:
        raise DomainError("sampling requires an integer particle count >= 1")

    log_q = -state.beta * ens.a  # log of the geometric ratio q = exp(-beta*a)
    n_chunks = (sweeps + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    parts = []
    for i, child in enumerate(children):
        rows = min(_CHUNK, sweeps - i * _CHUNK)
        rng = np.random.Generator(np.random.PCG64(child))
        u = 1.0 - rng.random((rows, n_osc))  # uniform on (0, 1]
        parts.append(occupation_energies(u, log_q) * ens.a)
        del u  # free the chunk before the next one is drawn
    energies = np.concatenate(parts)
    return SampleRun(seed=seed, sweeps=sweeps, ens=ens, state=state, energies=energies)


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
    m2 = np.mean(d**2)
    m3 = np.mean(d**3)
    m4 = np.mean(d**4)
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
    estimates = k_statistics(run.energies, order)
    g = min(blocks, m // 10)
    parts = np.array_split(run.energies, g)
    loo = np.empty((g, order))
    for i in range(g):
        rest = np.concatenate([parts[j] for j in range(g) if j != i])
        loo[i] = k_statistics(rest, order)
    center = loo.mean(axis=0)
    se = np.sqrt((g - 1) / g * np.sum((loo - center) ** 2, axis=0))
    return EmpiricalCumulants(
        order=order, estimates=estimates, standard_errors=se, blocks=g
    )
