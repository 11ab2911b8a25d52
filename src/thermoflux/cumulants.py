"""Exact energy cumulants via the integer coefficient table c(n, m).

The n-th cumulant of the total energy is

    K_n = n_particles * a^n * sum_{m=1}^{n} c(n, m) * nbar^m,

where nbar = 1/(exp(beta*a) - 1) and the c(n, m) are positive integers
with c(n, 1) = 1, c(n, n) = (n-1)! and the recurrence
c(n+1, m) = m*c(n, m) + (m-1)*c(n, m-1).  They equal
(m-1)! * Stirling2(n, m), which this module keeps as an independent
cross-check, together with the classical power-sum identities.

All coefficient arithmetic is exact (Python integers / Fractions); the
order cap MAX_ORDER is a documented contract, not a numeric limitation.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import OscillatorEnsemble, ThermoState, mean_occupation_signed
from .errors import DivergentPartition, DomainError, OrderTooLarge

MAX_ORDER = 20
# Step of finite_difference_cumulant's stencil, relative to |beta|.
_FD_STEP = 2e-2


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(f"order must be in 1..{MAX_ORDER}, got {n}")


@dataclass(frozen=True)
class CoefficientTable:
    """Triangular table of the exact integers c(n, m), 1 <= m <= n <= n_max."""

    n_max: int
    rows: tuple  # rows[n-1] is a tuple (c(n,1), ..., c(n,n))

    def c(self, n: int, m: int) -> int:
        if not (1 <= m <= n <= self.n_max):
            raise OrderTooLarge(f"c({n},{m}) outside table of size {self.n_max}")
        return self.rows[n - 1][m - 1]


@dataclass(frozen=True)
class CumulantVector:
    """Cumulants kappa_1..kappa_order (energy or fluctuation scale)."""

    order: int
    values: np.ndarray  # values[k] = kappa_{k+1}

    def __post_init__(self):
        if len(self.values) != self.order:
            raise DomainError("values length must equal order")

    def kappa(self, n: int) -> float:
        return float(self.values[n - 1])


@functools.cache
def coefficient_table(n_max: int) -> CoefficientTable:
    """Build c(n, m) for n <= n_max by the two-term recurrence (cached)."""
    _check_order(n_max)
    rows = [(1,)]
    for n in range(1, n_max):
        prev = rows[-1]
        row = [1]
        for m in range(2, n + 2):
            cm = prev[m - 1] if m <= n else 0
            cm1 = prev[m - 2]
            row.append(m * cm + (m - 1) * cm1)
        rows.append(tuple(row))
    return CoefficientTable(n_max=n_max, rows=tuple(rows))


def c_explicit(n: int, m: int) -> int:
    """Alternating-binomial closed form (1/m) * sum_k (-1)^(m-k) C(m,k) k^n."""
    _check_order(n)
    if not 1 <= m <= n:
        raise OrderTooLarge(f"need 1 <= m <= n, got m={m}, n={n}")
    total = sum((-1) ** (m - k) * math.comb(m, k) * k**n for k in range(m + 1))
    c, rem = divmod(total, m)
    assert rem == 0
    return c


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind via its own recurrence (oracle path)."""
    if m < 0 or n < 0:
        raise OrderTooLarge("indices must be nonnegative")
    row = [1]  # S(0, 0)
    for i in range(1, n + 1):
        new = [0]
        for k in range(1, i + 1):
            sk = row[k] if k < len(row) else 0
            new.append(k * sk + row[k - 1])
        row = new
    return row[m] if m < len(row) else 0


def bernoulli_numbers(n_max: int) -> list:
    """Bernoulli numbers B_0..B_n_max as exact Fractions, B_1 = +1/2.

    The +1/2 convention makes the Faulhaber form below reproduce
    1^m + ... + n^m exactly (with B_1 = -1/2 it would give the sum up to
    n-1 instead).
    """
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(Fraction(math.comb(n + 1, k)) * b[k] for k in range(n))
        b.append(-s / (n + 1))
    if n_max >= 1:
        b[1] = Fraction(1, 2)
    return b


@dataclass(frozen=True)
class PowerSumCheck:
    direct: int
    bernoulli_form: int
    c_form: int

    @property
    def consistent(self) -> bool:
        return self.direct == self.bernoulli_form == self.c_form


def power_sum_check(m: int, n: int) -> PowerSumCheck:
    """Evaluate S_m(n) = 1^m + ... + n^m along three independent routes.

    direct summation; the Faulhaber/Bernoulli polynomial form; and the
    binomial form sum_k k * c(m, k) * C(n+1, k+1) through the same c(m, k)
    integers that drive the cumulants.  All three are exact integers.
    """
    if not 1 <= m <= 10:
        raise OrderTooLarge(f"power-sum order must be in 1..10, got {m}")
    if not 1 <= n <= 1000:
        raise OrderTooLarge(f"power-sum length must be in 1..1000, got {n}")
    direct = sum(j**m for j in range(1, n + 1))

    b = bernoulli_numbers(m)
    bern = sum(
        Fraction(math.comb(m + 1, k)) * b[k] * Fraction(n) ** (m + 1 - k)
        for k in range(m + 1)
    ) / (m + 1)
    assert bern.denominator == 1
    table = coefficient_table(m)
    c_form = sum(
        k * table.c(m, k) * math.comb(n + 1, k + 1) for k in range(1, m + 1)
    )
    return PowerSumCheck(direct=direct, bernoulli_form=int(bern), c_form=c_form)


def oscillator_cumulants(a: float, x: float, order: int) -> np.ndarray:
    """Cumulants kappa_1..kappa_order of one oscillator with quantum a at
    x = beta*a of either sign:

        kappa_k = sum_{m=1}^{k} c(k, m) * eps^m * a^(k-m),   eps = a*nbar(x).

    For x < 0 the occupation nbar = 1/(e^x - 1) is continued formally, as
    the symmetric dual and the formal points of the homotopy require.  The
    terms are eps^m * a^(k-m), not the equal a^k * nbar^m, because at large
    |beta*a| a^k can overflow while nbar underflows, although every term and
    the cumulant are representable.  Raises DomainError where a cumulant
    overflows a double.
    """
    rows = coefficient_table(order).rows
    eps = a * mean_occupation_signed(x)
    try:
        eps_pow = [eps**m for m in range(1, order + 1)]  # eps^m for m = 1..order
        a_pow = [a**j for j in range(order)]  # a^j for j = 0..order-1
    except OverflowError:  # a power alone exceeds the largest double
        eps_pow = a_pow = [math.inf] * order
    values = np.array(
        [
            sum([c * e * q for c, e, q in zip(row, eps_pow, a_pow[n - 1 :: -1])])
            for n, row in enumerate(rows, start=1)
        ]
    )
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"oscillator cumulants up to order {order} overflow a double at "
            f"a = {a!r}, beta*a = {x!r}"
        )
    return values


def energy_cumulants(
    state: ThermoState, ens: OscillatorEnsemble, n_max: int
) -> CumulantVector:
    """Exact cumulants K_1..K_n_max of the total energy."""
    _check_order(n_max)
    if not state.beta * ens.a > 0:
        raise DivergentPartition("cumulants require beta*a > 0")
    with np.errstate(over="ignore"):  # checked below
        values = ens.n * oscillator_cumulants(ens.a, state.beta * ens.a, n_max)
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"energy cumulants up to order {n_max} overflow a double at n = {ens.n!r}"
        )
    return CumulantVector(order=n_max, values=values)


def fluctuation_cumulants(
    state: ThermoState, ens: OscillatorEnsemble, n_max: int
) -> CumulantVector:
    """Cumulants of the centered specific-energy fluctuation (E - <E>)/n.

    kappa_1 = 0; kappa_n = K_n / n_particles^n for n >= 2.  Raises
    DomainError where n_particles^n is not a normal double (it over- or
    underflows) or a quotient overflows.
    """
    kv = energy_cumulants(state, ens, n_max)
    with np.errstate(all="ignore"):  # checked below
        scale = ens.n ** np.arange(1, n_max + 1)
        values = kv.values / scale
    if not (
        np.all((scale >= sys.float_info.min) & (scale <= sys.float_info.max))
        and np.all(np.isfinite(values))
    ):
        raise DomainError(
            f"fluctuation cumulants up to order {n_max} leave the double range "
            f"at n = {ens.n!r}"
        )
    values[0] = 0.0
    return CumulantVector(order=n_max, values=values)


@functools.cache
def _binomial_table(n: int) -> np.ndarray:
    """C(j, k) at [j, k] for 0 <= j, k < n as floats (exact: C(19, 9) is far
    below 2^53), computed once per n and shared read-only."""
    table = np.array([[math.comb(j, k) for k in range(n)] for j in range(n)], dtype=float)
    table.flags.writeable = False
    return table


def cumulant_rows_to_moments(values) -> np.ndarray:
    """Raw moments m_1..m_n of every row of cumulants kappa_1..kappa_n.

    values has shape (..., n); so has the result.  The Bell recursion

        m_j = sum_{k=0}^{j-1} C(j-1, k) * kappa_{k+1} * m_{j-1-k},   m_0 = 1,

    runs once over all rows.  Each sum is accumulated sequentially in k
    order, starting from +0.0, so every row is bit-identical to the
    one-row scalar recursion; np.sum (pairwise) or a matrix product (BLAS)
    would add in another order.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    _check_order(n)
    binom = _binomial_table(n)
    m = np.empty(values.shape[:-1] + (n + 1,))
    m[..., 0] = 1.0
    for j in range(1, n + 1):
        terms = binom[j - 1, :j] * values[..., :j] * m[..., j - 1 :: -1]
        # a left-to-right sum from +0.0 equals the running sum plus +0.0:
        # the two differ only in the sign of an all-zero sum
        m[..., j] = np.cumsum(terms, axis=-1)[..., -1] + 0.0
    return m[..., 1:]


def cumulants_to_moments(kappa: CumulantVector) -> np.ndarray:
    """Raw moments m_1..m_order from cumulants (standard Bell recursion).

    One row of cumulant_rows_to_moments, which works on stacked rows.
    """
    return cumulant_rows_to_moments(kappa.values)


def moments_to_cumulants(moments: np.ndarray) -> CumulantVector:
    """Inverse of cumulants_to_moments; the pair round-trips exactly."""
    moments = np.asarray(moments, dtype=float)
    n = len(moments)
    _check_order(n)
    m = np.concatenate(([1.0], moments))
    kappa = np.zeros(n)
    for j in range(1, n + 1):
        # kappa[j-1] is still zero here, so the k = j-1 term drops out and
        # the sum runs over kappa_1..kappa_{j-1} as required
        s = sum(math.comb(j - 1, k) * kappa[k] * m[j - 1 - k] for k in range(j))
        kappa[j - 1] = m[j] - s
    return CumulantVector(order=n, values=kappa)


def central_moments(kappa: CumulantVector) -> np.ndarray:
    """Central moments: raw moments of the same cumulants with kappa_1 = 0."""
    values = kappa.values.copy()
    values[0] = 0.0
    return cumulants_to_moments(CumulantVector(order=kappa.order, values=values))


def finite_difference_cumulant(
    state: ThermoState, ens: OscillatorEnsemble, order: int
) -> float:
    """Reference K_order from central differences of log Z over beta.

    Reproducible oracle, independent of the coefficient-table route:
    n-th central difference at steps h, h/2, h/4 with two Richardson
    stages (leading error O(h^6)), step h = _FD_STEP * |beta| with
    _FD_STEP = 0.02.  log Z is evaluated in extended precision: at order 5
    the stencil cancels ~12 decimal digits, which double precision cannot
    afford at the 1e-6 relative gate (on platforms where long double
    equals double the oracle loses ~3 digits).
    """
    _check_order(order)
    beta = np.longdouble(state.beta)
    h = np.longdouble(_FD_STEP) * np.abs(beta)
    n, a = np.longdouble(ens.n), np.longdouble(ens.a)

    def logz(b):
        if not b * a > 0:
            raise DivergentPartition("stencil stepped outside beta*a > 0")
        return -n * np.log(-np.expm1(-b * a))

    def central(hh):
        total = np.longdouble(0.0)
        for i in range(order + 1):
            offset = (np.longdouble(order) / 2 - i) * hh
            total += (-1) ** i * math.comb(order, i) * logz(beta + offset)
        return total / hh**order

    d1, d2, d3 = central(h), central(h / 2), central(h / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    value = (16 * r2 - r1) / 15
    return float((-1) ** order * value)
