"""Exception hierarchy shared by all thermoflux modules; each class
carries its CLI exit code: 2 for invalid input, 3 for a numerical failure."""


class ThermofluxError(Exception):
    """Base class for all thermoflux errors."""

    exit_code = 2


class NumericalFailure(ThermofluxError):
    """Base class for failures of a numerical method on valid input."""

    exit_code = 3


class DivergentPartition(ThermofluxError):
    """Partition sum does not converge (requires beta * a > 0)."""


class DomainError(ThermofluxError):
    """Argument outside the mathematical domain of the operation."""


class OrderTooLarge(ThermofluxError):
    """Requested cumulant/coefficient order exceeds the supported cap."""


class InsufficientSamples(ThermofluxError):
    """Too few Monte-Carlo samples for the requested estimator."""


class NoBracket(NumericalFailure):
    """Root bracketing failed (should not occur for valid inputs)."""


class DegeneratePoint(NumericalFailure):
    """Interpolation point where the oscillator parameters degenerate."""


class IllConditioned(NumericalFailure):
    """Moment-matching linear system is singular."""


class QuadratureFailure(NumericalFailure):
    """Numerical quadrature failed its self-consistency check."""


class GridTooSmall(NumericalFailure):
    """Grid does not cover enough standard deviations for the operation."""


class SingularTime(NumericalFailure):
    """Propagator evaluated at a singular time (sin t too close to zero)."""


class ConfigError(ThermofluxError):
    """Invalid run configuration (CLI/front-end level)."""
