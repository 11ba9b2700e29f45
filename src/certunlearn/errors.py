"""Exception types raised by the accountant and calibration searches."""


class CertUnlearnError(Exception):
    """Base class for all package-specific errors."""


class CalibrationInfeasible(CertUnlearnError):
    """No certificate exists at these noise and step settings (CLI exit 2)."""


class CapOverflow(CalibrationInfeasible):
    """The ball-constrained LSI cap is not representable in float64.

    The cap has the form a * exp(e); once the exponent e passes ~709 the
    value overflows. We refuse to silently saturate: callers that depend on
    the cap must report the bound as vacuous instead of producing numbers.

    Attributes:
        exponent: the exponent 4(R + eta*M)^2 / xi that overflowed.
    """

    def __init__(self, exponent: float):
        self.exponent = exponent
        super().__init__(
            f"LSI cap overflows float64 (exponent {exponent:.6g} > ~709); "
            "the ball-geometry bound is vacuous at these constants"
        )


class BudgetUnreachable(CalibrationInfeasible):
    """No iteration count up to K_max meets the privacy target."""

    def __init__(self, target: float, k_max: int, best: float | None = None):
        self.best = best
        msg = f"target epsilon {target:.6g} unreachable within K_max={k_max}"
        if best is not None:
            msg += f" (best achieved {best:.6g})"
        super().__init__(msg)


class NoFeasibleSigma(CalibrationInfeasible):
    """Even the largest probed noise level fails the iteration budget."""

    def __init__(self, sigma_hi: float, k_hat: int, k_at_hi: int | None = None):
        msg = f"sigma_hi={sigma_hi:.6g} does not meet the step budget K_hat={k_hat}"
        if k_at_hi is not None:
            msg += f" (needs K={k_at_hi})"
        super().__init__(msg)


class InfeasibleBudget(CalibrationInfeasible):
    """A closed-form calibration formula has no solution at these parameters."""


class VacuousBound(CalibrationInfeasible):
    """The Renyi bound is infinite at every probed order, so it certifies nothing.

    A sequential bound gets here once its unrolled orders alpha * 2^(i-1)
    overflow float64 across the whole alpha grid, as from the 1025th
    request of a stream: no step count can make it finite.
    """

    def __init__(self):
        super().__init__("the Renyi bound is infinite at every probed order; "
                         "no (eps, delta) certificate exists")


class DatasetFormatError(CertUnlearnError):
    """A dataset file violates the expected CSV layout.

    Attributes:
        line: 1-based line number of the offending record, if known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(CertUnlearnError):
    """Invalid experiment configuration (bad flag value, missing field, ...)."""
