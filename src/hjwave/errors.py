"""Exception hierarchy and the range check shared by all hjwave modules."""

import math
import sys


class HjwaveError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HjwaveError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class StabilityError(HjwaveError):
    """An explicit time step violates its stability (CFL) bound."""


class NumericalError(HjwaveError):
    """A numerical procedure failed (non-finite values, failed solve)."""


class FormatError(HjwaveError, ValueError):
    """Serialized input (PDE spec JSON, binary field) breaks its layout."""


class InsufficientResolutionError(HjwaveError, ValueError):
    """A sampled field is too coarse for the requested stencil."""


class InsufficientDataError(HjwaveError, ValueError):
    """An operation needs more input (e.g. a second time level) than given."""


class ZeroFieldError(HjwaveError, ValueError):
    """A field value is too close to zero for a logarithm / division."""


class DivergenceError(HjwaveError):
    """A trajectory integration produced non-finite state."""


class DegenerateQuadraticError(HjwaveError, ValueError):
    """A dispersion polynomial has no frequency dependence at all."""


class UnsupportedOrderError(HjwaveError, ValueError):
    """The operation is only defined for quadratic (m = 2) equations."""


class VerificationError(HjwaveError):
    """One or more verify-all acceptance checks failed."""


def require_normal_power(name: str, value: complex, power: int = 2) -> None:
    """Refuse a value whose |value|^power, or its reciprocal, overflows."""
    size = math.prod([abs(value)] * power)  # inf or 0 out of range, no raise
    if not sys.float_info.min <= size <= sys.float_info.max:
        which = "square" if power == 2 else f"power {power}"
        raise DomainError(f"{name} = {value!r} is out of range: its {which} "
                          f"{'overflows' if size > 1.0 else 'underflows'}")
