"""Exception hierarchy shared by all hjwave modules."""


class HjwaveError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HjwaveError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class StabilityError(HjwaveError):
    """An explicit time step violates its stability (CFL) bound."""


class NumericalError(HjwaveError):
    """A numerical procedure failed (non-finite values, failed solve).

    Carries whatever per-step diagnostics were collected before the failure.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class FormatError(HjwaveError, ValueError):
    """Serialized input (PDE spec JSON, binary field) breaks its layout."""


class InsufficientResolutionError(HjwaveError, ValueError):
    """A sampled field is too coarse for the requested stencil."""


class InsufficientDataError(HjwaveError, ValueError):
    """An operation needs more input (e.g. a second time level) than given."""


class ZeroFieldError(HjwaveError, ValueError):
    """A field value is too close to zero for a logarithm / division."""


class DivergenceError(HjwaveError):
    """A trajectory integration produced non-finite state.

    The partial trajectory up to the last valid step is attached.
    """

    def __init__(self, message, partial=None, last_valid_step=None):
        super().__init__(message)
        self.partial = partial
        self.last_valid_step = last_valid_step


class DegenerateQuadraticError(HjwaveError, ValueError):
    """A dispersion polynomial has no frequency dependence at all."""


class UnsupportedOrderError(HjwaveError, ValueError):
    """The operation is only defined for quadratic (m = 2) equations."""


class VerificationError(HjwaveError):
    """One or more verify-all acceptance checks failed."""
