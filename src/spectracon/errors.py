"""Exception types shared across the package."""


class SpectraconError(Exception):
    """Base class for all package errors."""


class InvalidInput(SpectraconError):
    """Malformed or inconsistent user input (shapes, formats, parameters)."""


class NoInteriorPoint(InvalidInput):
    """The feasibility probe found no interior point of a spectrahedron.

    ``kind`` is the probe's answer, "Empty" or "Unknown".
    """

    def __init__(self, message, kind):
        super().__init__(message)
        self.kind = kind


class NumericalFailure(SpectraconError):
    """A LAPACK routine outside the SDP solver failed (the eigenvalue and
    SVD wrappers of symcore).  ``sdpcore.solve`` does not raise it: a solve
    that goes wrong returns a status, and ``SdpSolution.reliable`` says
    whether its iterate may be used.
    """


class OrderTooSmall(InvalidInput):
    """Relaxation order below the minimum required by the degrees involved."""


class NotContained(SpectraconError):
    """Containment is refuted; ``witness`` holds the certificate data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantViolation(SpectraconError):
    """Cross-method consistency check failed beyond tolerance.

    Carries the offending ``report`` so callers can inspect the raw numbers.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
