"""Exception types shared across the package."""


class SpectraconError(Exception):
    """Base class for all package errors."""


class InvalidInput(SpectraconError):
    """Malformed or inconsistent user input (shapes, formats, parameters)."""


class NumericalFailure(SpectraconError):
    """A numerical routine could not produce a trustworthy result.

    Carries an optional ``report`` attribute with diagnostic data.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


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
