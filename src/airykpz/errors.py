"""Exception taxonomy shared by all modules."""


class AiryKpzError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AiryKpzError, ValueError):
    """An argument lies outside the mathematically supported range."""


class ConfigurationError(AiryKpzError, ValueError):
    """A resolution/size/budget parameter is out of its allowed range."""


class NumericalConsistencyError(AiryKpzError, ArithmeticError):
    """A computed quantity violates a self-check (out-of-range determinant,
    non-positive moment, truncation sensitivity)."""


class SingularityError(AiryKpzError, ArithmeticError):
    """A denominator came too close to zero.

    Carries the offending matrix indices when available.
    """

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class EvaluationError(AiryKpzError, ArithmeticError):
    """An integrand or kernel produced a non-finite value.

    Carries the offending node pair when available.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
