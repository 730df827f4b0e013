"""Exception taxonomy shared by all modules, the guards that raise from it
(moment orders, moments, probabilities, overflow) and a call's outcome."""

import math
import numbers
import sys


class AiryKpzError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AiryKpzError, ValueError):
    """An argument lies outside the mathematically supported range."""


class ConfigurationError(AiryKpzError, ValueError):
    """A resolution/size/budget parameter is out of its allowed range."""


class NumericalConsistencyError(AiryKpzError, ArithmeticError):
    """A computed quantity violates a self-check (out-of-range determinant,
    non-positive moment, truncation sensitivity, non-finite value)."""


def is_integer(val) -> bool:
    """An int or numpy integer; a bool is not one."""
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def check_order(name: str, k, k_max: int = 4) -> None:
    """Raise ConfigurationError unless k is an integer in [1, k_max]; the
    default is the highest moment order either side computes to its accuracy."""
    if not (is_integer(k) and 1 <= k <= k_max):
        raise ConfigurationError(f"{name} supports integer 1 <= k <= {k_max}, got {k!r}")


def check_positive(name: str, value: float) -> float:
    """value, a moment; one that is not positive was lost to cancellation,
    and one that is infinite overflowed: both raise."""
    if not 0 < value < math.inf:
        raise NumericalConsistencyError(f"{name} = {value!r} is not positive and finite")
    return value


def checked_exp(what: str, x: float) -> float:
    """math.exp(x); past log(DBL_MAX), at +inf or at NaN it raises DomainError
    naming ``what``.  The package's one overflow guard."""
    if not x < math.inf:
        raise DomainError(f"{what} exp({x}) is not finite")
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"{what} exp({x:.6g}) overflows double precision") from None


def check_probability(name: str, value: float) -> float:
    """value, a probability det(1 - K), clipped to 1; in [0, DBL_MIN) it
    underflowed (DomainError), and outside (0, 1 + 1e-10] it raises."""
    if 0.0 <= value < sys.float_info.min:
        raise DomainError(f"{name} = {value!r} underflows double precision")
    if not 0.0 < value <= 1.0 + 1e-10:
        raise NumericalConsistencyError(f"{name} = {value!r} outside (0, 1]")
    return min(value, 1.0)


def outcome(fn, *args):
    """fn(*args), or the AiryKpzError it raises (any other exception
    propagates): a result computed once and read with :func:`value`."""
    try:
        return fn(*args)
    except AiryKpzError as exc:
        return exc


def value(result):
    """An :func:`outcome`'s value, or its error raised."""
    if isinstance(result, Exception):
        raise result
    return result
