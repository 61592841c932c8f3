"""Exception types shared across the library, and the two type guards that raise one.

Every error raised deliberately by clutterforge subclasses ClutterforgeError,
so CLI and test code can catch library failures without masking bugs.
"""
from __future__ import annotations


class ClutterforgeError(Exception):
    """Base class for all deliberate clutterforge errors."""


class NotPrimePower(ClutterforgeError, ValueError):
    """The requested field order is not a prime power."""


class UnsupportedField(ClutterforgeError, ValueError):
    """The requested field order is a prime power outside the supported range."""


class DivisionByZero(ClutterforgeError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatch(ClutterforgeError, ValueError):
    """Vectors or generator lists disagree with the ambient dimension."""


class FieldMismatch(ClutterforgeError, ValueError):
    """Two operands live over different fields."""


class BadIndex(ClutterforgeError, ValueError):
    """A coordinate or ground-element index is out of range."""


class TooLarge(ClutterforgeError, ValueError):
    """An enumeration would exceed a hard size limit."""


class OverlapError(ClutterforgeError, ValueError):
    """Delete and contract sets of a minor overlap."""


class BudgetExceeded(ClutterforgeError, RuntimeError):
    """A search was abandoned because it exceeds the configured budget.

    Distinct from a negative answer: the question was not decided.
    """


class NotConnectedComponent(ClutterforgeError, ValueError):
    """An operation requiring a connected, coloop-free matroid was given something else."""


class WrongShape(ClutterforgeError, ValueError):
    """A witness constructor was given a space whose matroid has the wrong shape."""


class WrongField(ClutterforgeError, ValueError):
    """A witness constructor was given a space over an inapplicable field order."""


class WrongFieldClass(ClutterforgeError, ValueError):
    """A theorem check was requested for a field order outside the theorem's class."""


class PreconditionViolated(ClutterforgeError, ValueError):
    """Explicit operation precondition does not hold for the given arguments."""


class WrongType(ClutterforgeError, TypeError):
    """An argument is of a type the operation does not accept."""


class UnknownName(ClutterforgeError, KeyError):
    """A name matches no entry of a fixed table (built-in clutters, minor targets)."""

    def __str__(self) -> str:
        # KeyError quotes its message; print it as written
        return str(self.args[0]) if self.args else ""


class ParseError(ClutterforgeError, ValueError):
    """Input text or JSON could not be parsed."""


class VerificationFailure(ClutterforgeError, AssertionError):
    """A constructed certificate failed its own replay validation."""


def _require_int(value: object, what: str) -> None:
    """Raise WrongType unless `value` is an int; a bool is not one here."""
    if type(value) is not int:
        raise WrongType(f"{what} must be an int, got {type(value).__name__}")


def _require_type(value: object, cls: type) -> None:
    """Raise WrongType unless `value` is an instance of `cls`."""
    if not isinstance(value, cls):
        name = cls.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise WrongType(f"expected {article} {name}, got {type(value).__name__}")
