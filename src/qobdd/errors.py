"""Exception types shared across the package."""

from contextlib import contextmanager


class LengthMismatchError(ValueError):
    """An input bit string does not match the expected arity."""


class ModulusMismatchError(ValueError):
    """Two objects that must share a modulus do not."""


class ZeroResidueError(ValueError):
    """Goodness is queried for b == 0 (mod m), where it is undefined."""


class TooLargeError(ValueError):
    """An exhaustive operation was requested beyond its tractability guard."""


class NonPowerOfTwoError(ValueError):
    """A branch-register size that must be a power of two is not."""


class NotNormalError(ValueError):
    """A subgroup fails closure, inverse, or normality checks."""


class PromiseViolation(ValueError):
    """An encoded input falls outside the promised value range."""


class InvalidErrorRateError(ValueError):
    """An error rate outside the open interval (0, 1)."""


@contextmanager
def _malformed(what: str):
    """Re-raise a missing key, a wrong type or a missing entry met while
    parsing `what` as the ValueError every loader raises on bad input."""
    try:
        yield
    except (KeyError, TypeError, IndexError) as error:
        raise ValueError(f"malformed {what}: {type(error).__name__} {error}") from error


def _json_list(value) -> list:
    """value if it is a JSON list; TypeError otherwise, so that a string is
    not read one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {type(value).__name__}")
    return value
