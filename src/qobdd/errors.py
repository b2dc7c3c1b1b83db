"""Exception types shared across the package."""

import json
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
    """Re-raise a missing key, a wrong type, a missing entry or an integer
    too large for a float met while parsing `what` as the ValueError every
    loader raises on bad input."""
    try:
        yield
    except (KeyError, TypeError, IndexError, OverflowError) as error:
        raise ValueError(f"malformed {what}: {type(error).__name__} {error}") from error


def _load_json(path: str):
    """The JSON value in the file at path.  A file nested too deeply for the
    decoder raises the ValueError every loader raises on bad input, not the
    decoder's RecursionError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as error:
            raise ValueError(f"malformed JSON in {path}: nested too deeply to decode") from error


def _json_list(value) -> list:
    """value if it is a JSON list; TypeError otherwise, so that a string is
    not read one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {type(value).__name__}")
    return value


def _json_int(value) -> int:
    """value as an int if it is a JSON integer (not a bool) or a string of
    decimal digits with an optional minus; TypeError otherwise, so that a
    float is not truncated and a bool is not read as 0 or 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
        return int(value)
    raise TypeError(f"expected a JSON integer or a decimal string, got {value!r}")


def _json_ints(value) -> tuple[int, ...]:
    """_json_int of every entry of a JSON list: the same values accepted, and
    otherwise the TypeError of the first entry _json_int refuses."""
    return tuple(map(_json_int, _json_list(value)))
