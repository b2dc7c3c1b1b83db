"""Rotation-parameter sets for fingerprinting and their goodness checks.

A parameter set K = {k_1, ..., k_t} over Z_m is good for a residue b != 0 when
the squared normalized cosine sum (1/t^2) (sum_i cos(2 pi k_i b / m))^2 stays
below the error rate; at b = g(sigma) it is the single-polynomial program's
acceptance.  One cosine helper over residue arrays serves the goodness check
and both closed forms: the products k_i b mod m take only m values, so over
m <= DEFAULT_VERIFY_LIMIT it gathers cos(scale j / m) from a cached table
built by the same expression, the same floats for m cosines instead of one
per pair.
Sets are drawn uniformly at random; an Azuma-type bound makes a random set
good for every b with positive probability once t >= ceil((2/eps) ln 2m).
t is then padded to the next power of two, because the branch register
that selects k_i is log2 t qubits; the single-polynomial program then
interferes its t branches in its read-out.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    InvalidErrorRateError,
    NonPowerOfTwoError,
    TooLargeError,
    ZeroResidueError,
)

DEFAULT_VERIFY_LIMIT = 2**20

# int64 batch paths are exact as long as intermediate products stay below 2^63.
_INT64_SAFE = 2**62

# Products k_i b per cosine-kernel call in a goodness check.
_CHUNK_ENTRIES = 1 << 17

# The seeds sample_good tries before it gives up.
SAMPLE_ATTEMPTS = 64

# The most parameters sample draws, one Python call each, and so the largest
# t of a program built from a sampled set; compiler.check_budget then bounds
# the bytes such a program stores.
_SAMPLE_LIMIT = 1 << 16


def check_error_rate(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise InvalidErrorRateError(f"error rate must be in (0, 1), got {epsilon}")


def required_size_raw(epsilon: float, modulus: int) -> int:
    """ceil((2/eps) ln 2m), the random-set size the Azuma bound asks for;
    TooLargeError when it is past every float, as for a subnormal eps."""
    check_error_rate(epsilon)
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    size = (2.0 / epsilon) * math.log(2 * modulus)
    if not math.isfinite(size):
        raise TooLargeError(f"epsilon {epsilon} needs more parameters than a float holds")
    return math.ceil(size)


def required_size(epsilon: float, modulus: int) -> int:
    """Smallest power of two >= the raw Azuma size (the bound only improves)."""
    raw = required_size_raw(epsilon, modulus)
    return 1 << (raw - 1).bit_length()


@dataclass(frozen=True)
class GoodSet:
    """Parameters k_1..k_t in [0, m) with their target error rate.

    t must be a power of two (the branch register is log2 t qubits).  The
    sampler guarantees t >= required_size(eps, m); hand-built sets for
    analysis may be smaller.
    """

    modulus: int
    error_rate: float
    parameters: tuple[int, ...]

    def __post_init__(self) -> None:
        check_error_rate(self.error_rate)
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        t = len(self.parameters)
        if t < 1 or t & (t - 1):
            raise NonPowerOfTwoError(f"parameter count must be a power of two, got {t}")
        if min(self.parameters) < 0 or max(self.parameters) >= self.modulus:
            raise ValueError("parameters must lie in [0, modulus)")

    @property
    def size(self) -> int:
        return len(self.parameters)


def _reduced_products(values, good_set: GoodSet) -> np.ndarray:
    """k_i * v mod m for every residue v and parameter k_i, shape (rows, t),
    exact: int64 while the products cannot overflow, Python integers in an
    object array past that.  A power-of-two m reduces by the mask m - 1,
    which gives the integers % does (negative ones included) at a fraction
    of its cost on big Python integers."""
    m = good_set.modulus
    dtype = np.int64 if (m - 1) * (m - 1) < _INT64_SAFE else object
    params = np.array(good_set.parameters, dtype=dtype)
    products = np.asarray(values, dtype=dtype)[:, None] * params[None, :]
    if m & (m - 1) == 0:
        return products & (m - 1)
    return products % m


def _residue_products(values, good_set: GoodSet) -> np.ndarray:
    """(k_i * v mod m) / m for every residue v and parameter k_i, shape (rows, t):
    the exact products, then one rounding."""
    products = _reduced_products(values, good_set)
    return np.asarray(products / good_set.modulus, dtype=np.float64)


@functools.lru_cache(maxsize=2)
def _cosine_table(modulus: int, scale: float) -> np.ndarray:
    """cos(scale * (j / m)) for every j in [0, m), read-only: the direct
    path's expression on every product k_i v mod m can take.  At most two
    are held, enough for one goodness scale and one closed-form scale."""
    table = np.cos(scale * (np.arange(modulus) / modulus))
    table.flags.writeable = False
    return table


def _cosines(values, good_set: GoodSet, scale: float) -> np.ndarray:
    """cos(scale * (k_i v mod m) / m) for every residue v in values and
    parameter k_i, shape (rows, t).

    For m <= DEFAULT_VERIFY_LIMIT the cosines are gathered from _cosine_table
    at the int64 products; past it each pair takes np.cos, which also keeps
    object dtype past _INT64_SAFE.  Both paths round the same integer
    k_i v mod m the same way and apply the same cosine to it, so they give
    the same floats.
    """
    m = good_set.modulus
    products = _reduced_products(values, good_set)
    if m <= DEFAULT_VERIFY_LIMIT:
        return _cosine_table(m, scale)[products]
    return np.cos(scale * np.asarray(products / m, dtype=np.float64))


def _cosine_kernel(values, good_set: GoodSet) -> np.ndarray:
    """(mean_i cos(2 pi (k_i v mod m) / m))^2 for every residue v in values,
    the cosines from _cosines."""
    return np.mean(_cosines(values, good_set, 2.0 * math.pi), axis=1) ** 2


def _nonzero_residues(good_set: GoodSet, b) -> np.ndarray:
    """b mod m, a scalar b as a one-entry array, reduced in int64 (so a
    narrow integer dtype cannot overflow) or, once m reaches _INT64_SAFE or
    b does not fit int64, in Python integers (an object array);
    ZeroResidueError when any of them is 0."""
    m = good_set.modulus
    values = np.asarray(b).reshape(-1)
    if values.dtype.kind not in "biu":  # Python integers no integer dtype holds
        values = np.asarray(b, dtype=object).reshape(-1)
    exact = m < _INT64_SAFE and np.can_cast(values.dtype, np.int64)
    residues = values.astype(np.int64 if exact else object) % m
    if (residues == 0).any():
        raise ZeroResidueError("goodness is undefined for b == 0 (mod m)")
    return residues


def is_good_for(good_set: GoodSet, b) -> bool:
    """Whether the set is good for residue b, or for every residue in an
    array b: one kernel call either way."""
    cosines = _cosine_kernel(_nonzero_residues(good_set, b), good_set)
    return bool(np.all(cosines < good_set.error_rate))


def _slices(count: int, good_set: GoodSet) -> Iterator[slice]:
    """Consecutive slices of [0, count), each of at most _CHUNK_ENTRIES
    residue-parameter entries (and at least one residue): how the goodness
    check and both closed forms bound their (residues, t) kernels."""
    step = max(1, _CHUNK_ENTRIES // good_set.size)
    return (slice(start, start + step) for start in range(0, count, step))


def is_good_for_all(good_set: GoodSet, residues: Sequence[int]) -> bool:
    """True when the set is good for every residue in the sequence (a list,
    a range or an array), checked by is_good_for one _slices slice at a
    time up to the first failing slice."""
    return all(
        is_good_for(good_set, residues[part]) for part in _slices(len(residues), good_set)
    )


def _exhaustive_residues(modulus: int, limit: int) -> np.ndarray:
    """[1, m-1] as int64: by the cosine's period m in b, every b != 0 mod m.
    Guarded by a caller-supplied tractability limit."""
    if modulus > limit:
        raise TooLargeError(f"a {modulus.bit_length()}-bit modulus exceeds the exhaustive limit {limit}")
    return np.arange(1, modulus, dtype=np.int64)


def verify_exhaustive(good_set: GoodSet, limit: int = DEFAULT_VERIFY_LIMIT) -> bool:
    """Check goodness for every b in [1, m-1], for m up to limit."""
    return is_good_for_all(good_set, _exhaustive_residues(good_set.modulus, limit))


def sample(epsilon: float, modulus: int, seed: int) -> GoodSet:
    """Draw t = required_size(eps, m) parameters uniformly from [0, m).

    Deterministic in the seed.  The result is NOT verified; pair with
    verify_exhaustive (small m) or goodness checks on realized residues.
    Raises TooLargeError, before drawing, when t exceeds _SAMPLE_LIMIT.
    """
    t = required_size(epsilon, modulus)
    if t > _SAMPLE_LIMIT:
        raise TooLargeError(
            f"epsilon {epsilon} over a {modulus.bit_length()}-bit modulus needs "
            f"t = {t} parameters, over the sampling budget of {_SAMPLE_LIMIT}"
        )
    rng = random.Random(seed)
    parameters = tuple(rng.randrange(modulus) for _ in range(t))
    return GoodSet(modulus=modulus, error_rate=epsilon, parameters=parameters)


def sample_good(
    epsilon: float,
    modulus: int,
    seed: int,
    residues: Sequence[int] | None = None,
) -> tuple[GoodSet, int]:
    """Sample sets at seed, seed+1, ... until one passes the goodness check.

    With residues given (a list, a range or an array), goodness is checked
    on exactly those values; otherwise on [1, m-1], which requires m <=
    DEFAULT_VERIFY_LIMIT.  Returns the set and the seed that produced it.
    Raises RuntimeError if SAMPLE_ATTEMPTS seeds all fail, which the Azuma
    bound makes overwhelmingly unlikely at the sampled size.
    """
    if residues is None:
        residues = _exhaustive_residues(modulus, DEFAULT_VERIFY_LIMIT)
    for attempt in range(SAMPLE_ATTEMPTS):
        candidate = sample(epsilon, modulus, seed + attempt)
        if is_good_for_all(candidate, residues):
            return candidate, seed + attempt
    raise RuntimeError(
        f"no good set found in {SAMPLE_ATTEMPTS} attempts from seed {seed} "
        f"(epsilon={epsilon}, a {modulus.bit_length()}-bit modulus)"
    )
