"""Rotation-parameter sets for fingerprinting and their goodness checks.

A parameter set K = {k_1, ..., k_t} over Z_m is good for a residue b != 0 when
S(b)^2 stays below the error rate, where S(b) = (1/t) sum_i cos(2 pi k_i b / m)
is the exponential sum Ambainis and Nahimovs bound; at b = g(sigma) S(b)^2 is
the single-polynomial program's acceptance.  S has two computations:

- The cosine kernel takes S at an array of residues, one cosine per
  residue-parameter pair.  The products k_i b mod m take only m values, so
  over m <= DEFAULT_VERIFY_LIMIT it gathers cos(2 pi j / m) from a cached
  table built by the same expression: the same floats for m cosines instead
  of one per pair.  Goodness on given residues and the single closed form
  run it.
- The spectrum takes S at every residue at once, for m <= DEFAULT_VERIFY_LIMIT:
  S(b) is the real part of the DFT of the parameter histogram at b, divided
  by t, so one rfft gives it for every b in [0, m/2], and S(m - b) = S(b).
  Goodness on every residue and the generalized closed form read it.  The
  FFT's error grows like log2(m) roundings of the largest histogram entry
  over t: its values are within 1e-15 of the kernel's for eight or more
  parameters over every m <= 2^12, and within 2.2e-15 for one.  So an
  exhaustive check re-checks with the kernel every residue whose spectrum
  value lies within _SCREEN_MARGIN = 1e-9 of the error rate, five orders of
  magnitude past that error: its verdicts, and the sets sample_good
  chooses, are the kernel's.

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

# An exhaustive check re-checks with the cosine kernel every residue whose
# spectrum value lies within this of the error rate (see the module docstring).
_SCREEN_MARGIN = 1e-9

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
def _cosine_table(modulus: int) -> np.ndarray:
    """cos(2 pi (j / m)) for every j in [0, m), read-only: the direct path's
    expression on every product k_i v mod m can take.  At most two moduli's
    tables are held."""
    table = np.cos(2.0 * math.pi * (np.arange(modulus) / modulus))
    table.flags.writeable = False
    return table


def _cosines(values, good_set: GoodSet) -> np.ndarray:
    """cos(2 pi (k_i v mod m) / m) for every residue v in values and
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
        return _cosine_table(m)[products]
    return np.cos(2.0 * math.pi * np.asarray(products / m, dtype=np.float64))


def _kernel_sums(values, good_set: GoodSet) -> np.ndarray:
    """S(v) = mean_i cos(2 pi (k_i v mod m) / m) for every residue v in
    values, the cosines from _cosines."""
    return np.mean(_cosines(values, good_set), axis=1)


def _cosine_kernel(values, good_set: GoodSet) -> np.ndarray:
    """S(v)^2 for every residue v in values: the goodness value and the
    single closed form."""
    return _kernel_sums(values, good_set) ** 2


@functools.lru_cache(maxsize=1)
def _spectrum(modulus: int, parameters: tuple[int, ...]) -> np.ndarray:
    histogram = np.bincount(np.asarray(parameters, dtype=np.int64), minlength=modulus)
    sums = np.fft.rfft(histogram).real / len(parameters)
    sums.flags.writeable = False
    return sums


def spectrum(good_set: GoodSet) -> np.ndarray:
    """S(b) = (1/t) sum_i cos(2 pi k_i b / m) for every b in [0, m/2], read-only:
    the real part of the rfft of the parameter histogram over Z_m, divided
    by t, cached for the last set.  S is even, so S(b) = spectrum[min(b, m - b)]
    for b in [0, m).  TooLargeError past DEFAULT_VERIFY_LIMIT."""
    if good_set.modulus > DEFAULT_VERIFY_LIMIT:
        raise TooLargeError(
            f"a {good_set.modulus.bit_length()}-bit modulus exceeds the spectrum's "
            f"limit {DEFAULT_VERIFY_LIMIT}"
        )
    return _spectrum(good_set.modulus, good_set.parameters)


def _cosine_sums(residues: np.ndarray, good_set: GoodSet) -> np.ndarray:
    """S(v) for every residue v in [0, m) of an int64 or object array: one
    spectrum gather for m <= DEFAULT_VERIFY_LIMIT; past it the cosine kernel
    on the distinct residues, one _slices slice at a time."""
    m = good_set.modulus
    if m <= DEFAULT_VERIFY_LIMIT:
        return spectrum(good_set)[np.minimum(residues, m - residues)]
    distinct, index = np.unique(residues, return_inverse=True)
    sums = np.empty(distinct.size)
    for part in _slices(distinct.size, good_set):
        sums[part] = _kernel_sums(distinct[part], good_set)
    return sums[index]


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


def _check_exhaustive(modulus: int, limit: int) -> None:
    """TooLargeError when m is past a caller-supplied tractability limit."""
    if modulus > limit:
        raise TooLargeError(f"a {modulus.bit_length()}-bit modulus exceeds the exhaustive limit {limit}")


def _good_everywhere(good_set: GoodSet) -> bool:
    """Goodness on every b in [1, m-1], for m <= DEFAULT_VERIFY_LIMIT, screened
    from the spectrum (b and m - b share S(b)).  A value at least
    _SCREEN_MARGIN past the error rate fails the set; the residues b and
    m - b of every value within the margin of it are re-checked by
    is_good_for_all, so the verdict is the cosine kernel's."""
    values = spectrum(good_set)[1:] ** 2
    if np.any(values >= good_set.error_rate + _SCREEN_MARGIN):
        return False
    near = np.flatnonzero(values > good_set.error_rate - _SCREEN_MARGIN) + 1
    return is_good_for_all(good_set, np.union1d(near, good_set.modulus - near))


def verify_exhaustive(good_set: GoodSet, limit: int = DEFAULT_VERIFY_LIMIT) -> bool:
    """Check goodness for every b in [1, m-1], for m up to limit: from the
    spectrum up to DEFAULT_VERIFY_LIMIT, by the cosine kernel past it."""
    m = good_set.modulus
    _check_exhaustive(m, limit)
    if m <= DEFAULT_VERIFY_LIMIT:
        return _good_everywhere(good_set)
    return is_good_for_all(good_set, np.arange(1, m, dtype=np.int64))


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
    on exactly those values by the cosine kernel; otherwise on [1, m-1] from
    the spectrum, which requires m <= DEFAULT_VERIFY_LIMIT.  Returns the set
    and the seed that produced it.
    Raises RuntimeError if SAMPLE_ATTEMPTS seeds all fail, which the Azuma
    bound makes overwhelmingly unlikely at the sampled size.
    """
    if residues is None:
        _check_exhaustive(modulus, DEFAULT_VERIFY_LIMIT)
        good = _good_everywhere
    else:
        good = lambda candidate: is_good_for_all(candidate, residues)
    for attempt in range(SAMPLE_ATTEMPTS):
        candidate = sample(epsilon, modulus, seed + attempt)
        if good(candidate):
            return candidate, seed + attempt
    raise RuntimeError(
        f"no good set found in {SAMPLE_ATTEMPTS} attempts from seed {seed} "
        f"(epsilon={epsilon}, a {modulus.bit_length()}-bit modulus)"
    )
