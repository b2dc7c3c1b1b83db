"""Goodness criterion, required sizes, and the random sampler."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd.errors import (
    InvalidErrorRateError,
    NonPowerOfTwoError,
    TooLargeError,
    ZeroResidueError,
)
from qobdd import goodsets
from qobdd.goodsets import (
    _INT64_SAFE,
    DEFAULT_VERIFY_LIMIT,
    GoodSet,
    _cosine_kernel,
    _cosine_sums,
    _cosine_table,
    _cosines,
    _nonzero_residues,
    _reduced_products,
    _residue_products,
    _spectrum,
    is_good_for,
    is_good_for_all,
    required_size,
    required_size_raw,
    sample,
    sample_good,
    spectrum,
    verify_exhaustive,
)
from reference import azuma_failure_bound, cosine_sum

# The formula in Python floats against the numpy kernel: the same cosines,
# summed in another order.
FORMULA_TOL = 1e-12


def test_required_size_examples():
    assert required_size_raw(0.5, 1024) == 31
    assert required_size(0.5, 1024) == 32
    assert required_size_raw(0.25, 64) == 39
    assert required_size(0.25, 64) == 64
    assert required_size_raw(0.9, 2) == 4
    assert required_size(0.9, 2) == 4


def test_required_size_rejects_bad_error_rate():
    for epsilon in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidErrorRateError):
            required_size(epsilon, 64)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=2, max_value=10**6),
)
def test_required_size_monotone(eps_a, eps_b, m_a, m_b):
    lo_eps, hi_eps = sorted((eps_a, eps_b))
    lo_m, hi_m = sorted((m_a, m_b))
    assert required_size(hi_eps, lo_m) <= required_size(lo_eps, lo_m)
    assert required_size(lo_eps, lo_m) <= required_size(lo_eps, hi_m)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=2, max_value=10**6),
)
def test_azuma_bound_at_raw_size_covers_one_residue(epsilon, m):
    assert azuma_failure_bound(epsilon, required_size_raw(epsilon, m)) <= 1.0 / m


def test_azuma_examples():
    assert azuma_failure_bound(0.5, 31) <= 1.0 / 1024
    assert azuma_failure_bound(0.25, 39) <= 1.0 / 64
    bounds = [azuma_failure_bound(0.5, t) for t in (8, 16, 32, 64)]
    assert bounds == sorted(bounds, reverse=True)


def test_cosine_sum_examples():
    pair = GoodSet(modulus=3, error_rate=0.3, parameters=(1, 2))
    assert cosine_sum(pair, 1) == pytest.approx(0.25, abs=1e-12)
    assert cosine_sum(pair, 2) == pytest.approx(0.25, abs=1e-12)
    zeros = GoodSet(modulus=5, error_rate=0.5, parameters=(0, 0, 0, 0))
    assert cosine_sum(zeros, 3) == pytest.approx(1.0, abs=1e-12)


def test_cosine_sum_rejects_zero_residue():
    pair = GoodSet(modulus=3, error_rate=0.3, parameters=(1, 2))
    with pytest.raises(ZeroResidueError):
        cosine_sum(pair, 0)
    with pytest.raises(ZeroResidueError):
        cosine_sum(pair, 6)


def test_is_good_for_threshold():
    assert is_good_for(GoodSet(modulus=3, error_rate=0.3, parameters=(1, 2)), 1)
    assert not is_good_for(GoodSet(modulus=3, error_rate=0.2, parameters=(1, 2)), 1)
    zeros = GoodSet(modulus=5, error_rate=0.99, parameters=(0, 0))
    assert not is_good_for(zeros, 2)


def test_verify_exhaustive_small_modulus():
    assert verify_exhaustive(GoodSet(modulus=3, error_rate=0.3, parameters=(1, 2)))


def test_verify_exhaustive_guard():
    big = GoodSet(modulus=2**20, error_rate=0.5, parameters=(1,))
    with pytest.raises(TooLargeError):
        verify_exhaustive(big, limit=2**16)
    # A modulus past the digit limit of int-to-str conversion is named by
    # its bit length, so the refusal is not a conversion error.
    huge = GoodSet(modulus=2**15000, error_rate=0.5, parameters=(1,))
    with pytest.raises(TooLargeError, match="15001-bit modulus"):
        verify_exhaustive(huge)
    with pytest.raises(TooLargeError, match="15001-bit modulus"):
        sample_good(0.5, 2**15000, seed=0)


def test_good_set_requires_power_of_two():
    with pytest.raises(NonPowerOfTwoError):
        GoodSet(modulus=7, error_rate=0.5, parameters=(1, 2, 3))


def test_good_set_parameter_range():
    with pytest.raises(ValueError):
        GoodSet(modulus=7, error_rate=0.5, parameters=(7, 0))


def test_sample_deterministic_and_in_range():
    first = sample(0.25, 64, seed=9)
    second = sample(0.25, 64, seed=9)
    assert first == second
    assert first.size == 64
    assert all(0 <= k < 64 for k in first.parameters)
    assert sample(0.25, 64, seed=10) != first


def test_some_seed_yields_exhaustively_good_set():
    assert any(
        verify_exhaustive(sample(0.25, 64, seed=s)) for s in range(10)
    )


def test_sample_refuses_oversized_sets_before_drawing():
    # epsilon 1e-9 over Z_3 asks for t = 2^32 parameters.
    with mock.patch.object(goodsets.random, "Random", side_effect=AssertionError):
        with pytest.raises(TooLargeError, match="sampling budget"):
            sample(1e-9, 3, seed=0)
    # The limit itself is drawn; the next power of two is refused.
    assert required_size(1e-4, 3) == goodsets._SAMPLE_LIMIT == required_size(5e-5, 3) // 2
    assert sample(1e-4, 3, seed=0).size == goodsets._SAMPLE_LIMIT
    with pytest.raises(TooLargeError):
        sample(5e-5, 3, seed=0)
    with pytest.raises(TooLargeError, match="sampling budget"):
        sample(0.2, 2**15000, 0)


def test_sampler_success_fraction_meets_azuma_bound():
    epsilon, m = 0.25, 64
    raw = required_size_raw(epsilon, m)
    floor = 1.0 - (m - 1) * azuma_failure_bound(epsilon, raw)
    successes = sum(
        verify_exhaustive(sample(epsilon, m, seed=s)) for s in range(20)
    )
    assert successes / 20 >= floor


def test_sample_good_exhaustive_and_realized():
    good, used = sample_good(0.2, 3, seed=0)
    assert verify_exhaustive(good)
    assert used >= 0
    spot, _ = sample_good(0.2, 16, seed=0, residues=[1, 5, 9])
    assert all(is_good_for(spot, b) for b in (1, 5, 9))


def test_sample_good_raises_when_attempts_exhausted(monkeypatch):
    monkeypatch.setattr(goodsets, "SAMPLE_ATTEMPTS", 0)
    with pytest.raises(RuntimeError, match="in 0 attempts"):
        sample_good(0.25, 64, seed=0, residues=[1])
    with pytest.raises(RuntimeError, match="5000-bit modulus"):
        sample_good(0.9, 2**4999, seed=0, residues=[1])


@pytest.mark.parametrize("modulus", [97, _INT64_SAFE + 5], ids=["int64", "object"])
def test_sample_good_takes_any_residue_sequence(modulus):
    # A list, a range and an int64 or object array of the same residues give
    # the per-residue reference's set and seed.
    residues = range(1, modulus, modulus // 32 + 1)
    forms = [
        list(residues),
        residues,
        np.array(residues, dtype=np.int64),
        np.array(list(residues), dtype=object),
    ]
    for seed in (0, 1):
        expected = per_residue_sample_good(0.25, modulus, seed, list(residues))
        for form in forms:
            assert sample_good(0.25, modulus, seed, residues=form) == expected


def test_exhaustive_verification_partitions_conjunctively():
    good = sample(0.25, 64, seed=3)
    whole = verify_exhaustive(good)
    for step in (1, 7, 16):
        parts = [
            all(is_good_for(good, b) for b in range(start, min(start + step, 64)))
            for start in range(1, 64, step)
        ]
        assert all(parts) == whole


@given(st.data())
@settings(max_examples=60)
def test_cosine_sum_bounded_and_periodic(data):
    m = data.draw(st.integers(min_value=2, max_value=512))
    t = data.draw(st.sampled_from([1, 2, 4, 8]))
    params = tuple(
        data.draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(t)
    )
    good = GoodSet(modulus=m, error_rate=0.5, parameters=params)
    b = data.draw(st.integers(min_value=1, max_value=m - 1))
    value = cosine_sum(good, b)
    assert 0.0 <= value <= 1.0 + 1e-12
    shift = data.draw(st.integers(min_value=1, max_value=5))
    assert cosine_sum(good, b + shift * m) == value


# The goodness check runs the cosine kernel once per chunk of residues.  The
# chunked values must be the per-residue values bit for bit, so verdicts and
# the sets sample_good picks do not move.


def direct_cosines(values, good):
    """The cosines by the direct path: one np.cos per pair, no table."""
    return np.cos(2.0 * math.pi * _residue_products(values, good))


def direct_kernel(values, good):
    return np.mean(direct_cosines(values, good), axis=1) ** 2


def direct_cosine_sum(good, b):
    return float(direct_kernel(np.array([b % good.modulus]), good)[0])


def per_residue_sample_good(epsilon, modulus, seed, residues=None):
    """sample_good as one direct cosine sum per residue, stopping at the
    first bad one."""
    for attempt in range(64):
        candidate = sample(epsilon, modulus, seed + attempt)
        checked = range(1, modulus) if residues is None else residues
        if all(direct_cosine_sum(candidate, b) < epsilon for b in checked):
            return candidate, seed + attempt
    raise AssertionError("no good set")


@pytest.mark.parametrize("modulus", [2, 3, 16, 97, 1024])
def test_chunk_kernel_equals_per_residue_values(modulus):
    good = sample(0.25, modulus, seed=modulus)
    residues = np.arange(1, modulus)
    chunked = _cosine_kernel(residues, good)
    assert np.array_equal(chunked, [_cosine_kernel([b], good)[0] for b in residues])
    np.testing.assert_allclose(
        chunked, [cosine_sum(good, int(b)) for b in residues], rtol=0, atol=FORMULA_TOL
    )
    assert is_good_for(good, residues) == all(is_good_for(good, int(b)) for b in residues)


def test_chunk_kernel_equals_per_residue_values_on_the_object_path():
    modulus = _INT64_SAFE + 5
    good = sample(0.25, modulus, seed=3)
    residues = [1, 2, 3, modulus // 2, modulus - 2, modulus - 1] + [
        (7**j) % modulus for j in range(40, 240)
    ]
    chunked = _cosine_kernel(np.array(residues, dtype=object), good)
    one_by_one = [_cosine_kernel(np.array([b], dtype=object), good)[0] for b in residues]
    assert np.array_equal(chunked, one_by_one)
    np.testing.assert_allclose(
        chunked, [cosine_sum(good, b) for b in residues], rtol=0, atol=FORMULA_TOL
    )
    assert is_good_for(good, residues) == all(is_good_for(good, b) for b in residues)
    # Residues are reduced mod m first, as cosine_sum reduces them.
    shifted = [b + 3 * modulus for b in residues]
    assert is_good_for(good, shifted) == is_good_for(good, residues)


@pytest.mark.parametrize("modulus", [1000, _INT64_SAFE + 5], ids=["int64", "object"])
@pytest.mark.parametrize(
    "values",
    [
        np.array([1, 2, 200, 255], dtype=np.uint8),
        np.array([-3, 1999, 30001], dtype=np.int16),
        np.array([5, 2**63 + 7, 2**64 - 1], dtype=np.uint64),
        np.array([True]),
    ],
    ids=["uint8", "int16", "uint64", "bool"],
)
def test_narrow_and_unsigned_residue_dtypes_match_python_integers(modulus, values):
    good = sample(0.3, modulus, seed=1)
    as_ints = [int(v) for v in values.tolist()]
    assert is_good_for(good, values) == is_good_for(good, as_ints)
    for value, as_int in zip(values, as_ints):
        kernel = _cosine_kernel(_nonzero_residues(good, value), good)[0]
        assert kernel == _cosine_kernel(_nonzero_residues(good, as_int), good)[0]
        assert kernel == pytest.approx(cosine_sum(good, as_int), abs=FORMULA_TOL)
        assert is_good_for(good, value) == is_good_for(good, as_int)


@pytest.mark.parametrize("modulus", [2**61 - 1, 2**89 - 1], ids=["int64", "object"])
@pytest.mark.parametrize(
    "residues",
    [
        range(1, 1000),
        range(5, 2**40, 2**31 + 1),
        range(2**63 - 3, 2**63 + 4),
        range(-(2**63) - 2, -(2**63) + 3),
    ],
    ids=["small", "wide-step", "past-int64-top", "past-int64-bottom"],
)
def test_range_slices_convert_like_their_python_integers(modulus, residues):
    good = sample(0.5, modulus, seed=1)
    as_list = _nonzero_residues(good, list(residues))
    converted = _nonzero_residues(good, residues)
    assert converted.dtype == as_list.dtype
    assert converted.tolist() == as_list.tolist()
    assert is_good_for_all(good, residues) == all(is_good_for(good, b) for b in residues)


def test_array_goodness_rejects_a_zero_residue():
    good = GoodSet(modulus=16, error_rate=0.5, parameters=(1, 3))
    for residues in ([1, 16, 3], np.array([0, 5]), [2**70 * 16]):
        with pytest.raises(ZeroResidueError):
            is_good_for(good, residues)


@pytest.mark.parametrize("chunk_entries", [1, 64, goodsets._CHUNK_ENTRIES])
@pytest.mark.parametrize(
    "epsilon, modulus, seeds",
    [
        # These three start at a seed whose set fails verify_exhaustive.
        (0.5, 3, [143, 0]),
        (0.5, 16, [142, 5]),
        (0.25, 64, [78, 1]),
        (0.2, 5, [0, 9]),
        (0.3, 243, [2, 17]),
        # Tables past a SIMD register's width: 3^7 and 2^12 entries.
        (0.25, 2187, [4]),
        (0.3, 4096, [11]),
    ],
)
def test_sample_good_picks_the_per_residue_set_and_seed(chunk_entries, epsilon, modulus, seeds):
    with mock.patch.object(goodsets, "_CHUNK_ENTRIES", chunk_entries):
        for seed in seeds:
            assert sample_good(epsilon, modulus, seed) == per_residue_sample_good(
                epsilon, modulus, seed
            )
            residues = list(range(1, modulus, 3))
            assert sample_good(epsilon, modulus, seed, residues=residues) == (
                per_residue_sample_good(epsilon, modulus, seed, residues)
            )


def test_exhaustive_check_exits_on_the_first_failing_chunk():
    # Every cosine is 1: the set fails on residue 1, in the first of 128
    # chunks of the kernel, and from the spectrum without any.
    bad = GoodSet(modulus=4096, error_rate=0.5, parameters=(0, 0))
    with mock.patch.object(goodsets, "_CHUNK_ENTRIES", 64), mock.patch.object(
        goodsets, "_cosine_kernel", wraps=goodsets._cosine_kernel
    ) as kernel:
        assert not is_good_for_all(bad, range(1, 4096))
        assert kernel.call_count == 1
        kernel.reset_mock()
        assert not verify_exhaustive(bad)
        assert kernel.call_count == 0
        good = sample(0.25, 64, seed=3)
        assert is_good_for_all(good, range(1, 64)) == verify_exhaustive(good)
        assert kernel.call_count == math.ceil(63 / (64 // good.size))


# The cosine table: every cosine over m <= DEFAULT_VERIFY_LIMIT is gathered
# from a cached table of cos(2 pi j / m) instead of calling np.cos per pair.
# The gathered cosines must be the direct ones bit for bit, so every value,
# verdict and sampled set stays where it was.

TABLE_MODULI = (
    [2, 3, 5, 7, 11, 13, 97, 101]
    + [2**k for k in (2, 5, 8, 16)]
    + [3**k for k in (2, 5, 9)]
    + [390_625, 2**20]
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_gathered_cosines_equal_the_direct_cosines(data):
    m = data.draw(st.sampled_from(TABLE_MODULI), label="m")
    t = data.draw(st.sampled_from([1, 2, 4, 8, 16]), label="t")
    parameter = st.one_of(st.just(0), st.integers(min_value=0, max_value=m - 1))
    params = tuple(data.draw(st.lists(parameter, min_size=t, max_size=t), label="params"))
    good = GoodSet(modulus=m, error_rate=0.5, parameters=params)
    # Row counts around SIMD widths; residues up to 5m and 0, as closed forms pass.
    rows = data.draw(st.integers(min_value=1, max_value=37), label="rows")
    values = np.array(
        data.draw(
            st.lists(st.integers(min_value=0, max_value=5 * m), min_size=rows, max_size=rows),
            label="values",
        ),
        dtype=np.int64,
    )
    expected = direct_cosines(values, good)
    _cosine_table.cache_clear()
    cold = _cosines(values, good)
    warm = _cosines(values, good)
    assert _cosine_table.cache_info()[:2] == (1, 1)  # (hits, misses)
    for gathered in (cold, warm):
        assert gathered.shape == expected.shape
        assert np.array_equal(gathered, expected)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_power_of_two_moduli_reduce_to_the_integers_of_the_remainder(data):
    # Int64 products up to m = 2^31, Python integers past (m - 1)^2 >= 2^62.
    exponent = data.draw(st.sampled_from([1, 2, 7, 16, 30, 31, 32, 33, 40, 62, 63, 64, 100, 800]))
    m = 1 << exponent
    int64 = (m - 1) * (m - 1) < _INT64_SAFE
    t = data.draw(st.sampled_from([1, 2, 4, 8]), label="t")
    params = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=t, max_size=t)))
    good = GoodSet(modulus=m, error_rate=0.5, parameters=params)
    # Negative values and values past m; on the int64 path no product overflows.
    bound = _INT64_SAFE // m if int64 else m**3
    value = st.one_of(st.sampled_from([0, 1, -1, m - 1, -m, m, -bound, bound]), st.integers(-bound, bound))
    values = data.draw(st.lists(value, min_size=1, max_size=24), label="values")
    reduced = _reduced_products(values, good)
    assert reduced.dtype == (np.int64 if int64 else object)
    assert reduced.tolist() == [[v * k % m for k in params] for v in values]


def test_tables_are_read_only_and_at_most_two_are_held():
    _cosine_table.cache_clear()
    for m in (16, 27, 125):
        table = _cosine_table(m)
        assert not table.flags.writeable
        assert np.array_equal(table, np.cos(2.0 * math.pi * (np.arange(m) / m)))
    assert _cosine_table.cache_info().currsize == 2


def test_the_modulus_alone_decides_the_table():
    # PERM_4's modulus: a 1-residue check builds its table, and every later
    # check at that m, whatever its size, gathers from it.
    good = sample(0.2, 390_625, seed=7)
    _cosine_table.cache_clear()
    assert is_good_for(good, 5) == (direct_cosine_sum(good, 5) < 0.2)
    assert _cosine_table.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert _cosine_kernel([5], good)[0] == direct_cosine_sum(good, 5)
    assert cosine_sum(good, 5) == pytest.approx(direct_cosine_sum(good, 5), abs=FORMULA_TOL)
    assert is_good_for_all(good, range(1, 2049)) == all(
        direct_cosine_sum(good, b) < 0.2 for b in range(1, 2049)
    )
    assert _cosine_table.cache_info().misses == 1
    # Past DEFAULT_VERIFY_LIMIT, and on the object path past _INT64_SAFE,
    # no check builds a table, however many residues it holds.
    _cosine_table.cache_clear()
    past = sample(0.5, DEFAULT_VERIFY_LIMIT + 1, seed=1)
    assert is_good_for(past, 5) == (direct_cosine_sum(past, 5) < 0.5)
    residues = np.arange(1, DEFAULT_VERIFY_LIMIT // past.size + 2)
    assert is_good_for_all(past, residues) == bool(np.all(direct_kernel(residues, past) < 0.5))
    big = GoodSet(modulus=_INT64_SAFE + 5, error_rate=0.9, parameters=(3, 2**61, 7, 2**62))
    assert _cosine_kernel([5], big)[0] == direct_cosine_sum(big, 5)
    assert cosine_sum(big, 5) == pytest.approx(direct_cosine_sum(big, 5), abs=FORMULA_TOL)
    assert _cosine_table.cache_info().misses == 0


def test_exhaustive_verdicts_equal_the_direct_values_for_every_small_modulus():
    # Four seeded parameters, every check gathering from its modulus's table,
    # and error rates at which both verdicts occur.
    epsilons = (0.5, 0.8, 0.95)
    verdicts = {epsilon: set() for epsilon in epsilons}
    for m in range(2, 2**12 + 1):
        params = tuple(np.random.default_rng(m).integers(0, m, 4).tolist())
        direct = direct_kernel(np.arange(1, m), GoodSet(m, 0.5, params))
        for epsilon in epsilons:
            verdict = verify_exhaustive(GoodSet(m, epsilon, params))
            assert verdict == bool(np.all(direct < epsilon)), (m, epsilon)
            verdicts[epsilon].add(verdict)
    assert all(seen == {True, False} for seen in verdicts.values())


# The spectrum: S(b) = (1/t) sum_i cos(2 pi k_i b / m) for every residue from
# one rfft of the parameter histogram.  Exhaustive checks screen with it and
# the generalized closed form reads it; its values are within 1e-15 of the
# kernel's, and every verdict near the error rate is the kernel's.

SPECTRUM_TOL = 1e-15


def test_spectrum_equals_the_kernel_means_for_every_small_modulus():
    # Eight parameters: the FFT's error grows like log2(m) roundings of the
    # largest histogram entry over t, and with a single parameter it reached
    # 2.2e-15 over these moduli, still six orders under _SCREEN_MARGIN.
    for m in range(2, 2**12 + 1):
        params = tuple(np.random.default_rng(m).integers(0, m, 8).tolist())
        good = GoodSet(m, 0.5, params)
        residues = np.arange(m)
        sums = spectrum(good)
        assert sums.shape == (m // 2 + 1,)
        kernel = np.mean(_cosines(residues, good), axis=1)
        np.testing.assert_allclose(_cosine_sums(residues, good), kernel, rtol=0, atol=SPECTRUM_TOL)
        assert np.array_equal(_cosine_sums(residues, good), sums[np.minimum(residues, m - residues)])


def test_spectrum_is_cached_for_the_last_set_and_read_only():
    good = sample(0.2, 390_625, seed=7)
    _spectrum.cache_clear()
    sums = spectrum(good)
    assert spectrum(good) is sums
    assert not sums.flags.writeable
    other = sample(0.2, 390_625, seed=8)
    spectrum(other)
    assert _spectrum.cache_info()[1:] == (2, 1, 1)  # misses, maxsize, currsize
    with pytest.raises(TooLargeError):
        spectrum(sample(0.5, DEFAULT_VERIFY_LIMIT + 1, seed=1))


# The spectrum reads the worst residue of the first set 1.7e-16 under the
# kernel, and of the second 1.1e-16 over it: at eps equal to the kernel's
# worst value the kernel fails a set, one ulp past it the kernel passes it.
UNDER = (45, 49, 73, 92, 3, 13, 79, 92)
OVER = (12, 12, 77, 48, 57, 58, 69, 2)


@pytest.mark.parametrize(
    "parameters, nudge, good",
    [
        (UNDER, lambda worst: worst, False),
        (OVER, lambda worst: np.nextafter(worst, 1.0), True),
        (UNDER, lambda worst: worst - 1e-13, False),
        (OVER, lambda worst: worst + 1e-13, True),
    ],
    ids=["at-under", "ulp-past-over", "under-by-1e-13", "past-by-1e-13"],
)
def test_residues_near_the_error_rate_get_the_kernels_verdict(parameters, nudge, good):
    worst = float(np.max(_cosine_kernel(np.arange(1, 97), GoodSet(97, 0.5, parameters))))
    epsilon = float(nudge(worst))
    assert bool(np.all(_cosine_kernel(np.arange(1, 97), GoodSet(97, 0.5, parameters)) < epsilon)) == good
    with mock.patch.object(goodsets, "_cosine_kernel", wraps=goodsets._cosine_kernel) as kernel:
        assert verify_exhaustive(GoodSet(97, epsilon, parameters)) == good
        # One kernel call, on the two residues of the worst value.
        assert kernel.call_count == 1
        assert sorted(kernel.call_args.args[0].tolist()) in ([b, 97 - b] for b in range(1, 49))
