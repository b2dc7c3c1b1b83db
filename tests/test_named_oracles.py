"""The named functions' batch oracles against the per-input references, the
exhaustive input blocks, and the per-input contract every other oracle
keeps."""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd import compiler, polynomials, verification
from qobdd.polynomials import Characteristic
from qobdd.verification import (
    NamedOracle,
    certify_general,
    certify_single,
    input_block,
    named_function,
)
from reference import (
    all_inputs,
    equality_oracle,
    palindrome_oracle,
    permutation_matrix_oracle,
    popcount_mod_oracle,
)


def shifted_block(arity, start, stop):
    """The enumeration by int64 shifts, as input_block built it before."""
    indices = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(arity - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


@pytest.mark.parametrize("arity", [1, 7, 8, 9, 16, 24])
def test_input_block_equals_the_shift_formula(arity):
    total = 1 << arity
    chunk = min(verification.DEFAULT_CHUNK, total)
    later = total - chunk if arity < 24 else 1000 * verification.DEFAULT_CHUNK
    for start in (0, later):
        block = input_block(arity, start, start + chunk)
        expected = shifted_block(arity, start, start + chunk)
        assert block.dtype == np.uint8 and block.shape == expected.shape
        assert block.flags.c_contiguous
        np.testing.assert_array_equal(block, expected)


def assert_batch_equals_row(oracle, row_oracle, bits):
    labels = oracle.batch(bits)
    assert labels.dtype == bool and labels.shape == (bits.shape[0],)
    assert labels.tolist() == [bool(row_oracle(row)) for row in bits.tolist()]


@given(st.integers(1, 10), st.sampled_from(["2", "3", "n", "n+1", "2^70", "10^23"]))
@settings(max_examples=60, deadline=None)
def test_popcount_mod_batch_equals_its_row_oracle(n, modulus):
    # Past int64 (2^70, and the 10^23 of the CLI check) a naive
    # popcount % m raises OverflowError.
    m = {"2": 2, "3": 3, "n": n, "n+1": n + 1, "2^70": 2**70, "10^23": 10**23}[modulus]
    if m < 2:
        return
    _, oracle, _ = named_function("mod", n, m)
    assert_batch_equals_row(oracle, popcount_mod_oracle(m), all_inputs(n))


@given(st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_equality_batch_equals_its_row_oracle(n):
    _, oracle, _ = named_function("eq", n)
    assert_batch_equals_row(oracle, equality_oracle(n), all_inputs(2 * n))


@given(st.integers(2, 11))
@settings(max_examples=20, deadline=None)
def test_palindrome_batch_equals_its_row_oracle(n):
    _, oracle, _ = named_function("palindrome", n)
    assert_batch_equals_row(oracle, palindrome_oracle, all_inputs(n))


@given(st.integers(1, 3))
@settings(max_examples=5, deadline=None)
def test_permutation_batch_equals_its_row_oracle(n):
    _, oracle, _ = named_function("perm", n)
    assert_batch_equals_row(oracle, permutation_matrix_oracle(n), all_inputs(n * n))


def test_batches_equal_row_oracles_on_wide_random_rows():
    rng = np.random.default_rng(11)
    _, equality, _ = named_function("eq", 40)
    halves = rng.integers(0, 2, size=(300, 40), dtype=np.uint8)
    equal = np.concatenate([halves, halves], axis=1)
    one_off = equal.copy()
    one_off[np.arange(300), rng.integers(0, 80, size=300)] ^= 1
    uniform = rng.integers(0, 2, size=(300, 80), dtype=np.uint8)
    rows = np.concatenate([uniform, equal, one_off])
    assert_batch_equals_row(equality, equality_oracle(40), rows)
    assert equality.batch(rows).sum() == 300

    _, permutation, _ = named_function("perm", 5)
    matrices = np.eye(5, dtype=np.uint8)[np.array([rng.permutation(5) for _ in range(300)])]
    flipped = matrices.reshape(300, 25).copy()
    flipped[np.arange(300), rng.integers(0, 25, size=300)] ^= 1
    uniform = rng.integers(0, 2, size=(300, 25), dtype=np.uint8)
    rows = np.concatenate([uniform, matrices.reshape(300, 25), flipped])
    assert_batch_equals_row(permutation, permutation_matrix_oracle(5), rows)
    assert permutation.batch(rows).sum() == 300


def test_batches_never_evaluate_a_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a batch oracle went through the polynomial or the compiler")

    monkeypatch.setattr(polynomials.LinearPolynomial, "evaluate", refuse)
    for module in (compiler, verification):
        monkeypatch.setattr(module, "evaluate_linear_batch", refuse)
    monkeypatch.setattr(verification, "compile_single", refuse)
    for function, n, m, arity in (("mod", 6, 3, 6), ("eq", 3, None, 6),
                                  ("palindrome", 7, None, 7), ("perm", 3, None, 9)):
        _, oracle, _ = named_function(function, n, m)
        assert oracle.batch(all_inputs(arity)).shape == (1 << arity,)


def failing_row(*args):
    raise AssertionError("a NamedOracle was called per input")


ROW_ORACLES = {
    "mod": lambda n, m: popcount_mod_oracle(m),
    "eq": lambda n, m: equality_oracle(n),
    "palindrome": lambda n, m: palindrome_oracle,
    "perm": lambda n, m: permutation_matrix_oracle(n),
}


@pytest.mark.parametrize(
    "function, n, m, options",
    [
        ("mod", 8, 3, {}),
        ("mod", 4, 10**23, {}),
        ("eq", 3, None, {}),
        ("palindrome", 7, None, {}),
        ("perm", 3, None, {}),
        ("perm", 4, None, {"mode": "sampled", "samples": 512, "goodness": "realized"}),
    ],
)
def test_named_oracle_reports_equal_the_row_oracle_reports(function, n, m, options, monkeypatch):
    polynomial, oracle, name = named_function(function, n, m)
    epsilon = 0.5 if m == 10**23 else 0.2
    row_oracle = ROW_ORACLES[function](n, m)
    per_row, _ = certify_single(polynomial, row_oracle, epsilon, 7, function=name, **options)
    monkeypatch.setattr(NamedOracle, "__call__", failing_row)
    batched, _ = certify_single(polynomial, oracle, epsilon, 7, function=name, **options)
    assert json.dumps(batched.to_json_dict()) == json.dumps(per_row.to_json_dict())
    assert batched.passed


def test_named_oracles_label_one_input_as_a_one_row_batch():
    for function, n, m, arity in (("mod", 6, 3, 6), ("eq", 3, None, 6),
                                  ("palindrome", 7, None, 7), ("perm", 3, None, 9)):
        _, oracle, _ = named_function(function, n, m)
        row_oracle = ROW_ORACLES[function](n, m)
        for row in all_inputs(arity).tolist():
            label = oracle(row)
            assert type(label) is int and label == row_oracle(row)


def test_certify_general_labels_with_the_batch_forms(monkeypatch):
    polynomial, oracle, name = named_function("mod", 6, 3)
    source = Characteristic(polynomial.modulus, polynomial.arity, (polynomial,))
    per_row, _ = certify_general(
        source, popcount_mod_oracle(3), 0.2, 0, function=name, promise=lambda bits: bits[0] == 1
    )
    monkeypatch.setattr(NamedOracle, "__call__", failing_row)
    batched, _ = certify_general(
        source, oracle, 0.2, 0, function=name, promise=NamedOracle(lambda bits: bits[:, 0] == 1)
    )
    assert batched == per_row
    assert batched.filtered == 32 and batched.passed


def wrap_as(kind, oracle, calls):
    """The oracle wrapped three ways; each call records its argument."""

    def recorded(inner, bits):
        calls.append(bits)
        return inner(bits)

    if kind == "lambda":
        return lambda bits: recorded(oracle, bits)
    if kind == "partial":
        return functools.partial(recorded, oracle)

    @functools.wraps(oracle)
    def wrapper(bits):
        return recorded(oracle, bits)

    # wraps copies the oracle's __dict__, batch included, so only the
    # isinstance test keeps this wrapper's labels its own.
    assert wrapper.batch is oracle.batch
    return wrapper


WRAPS = ["lambda", "wraps", "partial"]


@pytest.mark.parametrize("kind", WRAPS)
def test_wrapped_named_oracles_are_called_once_per_input(kind):
    polynomial, oracle, name = named_function("mod", 8, 3)
    calls = []
    report, _ = certify_single(polynomial, wrap_as(kind, oracle, calls), 0.2, 0, function=name)
    assert len(calls) == 256
    assert all(type(bits) is list for bits in calls)
    assert sorted(map(tuple, calls)) == sorted(map(tuple, all_inputs(8).tolist()))
    assert report.passed


@pytest.mark.parametrize("kind", WRAPS)
def test_a_wrapper_that_flips_a_label_fails_the_report(kind):
    polynomial, oracle, name = named_function("mod", 8, 3)
    # Called per input through the wrapper, it flips the all-zero input's label.
    flip_zero = NamedOracle(lambda bits: oracle.batch(bits) ^ ~bits.any(axis=1))
    wrapped = wrap_as(kind, flip_zero, [])
    honest, _ = certify_single(polynomial, oracle, 0.2, 0, function=name)
    report, _ = certify_single(polynomial, wrapped, 0.2, 0, function=name)
    assert (report.ones.count, report.zeros.count) == (honest.ones.count - 1, honest.zeros.count + 1)
    assert report.zeros.max_accept == pytest.approx(1.0)
    assert honest.passed and not report.passed
