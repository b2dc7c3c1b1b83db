"""Differential tests of the residue arithmetic on both sides of int64.

Residues are numpy integers while the arithmetic cannot overflow and Python
integers in object arrays past _INT64_SAFE.  The moduli here straddle both
switches: polynomial evaluation ((n+1)(m-1) < 2^62) and residue products
((m-1)^2 < 2^62).  Every reference is computed one row at a time in exact
Python integers, then math.cos, sharing no code with the batch kernels.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from qobdd.compiler import (
    closed_form_general_batch,
    closed_form_single_batch,
    compile_single,
    evaluate_linear_batch,
)
from qobdd.goodsets import GoodSet, _cosine_kernel, _nonzero_residues, is_good_for, sample
from qobdd.polynomials import (
    Characteristic,
    LinearPolynomial,
    eq_polynomial,
    perm_polynomial,
)
from qobdd.programs import accept_probability, sweep_accept_probabilities
from qobdd.verification import sampled_inputs
from reference import cosine_sum

MODULI = [2**31 - 1, 2**33, 3**40, 2**62 + 5, 2**127 - 1]
ARITY = 12
FORMULA_TOL = 1e-12
CLOSED_FORM_TOL = 1e-9


def random_polynomial(rng: random.Random, modulus: int) -> LinearPolynomial:
    coefficients = tuple(rng.randrange(modulus) for _ in range(ARITY + 1))
    return LinearPolynomial(modulus=modulus, arity=ARITY, coefficients=coefficients)


def random_good_set(rng: random.Random, modulus: int, t: int = 32) -> GoodSet:
    parameters = tuple(rng.randrange(modulus) for _ in range(t))
    return GoodSet(modulus=modulus, error_rate=0.3, parameters=parameters)


def random_bits(modulus: int) -> np.ndarray:
    return sampled_inputs(ARITY, 200, seed=modulus % 1000)


def exact_single(polynomial: LinearPolynomial, good_set: GoodSet, row) -> float:
    """(1/t^2) (sum_i cos(2 pi (k_i g mod m) / m))^2 for one input."""
    g, m = polynomial.evaluate(row), good_set.modulus
    total = sum(math.cos(2 * math.pi * ((k * g) % m / m)) for k in good_set.parameters)
    return (total / good_set.size) ** 2


def exact_general(characteristic: Characteristic, good_set: GoodSet, row) -> float:
    """(1/t) sum_i prod_s cos^2(pi (k_i g_s mod m) / m) for one input."""
    residues, m = characteristic.evaluate(row), good_set.modulus
    total = sum(
        math.prod(math.cos(math.pi * ((k * g) % m / m)) ** 2 for g in residues)
        for k in good_set.parameters
    )
    return total / good_set.size


@pytest.mark.parametrize("modulus", MODULI)
def test_evaluate_linear_batch_equals_the_per_row_evaluation(modulus):
    rng = random.Random(modulus)
    bits = random_bits(modulus)
    for _ in range(3):
        polynomial = random_polynomial(rng, modulus)
        batch = evaluate_linear_batch(polynomial, bits)
        assert [int(v) for v in batch] == [polynomial.evaluate(row) for row in bits.tolist()]


@pytest.mark.parametrize("modulus", MODULI)
def test_closed_forms_equal_the_exact_per_row_formulas(modulus):
    rng = random.Random(modulus + 1)
    bits = random_bits(modulus)
    good_set = random_good_set(rng, modulus)
    characteristic = Characteristic(
        modulus=modulus,
        arity=ARITY,
        polynomials=tuple(random_polynomial(rng, modulus) for _ in range(3)),
    )
    single = characteristic.polynomials[0]
    rows = bits.tolist()
    np.testing.assert_allclose(
        closed_form_single_batch(single, good_set, bits),
        [exact_single(single, good_set, row) for row in rows],
        rtol=0,
        atol=FORMULA_TOL,
    )
    np.testing.assert_allclose(
        closed_form_general_batch(characteristic, good_set, bits),
        [exact_general(characteristic, good_set, row) for row in rows],
        rtol=0,
        atol=FORMULA_TOL,
    )
    # The goodness kernel is the single closed form at b = g(sigma).
    by_residue = {single.evaluate(row): exact_single(single, good_set, row) for row in rows}
    by_residue.pop(0, None)
    for b, value in itertools.islice(by_residue.items(), 20):
        assert cosine_sum(good_set, b) == pytest.approx(value, abs=FORMULA_TOL)
        kernel = _cosine_kernel(_nonzero_residues(good_set, [b, b + 5 * modulus]), good_set)
        assert kernel[0] == kernel[1] == pytest.approx(value, abs=FORMULA_TOL)
    residues = list(by_residue)
    assert is_good_for(good_set, residues) == all(is_good_for(good_set, b) for b in residues)


def perm_rows(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutation matrices (ones of PERM_n) and, for each, a copy with one
    bit flipped and a random matrix (zeros), row-major."""
    rng = np.random.default_rng(seed)
    ones = np.zeros((count, n, n), dtype=np.uint8)
    for row, perm in zip(ones, (rng.permutation(n) for _ in range(count))):
        row[np.arange(n), perm] = 1
    ones = ones.reshape(count, n * n)
    flipped = ones.copy()
    flipped[np.arange(count), rng.integers(0, n * n, size=count)] ^= 1
    return ones, np.concatenate([flipped, rng.integers(0, 2, (count, n * n), dtype=np.uint8)])


def eq_rows(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal halves (ones of EQ_n) and, for each, halves that differ in one
    bit, and random halves (zeros)."""
    rng = np.random.default_rng(seed)
    halves = rng.integers(0, 2, (count, n), dtype=np.uint8)
    ones = np.concatenate([halves, halves], axis=1)
    differ = ones.copy()
    differ[np.arange(count), n + rng.integers(0, n, size=count)] ^= 1
    return ones, np.concatenate([differ, rng.integers(0, 2, (count, 2 * n), dtype=np.uint8)])


@pytest.mark.parametrize(
    "polynomial, rows",
    [(perm_polynomial(6), perm_rows(6, 12, 6)), (eq_polynomial(33), eq_rows(33, 12, 33))],
    ids=["PERM_6", "EQ_33"],
)
def test_simulation_of_object_path_programs_matches_the_closed_form(polynomial, rows):
    # PERM_6 is over 7^12 and EQ_33 over 2^33: both past the int64 residue
    # products, and EQ_33's 66 reads run past the sweep's 64-read sort key.
    good_set = sample(0.5, polynomial.modulus, seed=1)
    program = compile_single(polynomial, good_set).program
    ones, zeros = rows
    assert all(polynomial.evaluate(row) == 0 for row in ones.tolist())
    assert all(polynomial.evaluate(row) != 0 for row in zeros.tolist())
    for bits in (ones, zeros, np.concatenate([zeros, ones, zeros[:3]])):
        swept, drift = sweep_accept_probabilities(program, bits)
        closed = closed_form_single_batch(polynomial, good_set, bits)
        np.testing.assert_allclose(swept, closed, rtol=0, atol=CLOSED_FORM_TOL)
        assert drift <= 1e-9
    np.testing.assert_allclose(
        sweep_accept_probabilities(program, ones)[0], 1.0, rtol=0, atol=CLOSED_FORM_TOL
    )
    for row in itertools.islice(zeros.tolist(), 4):
        closed = closed_form_single_batch(polynomial, good_set, np.asarray([row]))[0]
        assert accept_probability(program, row) == pytest.approx(closed, abs=CLOSED_FORM_TOL)
