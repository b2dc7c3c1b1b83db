"""Polynomial builders checked against brute-force oracles."""

from __future__ import annotations

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd.errors import LengthMismatchError, TooLargeError, _json_int
from qobdd import goodsets, polynomials
from qobdd.polynomials import (
    Characteristic,
    LinearPolynomial,
    MultilinearPolynomial,
    SOPFormula,
    eq_polynomial,
    mod_polynomial,
    palindrome_polynomial,
    perm_polynomial,
    sop_to_polynomial,
)
from reference import truth_table_to_sop


def bits_of(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - j)) & 1 for j in range(width)]


def test_evaluate_linear_examples():
    mod3 = mod_polynomial(3, 3)
    assert mod3.evaluate([1, 1, 1]) == 0
    # x = 10, y = 01 over Z_4: 1*1 + 0*2 - (0*1 + 1*2) = -1 = 3 (mod 4)
    assert eq_polynomial(2).evaluate([1, 0, 0, 1]) == 3
    # 2x2 identity: (3^0 + 3^2) + (3^1 + 3^3) - (1 + 3 + 9 + 27) = 40 - 40
    assert perm_polynomial(2).evaluate([1, 0, 0, 1]) == 0


def test_evaluate_linear_length_mismatch():
    with pytest.raises(LengthMismatchError):
        mod_polynomial(3, 3).evaluate([1, 1])


def test_linear_polynomial_coefficients_canonicalized():
    poly = LinearPolynomial(modulus=5, arity=2, coefficients=(-1, 7, 0))
    assert poly.coefficients == (4, 2, 0)


@st.composite
def linear_instances(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    m = draw(st.integers(min_value=2, max_value=4**64))
    coeffs = tuple(draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(n + 1))
    sigma = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(n))
    return LinearPolynomial(modulus=m, arity=n, coefficients=coeffs), sigma


@given(linear_instances())
@settings(max_examples=100)
def test_evaluate_linear_matches_naive_big_integer_sum(case):
    poly, sigma = case
    naive = poly.coefficients[0] + sum(
        c for c, bit in zip(poly.coefficients[1:], sigma) if bit
    )
    assert poly.evaluate(sigma) == naive % poly.modulus


def test_evaluate_multilinear_basics():
    empty = MultilinearPolynomial(modulus=8, arity=2, monomials=())
    assert empty.evaluate([1, 0]) == 0
    product = MultilinearPolynomial(modulus=8, arity=2, monomials=((1, (1, 2)),))
    assert product.evaluate([1, 1]) == 1
    assert product.evaluate([1, 0]) == 0


def test_multilinear_rejects_duplicate_variable_sets():
    with pytest.raises(ValueError):
        MultilinearPolynomial(modulus=4, arity=2, monomials=((1, (1,)), (2, (1,))))


def test_sop_single_literal_cases():
    # not-f = x_1, so f = NOT x_1 over Z_2
    poly = sop_to_polynomial(SOPFormula(arity=1, products=((1,),)))
    assert poly.evaluate([0]) == 0
    assert poly.evaluate([1]) == 1
    # not-f = NOT x_1, polynomial 1 - x_1 over Z_2
    negated = sop_to_polynomial(SOPFormula(arity=1, products=((-1,),)))
    assert negated.evaluate([1]) == 0
    assert negated.evaluate([0]) == 1
    assert negated.monomials == ((1, ()), (1, (1,)))  # 1 + x_1 mod 2


def test_sop_and2_negation_nonzero_on_zero_inputs():
    # f = AND_2; not-f holds on 00, 01, 10
    table = [1, 1, 1, 0]
    poly = sop_to_polynomial(truth_table_to_sop(table))
    assert poly.evaluate([0, 1]) != 0
    assert poly.evaluate([1, 1]) == 0


def test_truth_table_to_sop_shapes():
    assert truth_table_to_sop([0, 0, 0, 0]).products == ()
    sop = truth_table_to_sop([0, 0, 1, 0])
    assert sop.products == ((1, -2),)
    with pytest.raises(ValueError):
        truth_table_to_sop([0, 1, 0])


def test_sop_rejects_bad_products():
    with pytest.raises(ValueError):
        SOPFormula(arity=2, products=((),))
    with pytest.raises(ValueError):
        SOPFormula(arity=2, products=((1, -1),))
    with pytest.raises(ValueError):
        SOPFormula(arity=2, products=((3,),))


def _zero_set_matches(table: list[int], arity: int) -> bool:
    """Minterm-expansion route vs the truth table itself."""
    negation = [1 - v for v in table]
    poly = sop_to_polynomial(truth_table_to_sop(negation))
    return all(
        (poly.evaluate(bits_of(v, arity)) == 0) == bool(table[v])
        for v in range(1 << arity)
    )


def test_characteristic_polynomial_exhaustive_three_variables():
    for encoded in range(256):
        table = bits_of(encoded, 8)
        assert _zero_set_matches(table, 3)


def test_characteristic_polynomial_random_four_variables():
    rng = random.Random(41)
    for _ in range(1000):
        table = [rng.randint(0, 1) for _ in range(16)]
        assert _zero_set_matches(table, 4)


def test_mod_polynomial_zero_set():
    poly = mod_polynomial(6, 3)
    for v in range(64):
        sigma = bits_of(v, 6)
        assert (poly.evaluate(sigma) == 0) == (sum(sigma) % 3 == 0)
    assert mod_polynomial(4, 3).evaluate([1, 1, 1, 1]) == 1
    assert mod_polynomial(3, 3).evaluate([0, 0, 0]) == 0


def test_eq_polynomial_zero_set():
    poly = eq_polynomial(4)
    for v in range(256):
        sigma = bits_of(v, 8)
        assert (poly.evaluate(sigma) == 0) == (sigma[:4] == sigma[4:])
    assert eq_polynomial(3).evaluate([1, 0, 1, 1, 0, 1]) == 0


def test_palindrome_polynomial_zero_set():
    poly = palindrome_polynomial(11)
    for v in range(2048):
        sigma = bits_of(v, 11)
        assert (poly.evaluate(sigma) == 0) == (sigma == sigma[::-1])


def test_palindrome_even_length_zero_set():
    for n in (2, 4, 6):
        poly = palindrome_polynomial(n)
        for v in range(1 << n):
            sigma = bits_of(v, n)
            assert (poly.evaluate(sigma) == 0) == (sigma == sigma[::-1]), (n, sigma)


def test_palindrome_examples():
    poly = palindrome_polynomial(5)
    assert poly.evaluate([1, 0, 1, 0, 1]) == 0
    assert poly.evaluate([1, 0, 0, 0, 1]) == 0
    assert poly.evaluate([1, 0, 0, 1, 0]) != 0


@given(st.integers(min_value=1, max_value=6), st.data())
def test_palindrome_middle_bit_neutral_for_odd_lengths(half, data):
    n = 2 * half + 1
    poly = palindrome_polynomial(n)
    sigma = [data.draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
    flipped = list(sigma)
    flipped[n // 2] ^= 1
    assert poly.evaluate(sigma) == poly.evaluate(flipped)


def perm_oracle(sigma: list[int], n: int) -> bool:
    rows = [sigma[i * n : (i + 1) * n] for i in range(n)]
    return all(sum(row) == 1 for row in rows) and all(
        sum(row[j] for row in rows) == 1 for j in range(n)
    )


def test_perm_polynomial_zero_set():
    poly = perm_polynomial(3)
    for v in range(512):
        sigma = bits_of(v, 9)
        assert (poly.evaluate(sigma) == 0) == perm_oracle(sigma, 3)


def test_perm_polynomial_examples():
    poly = perm_polynomial(2)
    assert poly.modulus == 81
    assert poly.evaluate([1, 0, 0, 1]) == 0
    assert poly.evaluate([0, 0, 0, 0]) == 41


def test_characteristic_validation():
    poly = mod_polynomial(3, 3)
    with pytest.raises(ValueError):
        Characteristic(modulus=3, arity=3, polynomials=())
    with pytest.raises(ValueError):
        Characteristic(modulus=4, arity=3, polynomials=(poly,))
    chi = Characteristic(modulus=3, arity=3, polynomials=(poly, poly))
    assert len(chi) == 2
    assert chi.evaluate([1, 1, 1]) == (0, 0)


def test_polynomial_json_round_trip():
    poly = perm_polynomial(2)
    again = LinearPolynomial.from_json_dict(poly.to_json_dict())
    assert again == poly
    chi = Characteristic(modulus=3, arity=3, polynomials=(mod_polynomial(3, 3),))
    assert Characteristic.from_json_list(chi.to_json_list()) == chi


def test_json_integers_are_integers_or_decimal_strings():
    assert [_json_int(v) for v in (3, -4, "12", "-7", "0", str(7**40))] == [
        3, -4, 12, -7, 0, 7**40
    ]
    for value in (1.0, 2.5, True, False, None, "1.5", " 1", "1_0", "+1", "", "-", "0x1", [1]):
        with pytest.raises(TypeError, match="JSON integer"):
            _json_int(value)
    with pytest.raises(TypeError, match="JSON integer"):
        LinearPolynomial.from_json_dict({"m": "3", "n": 2, "coeffs": ["0", 1.5, "1"]})


def test_sop_rejects_repeated_products():
    # Two copies of x_1 sum to 2 = 0 mod 2^1 at x_1 = 1, so the polynomial
    # would vanish on an input where NOT f holds.
    with pytest.raises(ValueError, match="repeats"):
        SOPFormula(arity=1, products=((1,), (1,)))
    with pytest.raises(ValueError, match="repeats"):
        SOPFormula(arity=2, products=((1, -2), (-2, 1)))
    SOPFormula(arity=2, products=((1, -2), (1, 2), (-2,)))


def test_sop_arity_is_refused_only_past_every_sampleable_modulus():
    # At n = 47273 an error rate just under 1 still samples 2^16 parameters
    # over Z_(2^n); one variable more needs 2^17 at every error rate.
    assert goodsets.required_size(0.999999, 2**47273) == goodsets._SAMPLE_LIMIT
    assert goodsets.required_size(0.999999, 2**47274) > goodsets._SAMPLE_LIMIT
    SOPFormula(arity=47273, products=((1,),))
    with pytest.raises(TooLargeError, match="sampling budget"):
        SOPFormula(arity=47274, products=((1,),))


def test_sop_expansion_is_refused_over_its_budget_before_expanding():
    # One product of 30 negated literals expands to 2^30 signed monomials,
    # which would take hours: the refusal comes first.
    with pytest.raises(TooLargeError, match="expansion budget"):
        sop_to_polynomial(SOPFormula(arity=30, products=(tuple(range(-1, -31, -1)),)))
    # The budget counts the monomials of every product: 8 + 1 of these.
    sop = SOPFormula(arity=3, products=((-1, -2, -3), (1,)))
    with mock.patch.object(polynomials, "_SOP_EXPANSION_LIMIT", 9):
        assert sop_to_polynomial(sop) == sop_to_polynomial(sop)
    with mock.patch.object(polynomials, "_SOP_EXPANSION_LIMIT", 8):
        with pytest.raises(TooLargeError, match="expansion budget"):
            sop_to_polynomial(sop)


def test_sop_polynomial_vanishes_exactly_off_any_distinct_products():
    """Not only minterms: any set of distinct products over n = 3."""
    arity = 3
    literal_choices = (0, 1, -1)
    all_products = [
        tuple(sign * (j + 1) for j, sign in enumerate(signs) if sign)
        for signs in itertools.product(literal_choices, repeat=arity)
        if any(signs)
    ]
    rng = random.Random(11)
    for _ in range(200):
        products = rng.sample(all_products, rng.randint(1, len(all_products)))
        sop = SOPFormula(arity=arity, products=tuple(products))
        poly = sop_to_polynomial(sop)
        for v in range(1 << arity):
            bits = [(v >> (arity - 1 - j)) & 1 for j in range(arity)]
            assert (poly.evaluate(bits) == 0) == (sop.evaluate(bits) == 0)
