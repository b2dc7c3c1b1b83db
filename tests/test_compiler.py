"""Fingerprint compilation against closed forms and the one-sided contract."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from qobdd import compiler
from qobdd.compiler import (
    _branch_blocks,
    check_budget,
    closed_form_general,
    closed_form_general_batch,
    closed_form_single,
    closed_form_single_batch,
    compile_general,
    compile_single,
    error_bound_general,
    hadamard_layer,
    recipe_from_json_dict,
    recipe_to_json_dict,
)
from qobdd.errors import InvalidErrorRateError, ModulusMismatchError, TooLargeError
from qobdd.goodsets import GoodSet, required_size, sample, sample_good, verify_exhaustive
from qobdd.hsf import FiniteGroup, HSFInstance, cyclic_subgroup, hsf_characteristic
from qobdd.polynomials import (
    Characteristic,
    LinearPolynomial,
    mod_polynomial,
    perm_polynomial,
)
from qobdd.programs import (
    _block_diagonal,
    accept_probability,
    is_read_once,
    metrics,
    sweep_accept_probabilities,
    validate,
)
from qobdd.verification import all_inputs


def test_zero_polynomial_accepts_everything():
    poly = LinearPolynomial(modulus=5, arity=3, coefficients=(0, 0, 0, 0))
    good_set = sample(0.5, 5, seed=0)
    program = compile_single(poly, good_set).program
    for v in range(8):
        sigma = [(v >> (2 - j)) & 1 for j in range(3)]
        assert accept_probability(program, sigma) == pytest.approx(1.0, abs=1e-9)


def test_compile_single_structure():
    poly = mod_polynomial(5, 3)
    good_set, _ = sample_good(0.2, 3, seed=0)
    compilation = compile_single(poly, good_set)
    program = compilation.program
    t = good_set.size
    assert program.dimension == 2 * t
    assert metrics(program).qubits == 1 + int(math.log2(t))
    assert program.accepting == (0,)
    assert is_read_once(program)
    assert validate(program) == []


def test_compile_single_modulus_mismatch():
    with pytest.raises(ModulusMismatchError):
        compile_single(mod_polynomial(4, 3), sample(0.3, 5, seed=0))


def test_one_sided_error_small_mod():
    poly = mod_polynomial(5, 3)
    good_set, _ = sample_good(0.2, 3, seed=0)
    assert verify_exhaustive(good_set)
    program = compile_single(poly, good_set).program
    bits = all_inputs(5)
    probabilities, _ = sweep_accept_probabilities(program, bits)
    ones = bits.sum(axis=1) % 3 == 0
    assert probabilities[ones].min() >= 1.0 - 1e-9
    assert probabilities[~ones].max() < 0.2


def test_closed_form_single_examples():
    poly = mod_polynomial(3, 3)
    pair = GoodSet(modulus=3, error_rate=0.3, parameters=(1, 2))
    assert closed_form_single(poly, pair, [0, 0, 0]) == pytest.approx(1.0)
    # constant polynomial g = 1: the K = {1, 2} cosine pair gives 1/4
    one = LinearPolynomial(modulus=3, arity=2, coefficients=(1, 0, 0))
    assert closed_form_single(one, pair, [0, 1]) == pytest.approx(0.25, abs=1e-12)


def test_closed_form_matches_simulator_exhaustively():
    poly = mod_polynomial(6, 3)
    good_set, _ = sample_good(0.2, 3, seed=0)
    program = compile_single(poly, good_set).program
    bits = all_inputs(6)
    probabilities, _ = sweep_accept_probabilities(program, bits)
    closed = closed_form_single_batch(poly, good_set, bits)
    np.testing.assert_allclose(probabilities, closed, atol=1e-6)
    sigma = [1, 0, 1, 1, 0, 0]
    assert closed_form_single(poly, good_set, sigma) == pytest.approx(
        accept_probability(program, sigma), abs=1e-6
    )


def test_closed_form_respects_large_modulus_reduction():
    # Exact residue reduction keeps angles faithful when m is huge.
    rng = random.Random(5)
    m = 3**40
    coeffs = tuple(rng.randrange(m) for _ in range(5))
    poly = LinearPolynomial(modulus=m, arity=4, coefficients=coeffs)
    good_set = GoodSet(
        modulus=m,
        error_rate=0.5,
        parameters=tuple(rng.randrange(m) for _ in range(4)),
    )
    program = compile_single(poly, good_set).program
    bits = all_inputs(4)
    probabilities, _ = sweep_accept_probabilities(program, bits)
    closed = closed_form_single_batch(poly, good_set, bits)
    np.testing.assert_allclose(probabilities, closed, atol=1e-9)


def test_angles_survive_astronomical_moduli():
    # residues near 2^512 must become exact ratios before any float math
    rng = random.Random(11)
    m = 2**512
    coeffs = tuple(rng.randrange(m) for _ in range(4))
    poly = LinearPolynomial(modulus=m, arity=3, coefficients=coeffs)
    good_set = GoodSet(
        modulus=m,
        error_rate=0.5,
        parameters=tuple(rng.randrange(m) for _ in range(2)),
    )
    from qobdd.goodsets import cosine_sum

    assert 0.0 <= cosine_sum(good_set, m - 1) <= 1.0
    program = compile_single(poly, good_set).program
    for v in range(8):
        sigma = [(v >> (2 - j)) & 1 for j in range(3)]
        assert accept_probability(program, sigma) == pytest.approx(
            closed_form_single(poly, good_set, sigma), abs=1e-9
        )
    chi = Characteristic(modulus=m, arity=3, polynomials=(poly,))
    general = compile_general(chi, good_set).program
    sigma = [1, 0, 1]
    assert accept_probability(general, sigma) == pytest.approx(
        closed_form_general(chi, good_set, sigma), abs=1e-9
    )


def test_compile_general_single_polynomial_form():
    poly = mod_polynomial(4, 3)
    chi = Characteristic(modulus=3, arity=4, polynomials=(poly,))
    good_set, _ = sample_good(0.2, 3, seed=0)
    compilation = compile_general(chi, good_set)
    program = compilation.program
    t = good_set.size
    assert program.dimension == 2 * t
    assert len(program.accepting) == t
    assert is_read_once(program)
    bits = all_inputs(4)
    probabilities, _ = sweep_accept_probabilities(program, bits)
    closed = closed_form_general_batch(chi, good_set, bits)
    np.testing.assert_allclose(probabilities, closed, atol=1e-6)
    ones = bits.sum(axis=1) % 3 == 0
    assert probabilities[ones].min() >= 1.0 - 1e-9
    # interference form and cos^2 form are different functions off the ones
    single = closed_form_single_batch(poly, good_set, bits)
    assert np.max(np.abs(single - closed)) > 1e-3


def test_equality_program_accepts_equal_strings():
    from qobdd.polynomials import eq_polynomial

    poly = eq_polynomial(3)
    good_set, _ = sample_good(0.2, 8, seed=0, residues=list(range(1, 8)))
    program = compile_single(poly, good_set).program
    assert accept_probability(program, [1, 0, 1, 1, 0, 1]) == pytest.approx(
        1.0, abs=1e-9
    )
    assert accept_probability(program, [1, 0, 1, 1, 0, 0]) < 0.2


def test_all_zero_characteristic_accepts_everything():
    zero = LinearPolynomial(modulus=4, arity=2, coefficients=(0, 0, 0))
    chi = Characteristic(modulus=4, arity=2, polynomials=(zero, zero))
    program = compile_general(chi, sample(0.5, 4, seed=1)).program
    for sigma in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert accept_probability(program, sigma) == pytest.approx(1.0, abs=1e-9)


def test_general_orthogonal_case_single_branch():
    # t = 1, k_1 g(sigma) = m/2 makes the lone fingerprint land on |1>.
    half = LinearPolynomial(modulus=4, arity=1, coefficients=(2, 0))
    chi = Characteristic(modulus=4, arity=1, polynomials=(half,))
    lone = GoodSet(modulus=4, error_rate=0.5, parameters=(1,))
    assert closed_form_general(chi, lone, [0]) == pytest.approx(0.0, abs=1e-12)
    program = compile_general(chi, lone).program
    assert accept_probability(program, [0]) == pytest.approx(0.0, abs=1e-12)


def test_compile_general_modulus_mismatch():
    chi = Characteristic(modulus=3, arity=2, polynomials=(mod_polynomial(2, 3),))
    with pytest.raises(ModulusMismatchError):
        compile_general(chi, sample(0.3, 5, seed=0))


def test_error_bound_general_values():
    assert error_bound_general(0.25) == pytest.approx(0.75)
    assert error_bound_general(1e-12) == pytest.approx(0.5, abs=1e-5)
    with pytest.raises(ValueError):
        error_bound_general(0.0)


def test_instruction_matrices_are_block_diagonal_over_branches():
    poly = mod_polynomial(3, 5)
    good_set, _ = sample_good(0.3, 5, seed=0)
    t = good_set.size
    single = compile_single(poly, good_set)
    for instruction in single.program.instructions:
        assert instruction.on_one.shape == (t, 2, 2)
        assert instruction.on_zero.shape == (t, 2, 2)
    chi = Characteristic(modulus=5, arity=3, polynomials=(poly, poly))
    general = compile_general(chi, good_set)
    for instruction in general.program.instructions:
        assert instruction.on_one.shape == (t, 4, 4)
    assert general.program.post_transform.shape == (t, 4, 4)


def test_zero_coefficient_variables_still_read():
    poly = LinearPolynomial(modulus=3, arity=4, coefficients=(0, 1, 0, 0, 1))
    good_set, _ = sample_good(0.3, 3, seed=0)
    program = compile_single(poly, good_set).program
    assert len(program.instructions) == 4
    assert sorted(i.variable_index for i in program.instructions) == [1, 2, 3, 4]
    assert is_read_once(program)


def test_error_bound_general_raises_the_package_error_type():
    with pytest.raises(InvalidErrorRateError):
        error_bound_general(1.0)


def test_single_post_transform_equals_the_dense_hadamard_product():
    """The block-wise post-transform against the dense O(d^3) product it replaced."""
    polynomial = perm_polynomial(4)
    good_set = sample(0.2, polynomial.modulus, seed=3)
    program = compile_single(polynomial, good_set).program
    t = good_set.size
    h_layer = np.kron(hadamard_layer(t.bit_length() - 1), np.eye(2, dtype=np.complex128))
    constant_block = _block_diagonal(
        _branch_blocks(good_set, (polynomial.coefficients[0],), 4.0 * math.pi)
    )
    assert np.array_equal(program.post_transform, h_layer @ constant_block)


def _general_source() -> Characteristic:
    return Characteristic(
        modulus=5,
        arity=3,
        polynomials=(
            LinearPolynomial(5, 3, (1, 2, 3, 4)),
            LinearPolynomial(5, 3, (0, 1, 0, 4)),
        ),
    )


@pytest.mark.parametrize("general", [False, True])
def test_recipe_round_trip_rebuilds_the_same_program(general):
    source = _general_source() if general else mod_polynomial(4, 5)
    good_set = sample(0.3, 5, seed=4)
    expected = (compile_general if general else compile_single)(source, good_set)
    recipe = json.loads(json.dumps(recipe_to_json_dict(source, good_set)))
    assert set(recipe) == {"kind", "polynomials", "goodset"}
    loaded = recipe_from_json_dict(recipe)
    assert type(loaded) is type(expected)
    assert loaded.good_set == good_set
    a, b = loaded.program, expected.program
    assert (a.dimension, a.arity, a.accepting) == (b.dimension, b.arity, b.accepting)
    for x, y in zip(a.instructions, b.instructions):
        assert x.variable_index == y.variable_index
        assert np.array_equal(x.on_zero, y.on_zero) and np.array_equal(x.on_one, y.on_one)
    assert np.array_equal(a.initial_state, b.initial_state)
    assert np.array_equal(a.post_transform, b.post_transform)


def _recipe(**changes) -> dict:
    recipe = recipe_to_json_dict(mod_polynomial(4, 5), sample(0.3, 5, seed=4))
    recipe.update(changes)
    return recipe


@pytest.mark.parametrize(
    "recipe",
    [
        {},
        [],
        _recipe(kind="bogus"),
        _recipe(kind=["single"]),
        _recipe(polynomials=[]),
        _recipe(polynomials=5),
        _recipe(polynomials=[{"m": "5"}]),
        _recipe(polynomials=["x"]),
        _recipe(kind="single", polynomials=_general_source().to_json_list()),
        _recipe(kind="general", polynomials=[]),
        _recipe(goodset={"m": "5", "epsilon": 0.3}),
        _recipe(goodset={"m": "5", "epsilon": 0.3, "params": 7}),
        _recipe(goodset={"m": "5", "epsilon": None, "params": ["1", "2"]}),
        _recipe(goodset={"m": "5", "epsilon": 0.3, "params": ["1", "2", "3"]}),
        _recipe(goodset={"m": "7", "epsilon": 0.3, "params": ["1", "2"]}),
    ],
)
def test_recipe_loader_raises_value_error_on_malformed_recipes(recipe):
    with pytest.raises(ValueError):
        recipe_from_json_dict(recipe)


def test_size_budget_is_checked_before_compiling(monkeypatch):
    polynomial = mod_polynomial(5, 3)
    good_set = sample(0.2, 3, seed=0)
    characteristic = Characteristic(modulus=3, arity=5, polynomials=(polynomial,))
    needed = (5 + 3) * (2 * good_set.size) ** 2 * 16
    monkeypatch.setattr(compiler, "DENSE_BUDGET_BYTES", needed - 1)
    with pytest.raises(TooLargeError):
        compile_single(polynomial, good_set)
    with pytest.raises(TooLargeError):
        compile_general(characteristic, good_set)
    with pytest.raises(TooLargeError):
        recipe_from_json_dict(recipe_to_json_dict(polynomial, good_set))
    monkeypatch.setattr(compiler, "DENSE_BUDGET_BYTES", needed)
    compile_single(polynomial, good_set)
    compile_general(characteristic, good_set)


def test_size_budget_admits_the_widest_benchmark_programs():
    perm = perm_polynomial(4)
    check_budget(perm, required_size(0.2, perm.modulus))
    z8 = hsf_characteristic(HSFInstance.create(FiniteGroup.cyclic(8), cyclic_subgroup(8, 4)))
    check_budget(z8, required_size(0.25, z8.modulus))
    with pytest.raises(TooLargeError):
        check_budget(mod_polynomial(4, 3), required_size(1e-6, 3))
