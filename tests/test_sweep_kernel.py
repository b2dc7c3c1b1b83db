"""Differential tests of the block-structured sweep kernel.

sweep_accept_probabilities simulates every read on the program's block form.
These tests hold it against three references that share none of its code: the
dense per-input simulation (run / accept_probability), the compiler's closed
forms, and the class a brute-force oracle gives each input.  Moduli straddle
the int64 / Python-integer switches of the residue arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd.compiler import (
    _INT64_SAFE,
    closed_form_general,
    closed_form_general_batch,
    closed_form_single,
    closed_form_single_batch,
    compile_general,
    compile_single,
)
from qobdd.errors import LengthMismatchError, ModulusMismatchError
from qobdd.goodsets import GoodSet, cosine_sum, sample_good
from qobdd.polynomials import Characteristic, LinearPolynomial, mod_polynomial
from qobdd.programs import (
    Instruction,
    QuantumBranchingProgram,
    accept_probability,
    program_from_json_dict,
    program_to_json_dict,
    run,
    ry,
    sweep_accept_probabilities,
)
from qobdd.verification import all_inputs

DENSE_TOL = 1e-12
CLOSED_FORM_TOL = 1e-9

# Small moduli take the int64 paths; moduli near 2^31 straddle the residue
# product switch ((m-1)^2 < 2^62); moduli from 2^59 up straddle the polynomial
# evaluation switch ((n+1)(m-1) < 2^62) for every arity drawn here.
MODULI = st.one_of(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=math.isqrt(_INT64_SAFE) - 2, max_value=math.isqrt(_INT64_SAFE) + 2),
    st.integers(min_value=2**59, max_value=2**64),
)


def draw_polynomial(data, modulus: int, arity: int) -> LinearPolynomial:
    coefficients = tuple(
        data.draw(st.integers(min_value=0, max_value=modulus - 1)) for _ in range(arity + 1)
    )
    return LinearPolynomial(modulus=modulus, arity=arity, coefficients=coefficients)


def draw_good_set(data, modulus: int) -> GoodSet:
    """Any parameter set, good or not: the simulation must match regardless."""
    t = data.draw(st.sampled_from([1, 2, 4, 8]))
    parameters = tuple(
        data.draw(st.integers(min_value=0, max_value=modulus - 1)) for _ in range(t)
    )
    return GoodSet(modulus=modulus, error_rate=0.3, parameters=parameters)


def dense_probabilities(program: QuantumBranchingProgram, bits: np.ndarray) -> np.ndarray:
    return np.array([accept_probability(program, row) for row in bits])


def assert_matches_dense(program: QuantumBranchingProgram, bits: np.ndarray) -> np.ndarray:
    swept, drift = sweep_accept_probabilities(program, bits)
    np.testing.assert_allclose(swept, dense_probabilities(program, bits), rtol=0, atol=DENSE_TOL)
    assert drift <= 1e-9
    return swept


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_single_sweep_matches_dense_closed_form_and_oracle(data):
    modulus = data.draw(MODULI)
    polynomial = draw_polynomial(data, modulus, data.draw(st.integers(min_value=1, max_value=5)))
    good_set = draw_good_set(data, modulus)
    program = compile_single(polynomial, good_set).program
    bits = all_inputs(polynomial.arity)
    swept = assert_matches_dense(program, bits)
    np.testing.assert_allclose(
        swept, closed_form_single_batch(polynomial, good_set, bits), rtol=0, atol=CLOSED_FORM_TOL
    )
    for row, probability in zip(bits.tolist(), swept):
        residue = polynomial.evaluate(row)
        if residue == 0:
            assert probability >= 1.0 - 1e-9
        else:
            # A zero of the oracle accepts with its residue's goodness measure,
            # which a good set keeps below the error rate.
            assert probability == pytest.approx(cosine_sum(good_set, residue), abs=CLOSED_FORM_TOL)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_general_sweep_matches_dense_closed_form_and_oracle(data):
    modulus = data.draw(MODULI)
    arity = data.draw(st.integers(min_value=1, max_value=4))
    count = data.draw(st.integers(min_value=1, max_value=3))
    characteristic = Characteristic(
        modulus=modulus,
        arity=arity,
        polynomials=tuple(draw_polynomial(data, modulus, arity) for _ in range(count)),
    )
    good_set = draw_good_set(data, modulus)
    program = compile_general(characteristic, good_set).program
    assert program.block_form.block <= 2**count
    bits = all_inputs(arity)
    swept = assert_matches_dense(program, bits)
    np.testing.assert_allclose(
        swept,
        closed_form_general_batch(characteristic, good_set, bits),
        rtol=0,
        atol=CLOSED_FORM_TOL,
    )
    for row, probability in zip(bits.tolist(), swept):
        if not any(characteristic.evaluate(row)):
            assert probability >= 1.0 - 1e-9


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    gaussian = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(gaussian)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@given(
    st.sampled_from([3, 4, 6]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_unstructured_complex_program_takes_the_full_width_path(d, arity, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=d) + 1j * rng.normal(size=d)
    program = QuantumBranchingProgram(
        dimension=d,
        arity=arity,
        instructions=tuple(
            Instruction(
                variable_index=int(rng.integers(1, arity + 1)),
                on_zero=random_unitary(rng, d),
                on_one=random_unitary(rng, d),
            )
            for _ in range(arity + 1)
        ),
        initial_state=state / np.linalg.norm(state),
        accepting=tuple(sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))),
        pre_transform=random_unitary(rng, d),
        post_transform=random_unitary(rng, d),
    )
    form = program.block_form
    assert form.block == d
    assert form.start.dtype == np.complex128
    assert all(on_zero is not None for _, on_zero, _ in form.reads)
    assert_matches_dense(program, all_inputs(arity))


def test_non_identity_on_zero_is_applied_on_the_real_block_path():
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(5, 3), good_set).program
    reads = compiled.instructions
    program = QuantumBranchingProgram(
        dimension=compiled.dimension,
        arity=compiled.arity,
        instructions=tuple(
            Instruction(
                variable_index=instruction.variable_index,
                on_zero=reads[(step + 1) % len(reads)].on_one,
                on_one=instruction.on_one,
            )
            for step, instruction in enumerate(reads)
        ),
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        pre_transform=compiled.pre_transform,
        post_transform=compiled.post_transform,
    )
    form = program.block_form
    assert form.block == 2
    assert form.start.dtype == np.float64
    assert all(on_zero is not None for _, on_zero, _ in form.reads)
    swept = assert_matches_dense(program, all_inputs(5))
    identity_swept, _ = sweep_accept_probabilities(compiled, all_inputs(5))
    assert np.max(np.abs(swept - identity_swept)) > 1e-3


@pytest.mark.parametrize("field", ["initial_state", "pre_transform", "post_transform"])
def test_one_complex_array_selects_complex_arithmetic(field):
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(4, 3), good_set).program
    fields = {
        "initial_state": compiled.initial_state,
        "pre_transform": compiled.pre_transform,
        "post_transform": compiled.post_transform,
    }
    # A global phase of i changes no probability but leaves no real part.
    fields[field] = 1j * fields[field]
    program = QuantumBranchingProgram(
        dimension=compiled.dimension,
        arity=compiled.arity,
        instructions=compiled.instructions,
        accepting=compiled.accepting,
        **fields,
    )
    assert program.block_form.start.dtype == np.complex128
    swept = assert_matches_dense(program, all_inputs(4))
    np.testing.assert_allclose(
        swept, sweep_accept_probabilities(compiled, all_inputs(4))[0], rtol=0, atol=DENSE_TOL
    )


def test_norm_drift_is_measured_after_every_read():
    stretch = np.diag([1.01, 1.0])
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(
            Instruction(variable_index=1, on_zero=np.eye(2), on_one=stretch),
            Instruction(variable_index=1, on_zero=np.eye(2), on_one=np.linalg.inv(stretch)),
        ),
        initial_state=np.array([1.0, 0.0]),
        accepting=(0,),
    )
    probabilities, drift = sweep_accept_probabilities(program, all_inputs(1))
    np.testing.assert_allclose(probabilities, [1.0, 1.0], rtol=0, atol=DENSE_TOL)
    assert drift == pytest.approx(0.01)


def test_detected_block_sizes():
    good_set, _ = sample_good(0.2, 3, seed=0)
    single = compile_single(mod_polynomial(6, 3), good_set).program
    assert single.block_form.block == 2
    assert single.block_form.post.shape == (1, single.dimension, single.dimension)
    assert all(on_zero is None for _, on_zero, _ in single.block_form.reads)
    assert single.block_form is single.block_form
    for count in (1, 2, 3):
        modulus = 7
        polynomials = tuple(
            LinearPolynomial(
                modulus=modulus,
                arity=3,
                coefficients=tuple((s + 1) * (j + 2) % modulus for j in range(4)),
            )
            for s in range(count)
        )
        characteristic = Characteristic(modulus=modulus, arity=3, polynomials=polynomials)
        good_set, _ = sample_good(0.3, modulus, seed=1)
        program = compile_general(characteristic, good_set).program
        assert program.block_form.block == 2**count
        assert program.block_form.start.dtype == np.float64


def test_json_loaded_program_keeps_its_block_form():
    good_set, _ = sample_good(0.2, 3, seed=2)
    program = compile_single(mod_polynomial(4, 3), good_set).program
    loaded = program_from_json_dict(program_to_json_dict(program))
    assert loaded.block_form.block == 2
    assert all(on_zero is None for _, on_zero, _ in loaded.block_form.reads)
    bits = all_inputs(4)
    np.testing.assert_allclose(
        sweep_accept_probabilities(loaded, bits)[0],
        sweep_accept_probabilities(program, bits)[0],
        rtol=0,
        atol=DENSE_TOL,
    )


def test_non_unitary_block_shows_in_norm_drift():
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(4, 3), good_set).program
    scaled = compiled.instructions[1].on_one.copy()
    scaled[0:2, 0:2] *= 1.01
    instructions = list(compiled.instructions)
    instructions[1] = Instruction(
        variable_index=instructions[1].variable_index,
        on_zero=instructions[1].on_zero,
        on_one=scaled,
    )
    program = QuantumBranchingProgram(
        dimension=compiled.dimension,
        arity=compiled.arity,
        instructions=tuple(instructions),
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        pre_transform=compiled.pre_transform,
        post_transform=compiled.post_transform,
    )
    bits = all_inputs(4)
    _, drift = sweep_accept_probabilities(program, bits)
    assert drift > 1e-6
    with pytest.raises(ArithmeticError):
        run(program, [1, 1, 1, 1])


def reference_branch_block(good_set: GoodSet, coefficients, angle_numerator: float) -> np.ndarray:
    """The per-branch loop the compiler used to run: one ry call per rotation."""
    m = good_set.modulus
    size = 2 ** len(coefficients)
    matrix = np.zeros((good_set.size * size, good_set.size * size), dtype=np.complex128)
    for i, k in enumerate(good_set.parameters):
        block = np.array([[1.0]], dtype=np.complex128)
        for c in coefficients:
            block = np.kron(block, ry(angle_numerator * (((k * c) % m) / m)))
        matrix[i * size : (i + 1) * size, i * size : (i + 1) * size] = block
    return matrix


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_blocks_equal_per_branch_ry(data):
    modulus = data.draw(MODULI)
    good_set = draw_good_set(data, modulus)
    polynomial = draw_polynomial(data, modulus, 2)
    single = compile_single(polynomial, good_set).program
    for j, instruction in enumerate(single.instructions, start=1):
        expected = reference_branch_block(good_set, (polynomial.coefficients[j],), 4.0 * math.pi)
        np.testing.assert_allclose(instruction.on_one, expected, rtol=0, atol=1e-15)
    characteristic = Characteristic(
        modulus=modulus,
        arity=2,
        polynomials=(polynomial, draw_polynomial(data, modulus, 2)),
    )
    general = compile_general(characteristic, good_set).program
    for j, instruction in enumerate(general.instructions, start=1):
        coefficients = tuple(p.coefficients[j] for p in characteristic.polynomials)
        expected = reference_branch_block(good_set, coefficients, 2.0 * math.pi)
        np.testing.assert_allclose(instruction.on_one, expected, rtol=0, atol=1e-15)
    expected = reference_branch_block(
        good_set, tuple(p.coefficients[0] for p in characteristic.polynomials), 2.0 * math.pi
    )
    np.testing.assert_allclose(general.post_transform, expected, rtol=0, atol=1e-15)


def test_compiled_reads_share_one_frozen_identity():
    good_set, _ = sample_good(0.2, 3, seed=0)
    program = compile_single(mod_polynomial(5, 3), good_set).program
    identities = {id(instruction.on_zero) for instruction in program.instructions}
    assert len(identities) == 1
    for instruction in program.instructions:
        assert not instruction.on_zero.flags.writeable
        assert not instruction.on_one.flags.writeable


# The scalar closed forms, their batch forms and the goodness measure share one
# residue/cosine kernel, so they agree exactly, not just to rounding.


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_scalar_closed_form_is_the_goodness_measure_exactly(data):
    modulus = data.draw(MODULI)
    arity = data.draw(st.integers(min_value=1, max_value=6))
    polynomial = draw_polynomial(data, modulus, arity)
    good_set = draw_good_set(data, modulus)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=arity, max_size=arity))
    residue = polynomial.evaluate(bits)
    if residue != 0:
        assert closed_form_single(polynomial, good_set, bits) == cosine_sum(good_set, residue)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_closed_forms_equal_their_batch_rows(data):
    modulus = data.draw(MODULI)
    arity = data.draw(st.integers(min_value=1, max_value=5))
    polynomials = tuple(
        draw_polynomial(data, modulus, arity) for _ in range(data.draw(st.integers(1, 3)))
    )
    characteristic = Characteristic(modulus=modulus, arity=arity, polynomials=polynomials)
    t = data.draw(st.sampled_from([1, 8, 64]))
    parameters = data.draw(
        st.lists(st.integers(min_value=0, max_value=modulus - 1), min_size=t, max_size=t)
    )
    good_set = GoodSet(modulus=modulus, error_rate=0.3, parameters=tuple(parameters))
    bits = all_inputs(arity)
    single = closed_form_single_batch(polynomials[0], good_set, bits)
    general = closed_form_general_batch(characteristic, good_set, bits)
    for row, single_row, general_row in zip(bits.tolist(), single, general):
        assert closed_form_single(polynomials[0], good_set, row) == single_row
        assert closed_form_general(characteristic, good_set, row) == general_row


def test_scalar_closed_forms_equal_rows_of_a_large_batch():
    # 4,096 rows of 256 parameters: numpy's blocked sums and vector loops must
    # not make a row's value depend on the rows around it.
    modulus = 3**9
    coefficients = tuple(7**j % modulus for j in range(13))
    polynomial = LinearPolynomial(modulus=modulus, arity=12, coefficients=coefficients)
    characteristic = Characteristic(
        modulus=modulus, arity=12, polynomials=(polynomial, mod_polynomial(12, modulus))
    )
    parameters = np.random.default_rng(4).integers(0, modulus, size=256).tolist()
    good_set = GoodSet(modulus=modulus, error_rate=0.3, parameters=tuple(parameters))
    bits = all_inputs(12)
    single = closed_form_single_batch(polynomial, good_set, bits)
    general = closed_form_general_batch(characteristic, good_set, bits)
    for index in range(0, 4096, 97):
        row = bits[index].tolist()
        assert closed_form_single(polynomial, good_set, row) == single[index]
        assert closed_form_general(characteristic, good_set, row) == general[index]


def test_scalar_closed_forms_keep_their_errors():
    polynomial = mod_polynomial(3, 5)
    characteristic = Characteristic(modulus=5, arity=3, polynomials=(polynomial,))
    good_set = GoodSet(modulus=5, error_rate=0.3, parameters=(1, 2))
    for bits in ([0, 1], [0, 1, 1, 0], []):
        with pytest.raises(LengthMismatchError):
            closed_form_single(polynomial, good_set, bits)
        with pytest.raises(LengthMismatchError):
            closed_form_general(characteristic, good_set, bits)
    other = GoodSet(modulus=7, error_rate=0.3, parameters=(1, 2))
    with pytest.raises(ModulusMismatchError):
        closed_form_single(polynomial, other, [0, 1, 1])
    with pytest.raises(ModulusMismatchError):
        closed_form_general(characteristic, other, [0, 1, 1])
