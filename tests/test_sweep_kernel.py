"""Differential tests of the block-structured sweep kernel.

sweep_accept_probabilities simulates every read on the program's stacks of
diagonal blocks, and accept_probability is its 1-row case.  These tests hold
it against three references that share none of its code: the dense per-input
simulation (run, which expands every stack to its d x d matrix), the
compiler's closed forms, and the class a brute-force oracle gives each input.
Moduli straddle the int64 / Python-integer switches of the residue
arithmetic.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd import programs
from qobdd.compiler import (
    _INT64_SAFE,
    closed_form_general,
    closed_form_general_batch,
    closed_form_single,
    closed_form_single_batch,
    compile_general,
    compile_single,
    evaluate_linear_batch,
)
from qobdd.errors import LengthMismatchError, ModulusMismatchError
from qobdd.goodsets import (
    GoodSet,
    _cosine_kernel,
    _residue_products,
    cosine_sum,
    sample,
    sample_good,
)
from qobdd.polynomials import (
    Characteristic,
    LinearPolynomial,
    mod_polynomial,
    perm_polynomial,
)
from qobdd.programs import (
    Instruction,
    QuantumBranchingProgram,
    _block_diagonal,
    _enumeration_doublings,
    accept_probability,
    program_from_json_dict,
    program_to_json_dict,
    run,
    sweep_accept_probabilities,
)
from qobdd.verification import all_inputs, input_block

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


def dense_probabilities(
    program: QuantumBranchingProgram, bits: np.ndarray, check_norm: bool = True
) -> np.ndarray:
    accepting = list(program.accepting)
    return np.array(
        [np.sum(np.abs(run(program, row, check_norm)[accepting]) ** 2) for row in bits]
    )


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
    instructions = tuple(
        Instruction(
            variable_index=int(rng.integers(1, arity + 1)),
            on_zero=random_unitary(rng, d),
            on_one=random_unitary(rng, d),
        )
        for _ in range(arity + 1)
    )
    accepting = tuple(sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)))
    # A random input-independent first step, folded into the initial state.
    initial_state = random_unitary(rng, d) @ state / np.linalg.norm(state)
    program = QuantumBranchingProgram(
        dimension=d,
        arity=arity,
        instructions=instructions,
        initial_state=initial_state,
        accepting=accepting,
        post_transform=random_unitary(rng, d),
    )
    assert program.instructions[0].on_one.shape == (d, d)
    assert program.initial_state.dtype == np.complex128
    assert_matches_dense(program, all_inputs(arity))


def non_identity_on_zero_program() -> tuple[QuantumBranchingProgram, QuantumBranchingProgram]:
    """MOD_3 over 5 variables, and a copy whose every U(0) is another read's U(1)."""
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(5, 3), good_set).program
    reads = compiled.instructions
    return compiled, QuantumBranchingProgram(
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
        post_transform=compiled.post_transform,
    )


def test_non_identity_on_zero_is_applied_on_the_real_block_path():
    compiled, program = non_identity_on_zero_program()
    t = compiled.dimension // 2
    assert all(
        instruction.on_zero.shape == (t, 2, 2)
        and instruction.on_zero.dtype == np.float64
        for instruction in program.instructions
    )
    swept = assert_matches_dense(program, all_inputs(5))
    identity_swept, _ = sweep_accept_probabilities(compiled, all_inputs(5))
    assert np.max(np.abs(swept - identity_swept)) > 1e-3


@pytest.mark.parametrize("field", ["initial_state", "post_transform"])
def test_one_complex_array_selects_complex_arithmetic(field):
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(4, 3), good_set).program
    fields = {
        "initial_state": compiled.initial_state,
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
    for name, value in fields.items():
        expected = np.complex128 if name == field else np.float64
        assert getattr(program, name).dtype == expected
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


def test_compiled_stacks_have_per_branch_block_sizes():
    good_set, _ = sample_good(0.2, 3, seed=0)
    t = good_set.size
    single = compile_single(mod_polynomial(6, 3), good_set).program
    for instruction in single.instructions:
        assert instruction.on_one.shape == (t, 2, 2)
        assert instruction.on_one.dtype == np.float64
    assert single.post_transform.shape == (single.dimension, single.dimension)
    assert single.post_transform.dtype == np.float64
    assert single.initial_state.dtype == np.float64
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
        shape = (good_set.size, 2**count, 2**count)
        assert all(instruction.on_one.shape == shape for instruction in program.instructions)
        assert program.post_transform.shape == shape
        assert all(
            array.dtype == np.float64
            for array in (program.initial_state, program.post_transform)
        )


def test_compiled_perm4_holds_stacks_not_dense_matrices():
    polynomial = perm_polynomial(4)
    good_set = sample(0.2, polynomial.modulus, seed=3)
    tracemalloc.start()
    try:
        program = compile_single(polynomial, good_set).program
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for instruction in program.instructions:
        assert instruction.on_one.shape == (good_set.size, 2, 2)
        assert instruction.on_one.dtype == np.float64


def test_json_loaded_program_keeps_its_block_form():
    good_set, _ = sample_good(0.2, 3, seed=2)
    program = compile_single(mod_polynomial(4, 3), good_set).program
    loaded = program_from_json_dict(program_to_json_dict(program))
    for ours, theirs in zip(loaded.instructions, program.instructions):
        assert ours.on_one.dtype == np.float64
        assert np.array_equal(ours.on_zero, theirs.on_zero)
        assert np.array_equal(ours.on_one, theirs.on_one)
    bits = all_inputs(4)
    np.testing.assert_allclose(
        sweep_accept_probabilities(loaded, bits)[0],
        sweep_accept_probabilities(program, bits)[0],
        rtol=0,
        atol=DENSE_TOL,
    )


@pytest.mark.parametrize("general", [False, True])
def test_accept_probability_is_a_row_of_the_sweep(general):
    polynomial = mod_polynomial(6, 5)
    good_set, _ = sample_good(0.3, 5, seed=4)
    if general:
        other = LinearPolynomial(modulus=5, arity=6, coefficients=(1, 0, 2, 0, 3, 0, 4))
        characteristic = Characteristic(modulus=5, arity=6, polynomials=(polynomial, other))
        program = compile_general(characteristic, good_set).program
    else:
        program = compile_single(polynomial, good_set).program
    bits = all_inputs(6)
    swept, _ = sweep_accept_probabilities(program, bits)
    for row, probability in zip(bits.tolist(), swept):
        assert abs(accept_probability(program, row) - probability) <= 1e-15


def scaled_block_program() -> QuantumBranchingProgram:
    """MOD_3 over 4 variables with branch 0 of the second read's U(1) scaled by 1.01."""
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(4, 3), good_set).program
    scaled = compiled.instructions[1].on_one.copy()
    scaled[0] *= 1.01
    instructions = list(compiled.instructions)
    instructions[1] = Instruction(
        variable_index=instructions[1].variable_index,
        on_zero=instructions[1].on_zero,
        on_one=scaled,
    )
    return QuantumBranchingProgram(
        dimension=compiled.dimension,
        arity=compiled.arity,
        instructions=tuple(instructions),
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        post_transform=compiled.post_transform,
    )


def test_non_unitary_block_shows_in_norm_drift():
    program = scaled_block_program()
    bits = all_inputs(4)
    _, drift = sweep_accept_probabilities(program, bits)
    assert drift > 1e-6
    with pytest.raises(ArithmeticError):
        run(program, [1, 1, 1, 1])
    with pytest.raises(ArithmeticError):
        accept_probability(program, [1, 1, 1, 1])


def ry(theta: float) -> np.ndarray:
    """Rotation by theta about the Bloch-sphere y axis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


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
        np.testing.assert_allclose(
            _block_diagonal(instruction.on_one), expected, rtol=0, atol=1e-15
        )
    characteristic = Characteristic(
        modulus=modulus,
        arity=2,
        polynomials=(polynomial, draw_polynomial(data, modulus, 2)),
    )
    general = compile_general(characteristic, good_set).program
    for j, instruction in enumerate(general.instructions, start=1):
        coefficients = tuple(p.coefficients[j] for p in characteristic.polynomials)
        expected = reference_branch_block(good_set, coefficients, 2.0 * math.pi)
        np.testing.assert_allclose(
            _block_diagonal(instruction.on_one), expected, rtol=0, atol=1e-15
        )
    expected = reference_branch_block(
        good_set, tuple(p.coefficients[0] for p in characteristic.polynomials), 2.0 * math.pi
    )
    np.testing.assert_allclose(
        _block_diagonal(general.post_transform), expected, rtol=0, atol=1e-15
    )


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


# Exhaustive chunks of a program that reads x_1..x_n in order share their
# leading reads; the sweep runs those once and doubles the state columns at
# the rest.  Every case is held against run and against the tile loop on the
# same rows in shuffled order, which the prefix path never takes.


def assert_prefix_path_matches(
    program: QuantumBranchingProgram,
    bits: np.ndarray,
    doublings: int | None,
    check_norm: bool = True,
) -> tuple[float, float]:
    """The sweep's path (doublings None: the tile loop) and its agreement with
    run and the shuffled tile loop; returns both drifts."""
    assert _enumeration_doublings(program, bits) == doublings
    swept, drift = sweep_accept_probabilities(program, bits)
    np.testing.assert_allclose(
        swept, dense_probabilities(program, bits, check_norm), rtol=0, atol=DENSE_TOL
    )
    count = bits.shape[0]
    order = np.random.default_rng(count).permutation(count)
    if np.array_equal(order, np.arange(count)):
        order = order[::-1]
    tile_drift = drift
    if count > 1:
        assert _enumeration_doublings(program, bits[order]) is None
        shuffled, tile_drift = sweep_accept_probabilities(program, bits[order])
        np.testing.assert_allclose(shuffled, swept[order], rtol=0, atol=1e-14)
    return drift, tile_drift


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prefix_sweep_matches_run_and_the_tile_loop(data):
    modulus = data.draw(MODULI)
    arity = data.draw(st.integers(min_value=1, max_value=6))
    good_set = draw_good_set(data, modulus)
    count = data.draw(st.integers(min_value=1, max_value=2))
    polynomials = tuple(draw_polynomial(data, modulus, arity) for _ in range(count))
    if data.draw(st.booleans()):
        program = compile_single(polynomials[0], good_set).program
    else:
        characteristic = Characteristic(modulus=modulus, arity=arity, polynomials=polynomials)
        program = compile_general(characteristic, good_set).program
    doublings = data.draw(st.integers(min_value=1, max_value=arity))
    block = data.draw(st.integers(min_value=0, max_value=(1 << (arity - doublings)) - 1))
    bits = input_block(arity, block << doublings, (block + 1) << doublings)
    # One, two or every read per group of doublings.
    tile_entries = data.draw(
        st.sampled_from([program.dimension, 4 * program.dimension, programs._TILE_ENTRIES])
    )
    with mock.patch.object(programs, "_TILE_ENTRIES", tile_entries):
        drift, tile_drift = assert_prefix_path_matches(program, bits, doublings)
    assert max(drift, tile_drift) <= 1e-9


@pytest.mark.parametrize("start, stop", [(0, 64), (0, 16), (48, 64), (40, 48), (6, 8)])
def test_aligned_blocks_from_zero_and_elsewhere_take_the_prefix_path(start, stop):
    good_set, _ = sample_good(0.3, 5, seed=4)
    single = compile_single(mod_polynomial(6, 5), good_set).program
    other = LinearPolynomial(modulus=5, arity=6, coefficients=(1, 0, 2, 0, 3, 0, 4))
    characteristic = Characteristic(modulus=5, arity=6, polynomials=(mod_polynomial(6, 5), other))
    general = compile_general(characteristic, good_set).program
    doublings = (stop - start).bit_length() - 1
    for program in (single, general):
        with mock.patch.object(programs, "_TILE_ENTRIES", 2 * program.dimension):
            assert_prefix_path_matches(program, input_block(6, start, stop), doublings)
        assert_prefix_path_matches(program, input_block(6, start, stop), doublings)


def test_unaligned_one_row_and_empty_batches_take_the_tile_loop():
    good_set, _ = sample_good(0.3, 5, seed=4)
    program = compile_single(mod_polynomial(6, 5), good_set).program
    for start, stop in ((5, 6), (0, 1), (4, 12), (0, 3), (8, 13)):
        assert_prefix_path_matches(program, input_block(6, start, stop), None)
    # The last two bits run through 00..11, but the leading bits differ.
    rows = input_block(6, 0, 64)[[0, 1, 14, 15]]
    assert_prefix_path_matches(program, rows, None)
    empty = np.zeros((0, 6), dtype=np.uint8)
    assert _enumeration_doublings(program, empty) is None
    probabilities, drift = sweep_accept_probabilities(program, empty)
    assert probabilities.shape == (0,) and drift == 0.0


def test_prefix_path_applies_non_identity_on_zero():
    compiled, program = non_identity_on_zero_program()
    for start, stop in ((0, 32), (8, 16), (20, 24)):
        assert_prefix_path_matches(program, input_block(5, start, stop), (stop - start).bit_length() - 1)
    # The shared reads with bit 0 apply U(0) too: rows 16..23 differ from the
    # identity-U(0) program.
    bits = input_block(5, 16, 24)
    assert np.max(np.abs(
        sweep_accept_probabilities(program, bits)[0] - sweep_accept_probabilities(compiled, bits)[0]
    )) > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_path_on_a_complex_dense_program(seed):
    rng = np.random.default_rng(seed)
    d, arity = 6, 5
    state = rng.normal(size=d) + 1j * rng.normal(size=d)
    instructions = tuple(
        Instruction(
            variable_index=j,
            on_zero=random_unitary(rng, d),
            on_one=random_unitary(rng, d),
        )
        for j in range(1, arity + 1)
    )
    # A random input-independent first step, folded into the initial state.
    initial_state = random_unitary(rng, d) @ state / np.linalg.norm(state)
    program = QuantumBranchingProgram(
        dimension=d,
        arity=arity,
        instructions=instructions,
        initial_state=initial_state,
        accepting=(0, 3),
        post_transform=random_unitary(rng, d),
    )
    assert program.initial_state.dtype == np.complex128
    for start, stop in ((0, 32), (16, 24), (30, 32)):
        with mock.patch.object(programs, "_TILE_ENTRIES", 4 * d):
            assert_prefix_path_matches(program, input_block(arity, start, stop), (stop - start).bit_length() - 1)


@pytest.mark.parametrize(
    "start, stop, doublings", [(4, 8, 2), (0, 8, 3), (8, 16, 3), (0, 16, 4)]
)
def test_scaled_block_shows_in_the_prefix_drift(start, stop, doublings):
    # Rows 4..7 share x_2 = 1, so the scaled read is one of the shared reads;
    # in the other blocks it doubles the columns.
    program = scaled_block_program()
    drift, tile_drift = assert_prefix_path_matches(
        program, input_block(4, start, stop), doublings, check_norm=False
    )
    assert drift > 1e-6
    assert drift == pytest.approx(tile_drift, rel=1e-9)


def test_prefix_drift_sees_states_that_later_steps_undo():
    stretch = np.diag([1.01, 1.0])
    shrink = np.linalg.inv(stretch)
    start = np.array([1.0, 0.0])
    # Every U(0) and U(1) of read 2 undoes read 1, so only the states in
    # between drift; read 3 changes nothing.  Then a post-transform undoes
    # the last read.
    undone_by_a_read = QuantumBranchingProgram(
        dimension=2,
        arity=3,
        instructions=(
            Instruction(variable_index=1, on_zero=stretch, on_one=stretch),
            Instruction(variable_index=2, on_zero=shrink, on_one=shrink),
            Instruction(variable_index=3, on_zero=np.eye(2), on_one=np.eye(2)),
        ),
        initial_state=start,
        accepting=(0,),
    )
    undone_by_the_post_transform = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(Instruction(variable_index=1, on_zero=stretch, on_one=stretch),),
        initial_state=start,
        accepting=(0,),
        post_transform=shrink,
    )
    cases = (
        (undone_by_a_read, all_inputs(3), 3),
        (undone_by_a_read, input_block(3, 4, 6), 1),  # reads 1 and 2 shared
        (undone_by_the_post_transform, all_inputs(1), 1),
    )
    for program, bits, doublings in cases:
        drift, tile_drift = assert_prefix_path_matches(
            program, bits, doublings, check_norm=False
        )
        np.testing.assert_allclose(
            sweep_accept_probabilities(program, bits)[0], 1.0, rtol=0, atol=DENSE_TOL
        )
        assert drift == pytest.approx(0.01)
        assert tile_drift == pytest.approx(0.01)


def test_other_read_orders_fall_back_to_the_tile_loop():
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(5, 3), good_set).program
    fields = dict(
        dimension=compiled.dimension,
        arity=compiled.arity,
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        post_transform=compiled.post_transform,
    )
    reversed_order = QuantumBranchingProgram(
        instructions=compiled.instructions[::-1], **fields
    )
    read_twice = QuantumBranchingProgram(
        instructions=compiled.instructions + compiled.instructions[:1], **fields
    )
    skips_a_variable = QuantumBranchingProgram(instructions=compiled.instructions[1:], **fields)
    for program in (reversed_order, read_twice, skips_a_variable):
        for start, stop in ((0, 32), (8, 16)):
            assert_prefix_path_matches(program, input_block(5, start, stop), None)


def per_row_closed_forms(characteristic: Characteristic, good_set: GoodSet, bits: np.ndarray):
    """The closed forms with one cosine per row and parameter, as they were
    computed before residue tables."""
    single = _cosine_kernel(evaluate_linear_batch(characteristic.polynomials[0], bits), good_set)
    product = np.ones((bits.shape[0], good_set.size), dtype=np.float64)
    for polynomial in characteristic.polynomials:
        values = evaluate_linear_batch(polynomial, bits)
        product *= np.cos(math.pi * _residue_products(values, good_set)) ** 2
    return single, np.mean(product, axis=1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_residue_table_closed_forms_equal_the_per_row_formula(data):
    modulus = data.draw(MODULI)
    arity = data.draw(st.integers(min_value=1, max_value=7))
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
    bits = bits[np.random.default_rng(arity).integers(0, bits.shape[0], size=3 * bits.shape[0])]
    single, general = per_row_closed_forms(characteristic, good_set, bits)
    assert np.array_equal(closed_form_single_batch(polynomials[0], good_set, bits), single)
    assert np.array_equal(closed_form_general_batch(characteristic, good_set, bits), general)


@pytest.mark.parametrize("modulus", [3**9, 2**61 + 1], ids=["int64", "object"])
def test_residue_table_closed_forms_on_both_residue_dtypes(modulus):
    coefficients = tuple(7**j % modulus for j in range(11))
    polynomial = LinearPolynomial(modulus=modulus, arity=10, coefficients=coefficients)
    characteristic = Characteristic(
        modulus=modulus, arity=10, polynomials=(polynomial, mod_polynomial(10, modulus))
    )
    parameters = np.random.default_rng(4).integers(0, min(modulus, 2**62), size=64).tolist()
    good_set = GoodSet(modulus=modulus, error_rate=0.3, parameters=tuple(parameters))
    bits = all_inputs(10)
    expected_dtype = np.int64 if modulus < 2**32 else object
    assert evaluate_linear_batch(polynomial, bits).dtype == expected_dtype
    single, general = per_row_closed_forms(characteristic, good_set, bits)
    assert np.array_equal(closed_form_single_batch(polynomial, good_set, bits), single)
    assert np.array_equal(closed_form_general_batch(characteristic, good_set, bits), general)
