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

import dataclasses
import json
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
from qobdd.hsf import FiniteGroup, HSFInstance, compile_hsf, cyclic_subgroup
from qobdd.goodsets import (
    GoodSet,
    _cosine_kernel,
    _nonzero_residues,
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
    accept_probability,
    program_from_json_dict,
    program_to_json_dict,
    sweep_accept_probabilities,
)
from qobdd.verification import input_block, sampled_inputs
from reference import _block_diagonal, all_inputs, closed_form_general_product, cosine_sum, run

DENSE_TOL = 1e-12
CLOSED_FORM_TOL = 1e-9
# The generalized closed form against its per-branch products: the spectrum's
# FFT error is about log2(m) roundings of the largest histogram entry over t,
# so a one-parameter set drawn here may differ by more than the 1e-15 larger
# sets stay within (up to 1.2e-15 seen at m near 2^20 over 3,000 draws).
EXPANSION_TOL = 4e-15

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
    """The measurement of run()'s final state: |u.psi|^2 for u the uniform
    superposition of the accepting states when the program interferes, the
    squared norm of the projection onto them otherwise."""
    accepting = list(program.accepting)
    rows = [run(program, row, check_norm)[accepting] for row in bits]
    if program.interfere:
        return np.array([abs(np.sum(row)) ** 2 / len(accepting) for row in rows])
    return np.array([np.sum(np.abs(row) ** 2) for row in rows])


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


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    state = rng.normal(size=d)
    return state / np.linalg.norm(state)


@given(
    st.sampled_from([3, 4, 6]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_unstructured_program_takes_the_full_width_path(d, arity, seed, interfere):
    rng = np.random.default_rng(seed)
    instructions = tuple(
        Instruction(
            variable_index=int(rng.integers(1, arity + 1)),
            on_one=random_orthogonal(rng, d),
        )
        for _ in range(arity + 1)
    )
    accepting = tuple(sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)))
    program = QuantumBranchingProgram(
        dimension=d,
        arity=arity,
        instructions=instructions,
        initial_state=random_state(rng, d),
        accepting=accepting,
        interfere=interfere,
    )
    assert program.instructions[0].on_one.shape == (d, d)
    assert_matches_dense(program, all_inputs(arity))


def test_norm_drift_is_measured_after_every_read():
    stretch = np.diag([1.01, 1.0])
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(
            Instruction(variable_index=1, on_one=stretch),
            Instruction(variable_index=1, on_one=np.linalg.inv(stretch)),
        ),
        initial_state=np.array([1.0, 0.0]),
        accepting=(0,),
    )
    probabilities, drift = sweep_accept_probabilities(program, all_inputs(1))
    np.testing.assert_allclose(probabilities, [1.0, 1.0], rtol=0, atol=DENSE_TOL)
    assert drift == pytest.approx(0.01)


def test_a_program_without_reads_reports_its_initial_drift():
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(),
        initial_state=np.array([1.01, 0.0]),
        accepting=(0,),
    )
    probabilities, drift = sweep_accept_probabilities(program, all_inputs(1))
    np.testing.assert_allclose(probabilities, [1.0201, 1.0201], rtol=0, atol=DENSE_TOL)
    assert drift == pytest.approx(0.01)


def test_compiled_stacks_have_per_branch_block_sizes():
    good_set, _ = sample_good(0.2, 3, seed=0)
    t = good_set.size
    single = compile_single(mod_polynomial(6, 3), good_set).program
    for instruction in single.instructions:
        assert instruction.on_one.shape == (t, 2, 2)
        assert instruction.on_one.dtype == np.float64
    assert single.interfere
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
        assert not program.interfere
        assert program.initial_state.dtype == np.float64


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
    instructions[1] = Instruction(variable_index=instructions[1].variable_index, on_one=scaled)
    return QuantumBranchingProgram(
        dimension=compiled.dimension,
        arity=compiled.arity,
        instructions=tuple(instructions),
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        interfere=compiled.interfere,
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
    return np.array([[c, -s], [s, c]])


def uniform_branches(t: int, size: int) -> np.ndarray:
    """Amplitude 1/sqrt(t) on the first basis state of each of t branches."""
    state = np.zeros(t * size)
    state[::size] = 1.0 / math.sqrt(t)
    return state


def reference_branch_block(good_set: GoodSet, coefficients, angle_numerator: float) -> np.ndarray:
    """The per-branch loop the compiler used to run: one ry call per rotation."""
    m = good_set.modulus
    size = 2 ** len(coefficients)
    matrix = np.zeros((good_set.size * size, good_set.size * size))
    for i, k in enumerate(good_set.parameters):
        block = np.eye(1)
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
    expected = reference_branch_block(good_set, (polynomial.coefficients[0],), 4.0 * math.pi)
    np.testing.assert_allclose(
        single.initial_state, expected @ uniform_branches(good_set.size, 2), rtol=0, atol=1e-15
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
        general.initial_state, expected @ uniform_branches(good_set.size, 4), rtol=0, atol=1e-15
    )


def test_compiled_reads_store_no_identity_and_freeze_u1():
    good_set, _ = sample_good(0.2, 3, seed=0)
    program = compile_single(mod_polynomial(5, 3), good_set).program
    for instruction in program.instructions:
        assert [field.name for field in dataclasses.fields(instruction)] == ["variable_index", "on_one"]
        assert not instruction.on_one.flags.writeable
    assert not program.initial_state.flags.writeable


def reference_fingerprint_probabilities(
    characteristic: Characteristic, good_set: GoodSet, single: bool, bits: np.ndarray
) -> np.ndarray:
    """The fingerprinting circuit as the paper draws it: uniform branches and
    a per-branch R_y U(1) per read, run by run(); then the
    constant-coefficient rotation (and, for single, the dense Hadamard layer
    H^(x)l (x) I_2) as a trailing input-independent step, and the projection
    onto |0...0>|0> (single) or onto every branch's all-zero targets."""
    t, size = good_set.size, 2 ** len(characteristic)
    numerator = (4.0 if single else 2.0) * math.pi
    constants = reference_branch_block(
        good_set, tuple(p.coefficients[0] for p in characteristic.polynomials), numerator
    )
    trailing = constants
    if single:
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        layer = np.eye(1)
        for _ in range(t.bit_length() - 1):
            layer = np.kron(layer, h)
        trailing = np.kron(layer, np.eye(2)) @ constants
    instructions = tuple(
        Instruction(
            variable_index=j,
            on_one=reference_branch_block(
                good_set, tuple(p.coefficients[j] for p in characteristic.polynomials), numerator
            ),
        )
        for j in range(1, characteristic.arity + 1)
    )
    reads = QuantumBranchingProgram(
        dimension=t * size,
        arity=characteristic.arity,
        instructions=instructions,
        initial_state=uniform_branches(t, size),
        accepting=(0,),
    )
    finals = np.array([trailing @ run(reads, row) for row in bits])
    accepting = [0] if single else list(range(0, t * size, size))
    return np.sum(finals[:, accepting] ** 2, axis=1)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_program_is_the_circuit_with_trailing_constants(data):
    # The compiler starts each branch in its constant rotation; rotations
    # about one axis commute, so this is the circuit that rotates the
    # constants in after the reads.
    modulus = data.draw(MODULI)
    arity = data.draw(st.integers(min_value=1, max_value=6))
    good_set = draw_good_set(data, modulus)
    single = data.draw(st.booleans())
    count = 1 if single else data.draw(st.integers(min_value=1, max_value=3))
    characteristic = Characteristic(
        modulus=modulus,
        arity=arity,
        polynomials=tuple(draw_polynomial(data, modulus, arity) for _ in range(count)),
    )
    if single:
        compiled = compile_single(characteristic.polynomials[0], good_set).program
    else:
        compiled = compile_general(characteristic, good_set).program
    bits = all_inputs(arity)
    np.testing.assert_allclose(
        sweep_accept_probabilities(compiled, bits)[0],
        reference_fingerprint_probabilities(characteristic, good_set, single, bits),
        rtol=0,
        atol=DENSE_TOL,
    )
    loaded = program_from_json_dict(json.loads(json.dumps(program_to_json_dict(compiled))))
    for ours, theirs in zip(loaded.instructions, compiled.instructions):
        assert np.array_equal(ours.on_one, theirs.on_one)
    assert loaded.interfere == compiled.interfere == single


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
        value = closed_form_single(polynomial, good_set, bits)
        assert value == _cosine_kernel(_nonzero_residues(good_set, residue), good_set)[0]
        assert value == pytest.approx(cosine_sum(good_set, residue), abs=1e-12)


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


# Every batch is sorted on its read values, and the reads all its rows share
# run once, on one column.  A batch that holds every bit pattern of the
# remaining reads doubles the column at each of them; any other batch goes
# through the sorted-prefix tiles.  Every case is held against run and
# against the tiles on the same rows plus one duplicate row, shuffled: that
# batch is incomplete, so it never doubles.


def swept_path(
    program: QuantumBranchingProgram, bits: np.ndarray
) -> tuple[np.ndarray, float, int | None]:
    """The sweep of bits, its drift, and its path: the number of reads it
    doubled (0 when it reached neither kernel), or None when it swept tiles."""
    with mock.patch.object(
        programs, "_completions", wraps=programs._completions
    ) as completions, mock.patch.object(
        programs, "_sweep_sorted_tile", wraps=programs._sweep_sorted_tile
    ) as tiles:
        swept, drift = sweep_accept_probabilities(program, bits)
    assert not (completions.called and tiles.called)
    if tiles.called:
        return swept, drift, None
    if completions.called:
        groups = completions.call_args_list[0].args[2]
        return swept, drift, sum(len(group) for group in groups)
    return swept, drift, 0


def assert_prefix_path_matches(
    program: QuantumBranchingProgram,
    bits: np.ndarray,
    doublings: int | None,
    check_norm: bool = True,
) -> tuple[float, float]:
    """The sweep's path (see swept_path) and its agreement with run and with
    the tiles on the rows plus a duplicate, shuffled; returns both drifts."""
    swept, drift, path = swept_path(program, bits)
    assert path == doublings
    np.testing.assert_allclose(
        swept, dense_probabilities(program, bits, check_norm), rtol=0, atol=DENSE_TOL
    )
    count = bits.shape[0]
    order = np.random.default_rng(count).permutation(count + 1)
    sorted_drift = drift
    if doublings != 0:
        rows = np.concatenate([bits, bits[:1]])[order]
        shuffled, sorted_drift, path = swept_path(program, rows)
        assert path is None
        np.testing.assert_allclose(shuffled, np.append(swept, swept[0])[order], rtol=0, atol=1e-14)
    return drift, sorted_drift


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_prefix_sweep_matches_run_and_the_sorted_prefix_sweep(data):
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
        drift, sorted_drift = assert_prefix_path_matches(program, bits, doublings)
    assert max(drift, sorted_drift) <= 1e-9


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


def test_unaligned_one_row_and_empty_batches_skip_the_prefix_path():
    good_set, _ = sample_good(0.3, 5, seed=4)
    program = compile_single(mod_polynomial(6, 5), good_set).program
    # A single row shares every read: it reaches neither kernel.
    for start, stop in ((5, 6), (0, 1)):
        assert_prefix_path_matches(program, input_block(6, start, stop), 0)
    for start, stop in ((4, 12), (0, 3), (8, 13)):
        assert_prefix_path_matches(program, input_block(6, start, stop), None)
    # The last two bits run through 00..11, but the leading bits differ.
    rows = input_block(6, 0, 64)[[0, 1, 14, 15]]
    assert_prefix_path_matches(program, rows, None)
    empty = np.zeros((0, 6), dtype=np.uint8)
    probabilities, drift, path = swept_path(program, empty)
    assert probabilities.shape == (0,) and drift == 0.0 and path == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_path_on_a_dense_program(seed):
    rng = np.random.default_rng(seed)
    d, arity = 6, 5
    instructions = tuple(
        Instruction(variable_index=j, on_one=random_orthogonal(rng, d))
        for j in range(1, arity + 1)
    )
    program = QuantumBranchingProgram(
        dimension=d,
        arity=arity,
        instructions=instructions,
        initial_state=random_state(rng, d),
        accepting=(0, 3),
        interfere=seed % 2 == 0,
    )
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
    drift, sorted_drift = assert_prefix_path_matches(
        program, input_block(4, start, stop), doublings, check_norm=False
    )
    assert drift > 1e-6
    assert drift == pytest.approx(sorted_drift, rel=1e-9)


def test_prefix_drift_sees_states_that_later_steps_undo():
    stretch = np.diag([1.01, 1.0])
    shrink = np.linalg.inv(stretch)
    start = np.array([1.0, 0.0])
    # Read 2 reads x_1 again and undoes read 1, so only the states in
    # between drift; reads 3 and 4 change nothing.
    undone_by_a_read = QuantumBranchingProgram(
        dimension=2,
        arity=3,
        instructions=(
            Instruction(variable_index=1, on_one=stretch),
            Instruction(variable_index=1, on_one=shrink),
            Instruction(variable_index=2, on_one=np.eye(2)),
            Instruction(variable_index=3, on_one=np.eye(2)),
        ),
        initial_state=start,
        accepting=(0,),
    )
    cases = (
        # x_1 differs between rows: the tiles see the stretched states.
        (undone_by_a_read, all_inputs(3), None),
        (undone_by_a_read, input_block(3, 4, 8), 2),  # reads 1 and 2 shared
    )
    for program, bits, doublings in cases:
        drift, sorted_drift = assert_prefix_path_matches(
            program, bits, doublings, check_norm=False
        )
        np.testing.assert_allclose(
            sweep_accept_probabilities(program, bits)[0], 1.0, rtol=0, atol=DENSE_TOL
        )
        assert drift == pytest.approx(0.01)
        assert sorted_drift == pytest.approx(0.01)


def test_other_read_orders_double_or_take_the_tiles():
    good_set, _ = sample_good(0.2, 3, seed=0)
    compiled = compile_single(mod_polynomial(5, 3), good_set).program
    fields = dict(
        dimension=compiled.dimension,
        arity=compiled.arity,
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        interfere=compiled.interfere,
    )
    reversed_order = QuantumBranchingProgram(
        instructions=compiled.instructions[::-1], **fields
    )
    read_twice = QuantumBranchingProgram(
        instructions=compiled.instructions + compiled.instructions[:1], **fields
    )
    skips_a_variable = QuantumBranchingProgram(instructions=compiled.instructions[1:], **fields)
    cases = (
        # Rows 8..15 share x_1 and x_2, which the reversed order reads last.
        (reversed_order, 0, 32, 5),
        (reversed_order, 8, 16, None),
        # A variable read twice repeats a read value, so no batch holds every
        # pattern of the reads.
        (read_twice, 0, 32, None),
        (read_twice, 8, 16, None),
        # x_1 is never read, so rows 0..31 repeat each read pattern twice;
        # rows 8..15 share x_2 and run through every pattern of x_3..x_5.
        (skips_a_variable, 0, 32, None),
        (skips_a_variable, 8, 16, 3),
    )
    for program, start, stop, doublings in cases:
        assert_prefix_path_matches(program, input_block(5, start, stop), doublings)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exhaustive_batch_under_a_permuted_read_order_doubles(seed):
    good_set, _ = sample_good(0.3, 5, seed=4)
    characteristic = Characteristic(
        modulus=5,
        arity=6,
        polynomials=(
            mod_polynomial(6, 5),
            LinearPolynomial(modulus=5, arity=6, coefficients=(1, 0, 2, 0, 3, 0, 4)),
        ),
    )
    compiled = compile_general(characteristic, good_set).program
    order = np.random.default_rng(seed).permutation(6)
    program = QuantumBranchingProgram(
        dimension=compiled.dimension,
        arity=compiled.arity,
        instructions=tuple(compiled.instructions[i] for i in order),
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        interfere=compiled.interfere,
    )
    assert_prefix_path_matches(program, all_inputs(6), 6)
    # Rows sharing the first read's variable share one read and double the rest.
    first = compiled.instructions[order[0]].variable_index
    half = all_inputs(6)[all_inputs(6)[:, first - 1] == 1]
    assert_prefix_path_matches(program, half, 5)


def test_shuffled_complete_batch_gives_the_ordered_batch_probabilities_exactly():
    good_set, _ = sample_good(0.3, 5, seed=4)
    program = compile_single(mod_polynomial(6, 5), good_set).program
    for bits in (all_inputs(6), input_block(6, 16, 32)):
        ordered, ordered_drift, path = swept_path(program, bits)
        order = np.random.default_rng(1).permutation(bits.shape[0])
        shuffled, shuffled_drift, shuffled_path = swept_path(program, bits[order])
        assert path == shuffled_path == (bits.shape[0]).bit_length() - 1
        assert np.array_equal(shuffled, ordered[order])
        assert shuffled_drift == ordered_drift


def test_identical_rows_match_run():
    # k copies of one row share every read, so they reach neither kernel,
    # past the 64-read sort key as well.
    good_set, _ = sample_good(0.3, 3, seed=1)
    rng = np.random.default_rng(3)
    for arity in (6, 70):
        program = compile_single(mod_polynomial(arity, 3), good_set).program
        row = rng.integers(0, 2, size=arity, dtype=np.uint8)
        for k in (1, 2, 5):
            bits = np.tile(row, (k, 1))
            drift, _ = assert_prefix_path_matches(program, bits, 0)
            assert drift <= 1e-9


def per_row_closed_forms(characteristic: Characteristic, good_set: GoodSet, bits: np.ndarray):
    """The closed forms with one cosine per row and parameter: the single
    form as it was computed before residue tables, the generalized one as
    the per-branch products (reference.closed_form_general_product)."""
    single = _cosine_kernel(evaluate_linear_batch(characteristic.polynomials[0], bits), good_set)
    return single, closed_form_general_product(characteristic, good_set, bits)


def assert_general_near_products(characteristic: Characteristic, good_set: GoodSet, bits, expected):
    # The spectrum sum and the per-branch products round differently.
    np.testing.assert_allclose(
        closed_form_general_batch(characteristic, good_set, bits), expected, rtol=0, atol=EXPANSION_TOL
    )


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
    assert_general_near_products(characteristic, good_set, bits, general)


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
    assert_general_near_products(characteristic, good_set, bits, general)


# A batch that does not hold every pattern of its unshared reads is swept in
# tiles of sorted rows, each keeping one state column per distinct read
# prefix.  These cases hold the driver against run on programs, read orders
# and batches the compiler never produces, whichever path they take.


def rewired_program(data, compiled: QuantumBranchingProgram) -> QuantumBranchingProgram:
    """The compiled reads in a drawn order, some of them repeated, each
    variable optionally reading another read's U(1)."""
    reads = list(compiled.instructions)
    order = data.draw(st.permutations(range(len(reads))))
    repeats = data.draw(st.lists(st.sampled_from(range(len(reads))), max_size=3))
    chosen = [reads[i] for i in list(order) + repeats]
    swap_one = data.draw(st.booleans())
    return QuantumBranchingProgram(
        dimension=compiled.dimension,
        arity=compiled.arity,
        instructions=tuple(
            Instruction(
                variable_index=instruction.variable_index,
                on_one=chosen[(step + 1) % len(chosen)].on_one if swap_one else instruction.on_one,
            )
            for step, instruction in enumerate(chosen)
        ),
        initial_state=compiled.initial_state,
        accepting=compiled.accepting,
        interfere=compiled.interfere,
    )


def random_dense_program(
    rng: np.random.Generator, d: int, arity: int, length: int, interfere: bool = False
):
    """Dense orthogonal reads of random variables, repeats included, and a
    random nonempty accepting set."""
    accepting = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
    return QuantumBranchingProgram(
        dimension=d,
        arity=arity,
        instructions=tuple(
            Instruction(
                variable_index=int(rng.integers(1, arity + 1)),
                on_one=random_orthogonal(rng, d),
            )
            for _ in range(length)
        ),
        initial_state=random_state(rng, d),
        accepting=tuple(int(i) for i in accepting),
        interfere=interfere,
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sorted_prefix_sweep_matches_run(data):
    arity = data.draw(st.integers(min_value=1, max_value=6))
    kind = data.draw(st.sampled_from(["single", "general", "dense"]))
    if kind == "dense":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        program = random_dense_program(
            rng, data.draw(st.sampled_from([2, 3, 4])), arity, 2 * arity, data.draw(st.booleans())
        )
    else:
        modulus = data.draw(MODULI)
        good_set = draw_good_set(data, modulus)
        polynomials = tuple(
            draw_polynomial(data, modulus, arity) for _ in range(data.draw(st.integers(1, 2)))
        )
        if kind == "single":
            compiled = compile_single(polynomials[0], good_set).program
        else:
            characteristic = Characteristic(modulus=modulus, arity=arity, polynomials=polynomials)
            compiled = compile_general(characteristic, good_set).program
        program = rewired_program(data, compiled) if data.draw(st.booleans()) else compiled
    # Rows drawn with replacement from a few inputs, so duplicates are common.
    pool = all_inputs(arity)[: data.draw(st.integers(min_value=1, max_value=1 << arity))]
    picks = data.draw(st.lists(st.integers(0, pool.shape[0] - 1), max_size=40))
    if data.draw(st.booleans()):
        picks = picks[:2]
    bits = pool[picks].reshape(len(picks), arity)
    tile_entries = data.draw(
        st.sampled_from([program.dimension, 4 * program.dimension, programs._TILE_ENTRIES])
    )
    with mock.patch.object(programs, "_TILE_ENTRIES", tile_entries):
        swept, drift = sweep_accept_probabilities(program, bits)
    np.testing.assert_allclose(swept, dense_probabilities(program, bits), rtol=0, atol=DENSE_TOL)
    assert swept.shape == (len(picks),)
    assert drift <= 1e-9


@pytest.mark.parametrize("tile_factor", [1, 4, None])
def test_sorted_prefix_sweep_past_the_sort_key(tile_factor):
    # 70 reads: the rows are sorted on their first 64 only.  Some rows agree
    # on those 64 and differ after them, some repeat, and a read-twice dense
    # program reads variables out of order past the key as well.
    rng = np.random.default_rng(5)
    good_set, _ = sample_good(0.3, 3, seed=1)
    compiled = compile_single(mod_polynomial(70, 3), good_set).program
    dense = random_dense_program(rng, 2, 6, 70)
    base = rng.integers(0, 2, size=(6, 70), dtype=np.uint8)
    tails = base[[0, 0, 1, 1, 2]].copy()
    tails[:, 64:] = rng.integers(0, 2, size=(5, 6), dtype=np.uint8)
    bits = np.concatenate([base, tails, base[[3, 3]]])[rng.permutation(13)]
    # Rows that agree on their first 66 reads share them all, past the key:
    # each tile starts at read 66.
    agree = np.tile(base[4], (16, 1))
    agree[:, 66:] = all_inputs(4)
    cases = ((compiled, bits, 0), (dense, bits[:, :6], 0), (compiled, agree, 66))
    for program, rows, start in cases:
        tile = programs._TILE_ENTRIES if tile_factor is None else tile_factor * program.dimension
        with mock.patch.object(programs, "_TILE_ENTRIES", tile), mock.patch.object(
            programs, "_sweep_sorted_tile", wraps=programs._sweep_sorted_tile
        ) as tiles:
            swept, drift = sweep_accept_probabilities(program, rows)
        assert {call.args[2] for call in tiles.call_args_list} == {start}
        np.testing.assert_allclose(swept, dense_probabilities(program, rows), rtol=0, atol=DENSE_TOL)
        assert drift <= 1e-9


def test_sorted_prefix_sweep_shares_read_prefixes():
    # Inputs 0..47 of n = 6 in shuffled order, an incomplete batch: read k
    # acts on one column per distinct prefix of k + 1 bits whose bit k is 1,
    # 1 + 1 + 3 + 6 + 12 + 24 = 47 columns in all instead of 6 * 48 = 288.
    good_set, _ = sample_good(0.3, 5, seed=4)
    program = compile_single(mod_polynomial(6, 5), good_set).program
    bits = input_block(6, 0, 48)[np.random.default_rng(0).permutation(48)]
    columns = []
    apply_blocks = programs._apply_blocks

    def counted(stack, states, out=None):
        columns.append(states.shape[1])
        return apply_blocks(stack, states, out=out)

    with mock.patch.object(programs, "_apply_blocks", counted):
        swept, _ = sweep_accept_probabilities(program, bits)
    assert sum(columns) == 47
    np.testing.assert_allclose(swept, dense_probabilities(program, bits), rtol=0, atol=DENSE_TOL)


def test_one_row_batches_do_no_sort_or_prefix_work():
    good_set, _ = sample_good(0.3, 5, seed=4)
    program = compile_single(mod_polynomial(6, 5), good_set).program
    rows = input_block(6, 0, 64)[[5, 42]]
    with mock.patch.object(
        programs, "_completions", side_effect=AssertionError
    ), mock.patch.object(programs, "_sweep_sorted_tile", side_effect=AssertionError):
        for row in rows:
            swept, _ = sweep_accept_probabilities(program, row[None, :])
            assert swept[0] == pytest.approx(dense_probabilities(program, row[None, :])[0], abs=DENSE_TOL)
            assert accept_probability(program, row.tolist()) == swept[0]


def test_sorted_prefix_sweep_shares_equal_rows_past_the_sort_key():
    # Two pairs of equal rows over 70 reads that agree on their first 66:
    # each pair splits from the other at read 66, past the 64-read key, and
    # each row equal to the one before it keeps sharing its column.
    good_set, _ = sample_good(0.3, 3, seed=1)
    program = compile_single(mod_polynomial(70, 3), good_set).program
    row = np.random.default_rng(8).integers(0, 2, size=70, dtype=np.uint8)
    row[66:] = 1
    other = row.copy()
    other[66] = 0
    bits = np.stack([row, row, other, other])
    columns = []
    apply_blocks = programs._apply_blocks

    def counted(stack, states, out=None):
        columns.append(states.shape[1])
        return apply_blocks(stack, states, out=out)

    with mock.patch.object(programs, "_apply_blocks", counted), mock.patch.object(
        programs, "_sweep_sorted_tile", wraps=programs._sweep_sorted_tile
    ) as tiles:
        swept, drift = sweep_accept_probabilities(program, bits)
    assert [call.args[2] for call in tiles.call_args_list] == [66]
    assert max(columns) == 2
    np.testing.assert_allclose(swept, dense_probabilities(program, bits), rtol=0, atol=DENSE_TOL)
    assert drift <= 1e-9


def test_tile_reads_apply_u1_to_the_one_children_alone():
    # The benchmark's sampled PERM_4 batch: each read after the shared ones
    # applies U(1) to one column per distinct prefix through it, in its tile,
    # whose last bit is 1; each shared read that is 1 to the one column.
    # The count is taken from the sorted read values alone.
    program = benchmark_program("perm4")
    bits = sampled_inputs(16, 4096, 7)
    reads = bits[:, [instruction.variable_index - 1 for instruction in program.instructions]]
    reads = reads[np.lexsort(reads.T[::-1])]
    shared = int(np.append((reads == reads[0]).all(axis=0), False).argmin())
    expected = int(reads[0, :shared].sum())
    tile, _ = programs._tiling(program.dimension)
    for first in range(0, len(reads), tile):
        for k in range(shared, reads.shape[1]):
            expected += int(np.unique(reads[first : first + tile, : k + 1], axis=0)[:, k].sum())
    columns = []
    apply_blocks = programs._apply_blocks

    def counted(stack, states, out=None):
        columns.append(states.shape[1])
        return apply_blocks(stack, states, out=out)

    with mock.patch.object(programs, "_apply_blocks", counted):
        swept, drift, path = swept_path(program, bits)
    assert path is None and program.dimension == 512 and len(reads) // tile == 16
    assert sum(columns) == expected
    assert drift <= 1e-12
    polynomial = perm_polynomial(4)
    good_set = sample(0.2, polynomial.modulus, seed=7)
    np.testing.assert_allclose(
        swept, closed_form_single_batch(polynomial, good_set, bits), rtol=0, atol=1e-12
    )


# An exhaustive chunk doubles its first group from the shared column; every
# later group doubles a whole batch of roots at once, so its products run on
# at least (tile >> g) columns, and each state is written once.


def benchmark_program(case: str) -> QuantumBranchingProgram:
    """The programs of the benchmark certifications, all of arity 16: the
    exhaustive HSF Z_8/<4> (d = 512) and MOD_3 at n = 16 (d = 64), and the
    sampled PERM_4 at epsilon 0.2 (d = 512)."""
    if case == "hsf-z8-4":
        instance = HSFInstance.create(FiniteGroup.cyclic(8), cyclic_subgroup(8, 4))
        return compile_hsf(instance, 0.25, seed=7).program
    if case == "perm4":
        polynomial = perm_polynomial(4)
        return compile_single(polynomial, sample(0.2, polynomial.modulus, seed=7)).program
    good_set, _ = sample_good(0.2, 3, seed=7)
    return compile_single(mod_polynomial(16, 3), good_set).program


@pytest.mark.parametrize("case, dimension", [("hsf-z8-4", 512), ("mod3-n16", 64)])
def test_doubling_runs_later_groups_on_whole_batches(case, dimension):
    program = benchmark_program(case)
    assert program.dimension == dimension
    # The last 8,192-row chunk: its three shared reads are all 1, and the
    # other 13 double.
    bits = input_block(16, 65536 - 8192, 65536)
    products = []
    apply_blocks = programs._apply_blocks

    def recorded(stack, states, out=None):
        products.append((states.shape[1], out))
        return apply_blocks(stack, states, out=out)

    with mock.patch.object(programs, "_apply_blocks", recorded), mock.patch.object(
        programs, "_completions", wraps=programs._completions
    ) as completions:
        swept, drift = sweep_accept_probabilities(program, bits)
    groups, buffers = completions.call_args_list[0].args[2:4]
    tile, _ = programs._tiling(program.dimension)
    assert len(groups) >= 2 and sum(map(len, groups)) == 13
    # The shared reads run on the one column, outside every buffer.
    assert [columns for columns, out in products if out is None] == [1, 1, 1]
    doubled = [
        (columns, next(k for k, buffer in enumerate(buffers) if np.shares_memory(out, buffer)))
        for columns, out in products
        if out is not None
    ]
    first = len(groups[0])
    assert [group for _, group in doubled[:first]] == [0] * first
    for columns, group in doubled[first:]:
        assert group >= 1 and columns >= tile >> len(groups[group])
    assert sum(columns for columns, _ in doubled) == (1 << 13) - 1
    # The same rows plus a duplicate take the tiles.
    tiled, tiled_drift = sweep_accept_probabilities(program, np.concatenate([bits, bits[:1]]))
    np.testing.assert_allclose(swept, tiled[:-1], rtol=0, atol=1e-14)
    assert max(drift, tiled_drift) <= 1e-12


@pytest.mark.parametrize("tile_factor", [4, 6, 8])
def test_doubling_through_three_or_more_groups_matches_run(tile_factor):
    # A tile of 4, 6 or 8 columns doubles 8 reads in groups of 2, 2 or 3
    # reads: 4, 4 and 3 groups, batches of 1 or 2 roots.  A 6-column tile
    # still doubles in 4-column buffers.
    good_set, _ = sample_good(0.3, 5, seed=4)
    other = LinearPolynomial(modulus=5, arity=8, coefficients=(1, 0, 2, 0, 3, 0, 4, 1, 2))
    characteristic = Characteristic(modulus=5, arity=8, polynomials=(mod_polynomial(8, 5), other))
    rng = np.random.default_rng(tile_factor)
    dense = QuantumBranchingProgram(
        dimension=6,
        arity=8,
        instructions=tuple(Instruction(j, random_orthogonal(rng, 6)) for j in range(1, 9)),
        initial_state=random_state(rng, 6),
        accepting=(0, 1, 3),
        interfere=True,
    )
    bits = all_inputs(8)
    for program in (
        compile_single(mod_polynomial(8, 5), good_set).program,
        compile_general(characteristic, good_set).program,
        dense,
    ):
        with mock.patch.object(
            programs, "_TILE_ENTRIES", tile_factor * program.dimension
        ), mock.patch.object(programs, "_completions", wraps=programs._completions) as completions:
            swept, drift = sweep_accept_probabilities(program, bits)
        groups = completions.call_args_list[0].args[2]
        assert len(groups) >= 3 and sum(map(len, groups)) == 8
        np.testing.assert_allclose(swept, dense_probabilities(program, bits), rtol=0, atol=DENSE_TOL)
        assert drift <= 1e-9


def test_doubling_drift_sees_first_group_states_that_later_groups_undo():
    # Read 1 stretches e_0 to 1.01 e_1 and read 2 shrinks it back, so the
    # only drifting state is the first group's product, which the second
    # group's buffer holds as a root.  A 2-column tile makes each read a
    # group of its own.
    program = QuantumBranchingProgram(
        dimension=2,
        arity=2,
        instructions=(
            Instruction(variable_index=1, on_one=np.array([[0.0, -1 / 1.01], [1.01, 0.0]])),
            Instruction(variable_index=2, on_one=np.diag([1.0, 1 / 1.01])),
        ),
        initial_state=np.array([1.0, 0.0]),
        accepting=(0,),
    )
    with mock.patch.object(programs, "_TILE_ENTRIES", 4), mock.patch.object(
        programs, "_completions", wraps=programs._completions
    ) as completions:
        drift, sorted_drift = assert_prefix_path_matches(
            program, all_inputs(2), 2, check_norm=False
        )
    assert [len(group) for group in completions.call_args_list[0].args[2]] == [1, 1]
    assert drift == pytest.approx(0.01)
    assert sorted_drift == pytest.approx(0.01)


def test_tile_drift_sees_a_stretched_state_that_later_reads_copy_as_a_zero_child():
    # The program above on three of its four inputs, so it takes the tiles.
    # Read 1 stretches e_0 to 1.01 e_1; input (1, 0) keeps that state as the
    # zero child of read 2, whose one children both have unit norm.
    # Every state a read produces is measured once: the initial column, the
    # one child of read 1, the two of read 2, and never the zero child.
    program = QuantumBranchingProgram(
        dimension=2,
        arity=2,
        instructions=(
            Instruction(variable_index=1, on_one=np.array([[0.0, -1 / 1.01], [1.01, 0.0]])),
            Instruction(variable_index=2, on_one=np.diag([1.0, 1 / 1.01])),
        ),
        initial_state=np.array([1.0, 0.0]),
        accepting=(0,),
    )
    bits = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
    measured = []
    norm_drift = programs._norm_drift

    def recorded(states):
        measured.append(states.shape[1])
        return norm_drift(states)

    with mock.patch.object(programs, "_norm_drift", recorded):
        swept, drift, path = swept_path(program, bits)
    assert path is None
    assert measured == [1, 1, 2]
    assert drift == pytest.approx(0.01)
    np.testing.assert_allclose(
        swept, dense_probabilities(program, bits, check_norm=False), rtol=0, atol=DENSE_TOL
    )


@pytest.mark.parametrize("case", ["mod3-n16", "hsf-z8-4"])
def test_exhaustive_sweep_peaks_within_its_buffer_count(case):
    program = benchmark_program(case)
    bits = input_block(16, 0, 8192)
    tracemalloc.start()
    try:
        sweep_accept_probabilities(program, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= programs.sweep_buffer_bytes(program.dimension, program.arity)


def test_tile_sweep_peaks_within_its_buffer_count():
    program = benchmark_program("perm4")
    bits = sampled_inputs(16, 4096, 7)
    tracemalloc.start()
    try:
        _, _, path = swept_path(program, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path is None
    assert peak <= programs.sweep_buffer_bytes(program.dimension, program.arity)


def test_evenly_spaced_accepting_rows_are_read_in_place():
    assert programs._accepting_rows((0, 4, 8, 12)) == slice(0, 13, 4)
    assert programs._accepting_rows((5,)) == slice(5, 6, 1)
    assert programs._accepting_rows((0, 1, 3)) == [0, 1, 3]
    assert programs._accepting_rows(()) == []
    good_set, _ = sample_good(0.3, 5, seed=4)
    program = compile_single(mod_polynomial(6, 5), good_set).program
    selector = programs._accepting_rows(program.accepting)
    states = np.random.default_rng(0).standard_normal((program.dimension, 5))
    assert isinstance(selector, slice)
    assert np.shares_memory(states[selector], states)
    for interfere in (False, True):
        variant = dataclasses.replace(program, interfere=interfere)
        assert np.array_equal(
            programs._accepted(variant, states, selector),
            programs._accepted(variant, states, list(program.accepting)),
        )
