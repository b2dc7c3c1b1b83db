"""Fingerprint compilation against closed forms and the one-sided contract."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from qobdd import compiler, goodsets
from qobdd.compiler import (
    _branch_stacks,
    check_budget,
    closed_form_general,
    closed_form_general_batch,
    closed_form_single,
    closed_form_single_batch,
    compile_general,
    compile_single,
    error_bound_general,
    recipe_from_json_dict,
    recipe_to_json_dict,
)
from qobdd.errors import InvalidErrorRateError, ModulusMismatchError, TooLargeError
from qobdd.goodsets import (
    GoodSet,
    _cosine_table,
    _residue_products,
    _spectrum,
    required_size,
    sample,
    sample_good,
    verify_exhaustive,
)
from qobdd.hsf import FiniteGroup, HSFInstance, cyclic_subgroup, hsf_characteristic
from qobdd.polynomials import (
    Characteristic,
    LinearPolynomial,
    eq_polynomial,
    mod_polynomial,
    palindrome_polynomial,
    perm_polynomial,
)
from qobdd.programs import (
    Instruction,
    accept_probability,
    metrics,
    sweep_accept_probabilities,
    sweep_buffer_bytes,
)
from qobdd.verification import input_block, sampled_inputs
from reference import (
    all_inputs,
    closed_form_general_product,
    cosine_sum,
    is_read_once,
    run,
    validate,
)


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
    assert program.accepting == tuple(range(0, 2 * t, 2))
    assert program.interfere
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
    chi = Characteristic(modulus=5, arity=3, polynomials=(poly, poly))
    general = compile_general(chi, good_set)
    for instruction in general.program.instructions:
        assert instruction.on_one.shape == (t, 4, 4)
    assert single.program.interfere and not general.program.interfere
    assert single.program.accepting == tuple(range(0, 2 * t, 2))
    assert general.program.accepting == tuple(range(0, 4 * t, 4))


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


def _hsf_source(order: int, generator: int) -> Characteristic:
    group = FiniteGroup.cyclic(order)
    return hsf_characteristic(HSFInstance.create(group, cyclic_subgroup(order, generator)))


def _per_read_blocks(
    good_set: GoodSet, coefficients: tuple[int, ...], angle_numerator: float
) -> np.ndarray:
    """The reference construction of one read's (t, b, b) stack, one
    residue-product call and one einsum per target: branch i's block is the
    tensor product over s of R_y(numer * (k_i c_s mod m) / m)."""
    t = good_set.size
    half_angles = angle_numerator * _residue_products(coefficients, good_set) / 2.0
    blocks = np.ones((t, 1, 1))
    for c, s in zip(np.cos(half_angles), np.sin(half_angles)):
        rotations = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
        size = 2 * blocks.shape[1]
        blocks = np.einsum("tij,tkl->tikjl", blocks, rotations).reshape(t, size, size)
    return blocks


def _three_polynomial_source() -> Characteristic:
    return Characteristic(
        modulus=7,
        arity=5,
        polynomials=(
            LinearPolynomial(7, 5, (1, 2, 3, 4, 5, 6)),
            LinearPolynomial(7, 5, (0, 1, 0, 6, 0, 1)),
            LinearPolynomial(7, 5, (3, 3, 3, 3, 3, 3)),
        ),
    )


@pytest.mark.parametrize("chunk_entries", [1, 3, None], ids=["one-read", "small", "default"])
@pytest.mark.parametrize(
    "source, epsilon",
    [
        pytest.param(mod_polynomial(8, 3), 0.2, id="mod3-n8"),
        pytest.param(eq_polynomial(40), 0.2, id="eq40-object"),
        pytest.param(_hsf_source(4, 2), 0.25, id="hsf-z4-2"),
        pytest.param(_three_polynomial_source(), 0.3, id="three-polynomials"),
    ],
)
def test_batched_stacks_equal_the_per_read_construction(monkeypatch, source, epsilon, chunk_entries):
    """The chunked stack build gives every read's stack and the initial
    state bit for bit as one residue-product call per read does, also when
    the reads cross chunk boundaries (chunk_entries counts reads' worth of
    block entries; None keeps the default)."""
    single = isinstance(source, LinearPolynomial)
    characteristic = (
        Characteristic(modulus=source.modulus, arity=source.arity, polynomials=(source,))
        if single
        else source
    )
    good_set = sample(epsilon, source.modulus, seed=11)
    block = 1 << len(characteristic)
    if chunk_entries is not None:
        monkeypatch.setattr(compiler, "_CHUNK_ENTRIES", chunk_entries * good_set.size * block**2)
    program = (compile_single if single else compile_general)(source, good_set).program
    numerator = (4.0 if single else 2.0) * math.pi
    reference = [
        _per_read_blocks(good_set, tuple(p.coefficients[j] for p in characteristic.polynomials), numerator)
        for j in range(source.arity + 1)
    ]
    t = good_set.size
    assert np.array_equal(program.initial_state, (reference[0][:, :, 0] / math.sqrt(t)).ravel())
    assert len(program.instructions) == source.arity
    for j, instruction in enumerate(program.instructions, start=1):
        assert instruction.variable_index == j
        assert np.array_equal(instruction.on_one, reference[j])


def test_each_stack_is_owned_read_only_and_stored_as_handed():
    characteristic = _hsf_source(4, 2)
    good_set = sample(0.25, characteristic.modulus, seed=3)
    for stack in _branch_stacks(characteristic, good_set, 2.0 * math.pi):
        stored = Instruction(variable_index=1, on_one=stack).on_one
        assert stored.flags.owndata and stored.flags.c_contiguous and not stored.flags.writeable
        assert stored.dtype == np.float64 and np.array_equal(stored, stack)
        assert not np.shares_memory(stored, stack)


def paper_single_circuit_probabilities(program, bits: np.ndarray) -> np.ndarray:
    """The single construction's read-out as the paper draws it, built here
    densely: the Hadamard layer H^(x)l on the branch register, times I_2 on
    the target, applied to run()'s state after the reads, then the squared
    amplitude of |0...0>|0>."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    layer = np.eye(1)
    for _ in range((program.dimension // 2).bit_length() - 1):
        layer = np.kron(layer, h)
    readout = np.kron(layer, np.eye(2))
    return np.array([abs((readout @ run(program, row))[0]) ** 2 for row in bits.tolist()])


@pytest.mark.parametrize(
    "polynomial",
    [
        pytest.param(mod_polynomial(8, 3), id="mod3-n8"),
        pytest.param(eq_polynomial(3), id="eq3"),
        pytest.param(palindrome_polynomial(7), id="palindrome7"),
        pytest.param(perm_polynomial(3), id="perm3"),
    ],
)
def test_interfering_readout_is_the_dense_hadamard_layer(polynomial):
    """The measurement against the uniform superposition of the states
    |i>|0> is the paper's final Hadamard layer and all-zero measurement."""
    good_set = sample(0.2, polynomial.modulus, seed=3)
    program = compile_single(polynomial, good_set).program
    t = good_set.size
    constant_blocks = _per_read_blocks(good_set, (polynomial.coefficients[0],), 4.0 * math.pi)
    np.testing.assert_allclose(
        program.initial_state, constant_blocks[:, :, 0].ravel() / math.sqrt(t), rtol=0, atol=1e-15
    )
    bits = all_inputs(polynomial.arity)
    dense = paper_single_circuit_probabilities(program, bits)
    swept, _ = sweep_accept_probabilities(program, bits)
    np.testing.assert_allclose(swept, dense, rtol=0, atol=1e-12)
    closed = closed_form_single_batch(polynomial, good_set, bits)
    np.testing.assert_allclose(dense, closed, rtol=0, atol=1e-9)


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
        assert np.array_equal(x.on_one, y.on_one)
    assert np.array_equal(a.initial_state, b.initial_state)
    assert a.interfere == b.interfere == (not general)


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
        # Fewer than required_size(0.3, 5) = 16 parameters.
        _recipe(goodset={"m": "5", "epsilon": 0.3, "params": ["1", "2"]}),
    ],
)
def test_recipe_loader_raises_value_error_on_malformed_recipes(recipe):
    with pytest.raises(ValueError):
        recipe_from_json_dict(recipe)


def test_size_budget_is_checked_before_compiling(monkeypatch):
    polynomial = mod_polynomial(5, 3)
    good_set = sample(0.2, 3, seed=0)
    characteristic = Characteristic(modulus=3, arity=5, polynomials=(polynomial,))
    # Five (t, 2, 2) float64 stacks, the width-2t initial state, and one
    # sweep's largest state buffers.
    d = 2 * good_set.size
    needed = 5 * d * 2 * 8 + d * 8 + sweep_buffer_bytes(d, 5)
    assert check_budget(polynomial, good_set.size) == needed
    assert check_budget(characteristic, good_set.size) == needed
    monkeypatch.setattr(compiler, "BUDGET_BYTES", needed - 1)
    with pytest.raises(TooLargeError, match="budget"):
        compile_single(polynomial, good_set)
    with pytest.raises(TooLargeError, match="budget"):
        compile_general(characteristic, good_set)
    with pytest.raises(TooLargeError, match="budget"):
        recipe_from_json_dict(recipe_to_json_dict(polynomial, good_set))
    monkeypatch.setattr(compiler, "BUDGET_BYTES", needed)
    compile_single(polynomial, good_set)
    compile_general(characteristic, good_set)


def test_size_budget_admits_the_widest_benchmark_programs():
    perm = perm_polynomial(4)
    check_budget(perm, required_size(0.2, perm.modulus))
    check_budget(perm, required_size(0.05, perm.modulus))
    z8 = _hsf_source(8, 4)
    check_budget(z8, required_size(0.25, z8.modulus))
    z16 = _hsf_source(16, 8)
    check_budget(z16, required_size(0.25, z16.modulus))
    # Four reads of (2^22, 2, 2) stacks alone are 4 * 2^22 * 32 B = 512 MiB.
    with pytest.raises(TooLargeError):
        check_budget(mod_polynomial(4, 3), required_size(1e-6, 3))


@pytest.mark.parametrize(
    "source, epsilon",
    [
        pytest.param(mod_polynomial(16, 3), 0.2, id="mod3-n16"),
        pytest.param(perm_polynomial(4), 0.2, id="perm4-eps0.2"),
        pytest.param(perm_polynomial(4), 0.05, id="perm4-eps0.05"),
        pytest.param(_hsf_source(8, 4), 0.25, id="hsf-z8-4"),
        pytest.param(_hsf_source(16, 8), 0.25, id="hsf-z16-8"),
    ],
)
def test_compiling_and_sweeping_stay_within_the_counted_budget(monkeypatch, source, epsilon):
    compile_source = compile_single if isinstance(source, LinearPolynomial) else compile_general
    good_set = sample(epsilon, source.modulus, seed=7)
    needed = check_budget(source, good_set.size)
    samples = sampled_inputs(source.arity, 4096, seed=7)
    batches = [samples[:1], samples]
    if source.arity <= 24:
        batches.append(input_block(source.arity, 0, 8192))
    tracemalloc.start()
    try:
        program = compile_source(source, good_set).program
        for bits in batches:
            sweep_accept_probabilities(program, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= needed
    # Every array the program holds is a per-read stack or the initial state.
    arrays = [getattr(program, field.name) for field in dataclasses.fields(program)]
    assert [a.shape for a in arrays if isinstance(a, np.ndarray)] == [(program.dimension,)]
    block = program.dimension // good_set.size
    for instruction in program.instructions:
        assert instruction.on_one.shape == (good_set.size, block, block)
    # One byte under the count, the compile is refused before it allocates
    # anything of the program's size.
    monkeypatch.setattr(compiler, "BUDGET_BYTES", needed - 1)
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="budget"):
            compile_source(source, good_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_one_row_closed_forms_take_the_cosine_table_by_the_modulus():
    # Over m = 3^9 a one-row single form builds the cosine table and a
    # one-row generalized form the set's spectrum, once each; the batches of
    # all 4,096 inputs gather from the same two.  A row's value does not
    # depend on the batch, so every row equals its scalar form.
    modulus = 3**9
    coefficients = tuple(7**j % modulus for j in range(13))
    polynomial = LinearPolynomial(modulus=modulus, arity=12, coefficients=coefficients)
    characteristic = Characteristic(
        modulus=modulus, arity=12, polynomials=(polynomial, mod_polynomial(12, modulus))
    )
    parameters = np.random.default_rng(5).integers(0, modulus, size=64).tolist()
    good_set = GoodSet(modulus=modulus, error_rate=0.3, parameters=tuple(parameters))
    bits = all_inputs(12)
    _cosine_table.cache_clear()
    _spectrum.cache_clear()
    closed_form_single(polynomial, good_set, bits[0].tolist())
    assert _cosine_table.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert _spectrum.cache_info().misses == 0
    # Its two polynomials and four terms read one spectrum, and no table.
    closed_form_general(characteristic, good_set, bits[0].tolist())
    assert _spectrum.cache_info().misses == 1
    assert _cosine_table.cache_info().misses == 1
    scalar = [
        (closed_form_single(polynomial, good_set, row), closed_form_general(characteristic, good_set, row))
        for row in bits[::61].tolist()
    ]
    single = closed_form_single_batch(polynomial, good_set, bits)
    general = closed_form_general_batch(characteristic, good_set, bits)
    assert _cosine_table.cache_info().misses == 1
    assert _spectrum.cache_info().misses == 1
    assert scalar == list(zip(single[::61], general[::61]))



@pytest.mark.parametrize("modulus", [3**9, 3**40], ids=["int64", "object"])
def test_sliced_closed_forms_equal_the_unsliced_ones(monkeypatch, modulus):
    # The single form runs its kernel over slices of at most
    # goodsets._CHUNK_ENTRIES residue-parameter entries, and the generalized
    # one takes _CHUNK_ENTRIES rows at a time (past the spectrum, over 3^40,
    # its kernel runs over slices as the single form's does).  With three
    # residues' worth per slice and three rows per slice they must give the
    # values of one whole batch.
    rng = random.Random(17)
    polynomials = tuple(
        LinearPolynomial(
            modulus=modulus, arity=10, coefficients=tuple(rng.randrange(modulus) for _ in range(11))
        )
        for _ in range(3)
    )
    characteristic = Characteristic(modulus=modulus, arity=10, polynomials=polynomials)
    good_set = GoodSet(
        modulus=modulus, error_rate=0.3, parameters=tuple(rng.randrange(modulus) for _ in range(16))
    )
    bits = all_inputs(10)
    assert 1024 * good_set.size <= goodsets._CHUNK_ENTRIES  # one slice: the unsliced kernel
    single = closed_form_single_batch(polynomials[0], good_set, bits)
    general = closed_form_general_batch(characteristic, good_set, bits)

    calls = {}

    def count_calls(module, name):
        kernel, calls[name] = getattr(module, name), []

        def counted(values, *args):
            calls[name].append(len(values))
            return kernel(values, *args)

        monkeypatch.setattr(module, name, counted)

    count_calls(compiler, "_cosine_kernel")  # the single form's kernel
    count_calls(compiler, "_cosine_sums")  # the generalized form's terms
    if modulus > goodsets.DEFAULT_VERIFY_LIMIT:
        count_calls(goodsets, "_kernel_sums")  # and their kernel past the spectrum
    monkeypatch.setattr(goodsets, "_CHUNK_ENTRIES", 3 * good_set.size)
    monkeypatch.setattr(compiler, "_CHUNK_ENTRIES", 3)
    assert np.array_equal(closed_form_single_batch(polynomials[0], good_set, bits), single)
    assert np.array_equal(closed_form_general_batch(characteristic, good_set, bits), general)
    for sizes in calls.values():
        assert len(sizes) > 1 and max(sizes) <= 3
    # Thirteen terms per slice of rows: (3^3 - 1) / 2.
    assert len(calls["_cosine_sums"]) == 13 * math.ceil(1024 / 3)


# The generalized closed form sums the cosine spectrum over (3^l - 1)/2
# terms instead of taking the per-branch products: the same function,
# rounded differently, so it stays within 1e-15 of the product form.

EXPANSION_TOL = 1e-15


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("modulus", [2, 3**9, 2**16, 2**64 + 13], ids=["2", "3^9", "2^16", "2^64+13"])
def test_general_closed_form_equals_the_per_branch_products(modulus, count):
    rng = random.Random(modulus + count)
    characteristic = Characteristic(
        modulus=modulus,
        arity=8,
        polynomials=tuple(
            LinearPolynomial(
                modulus=modulus, arity=8, coefficients=tuple(rng.randrange(modulus) for _ in range(9))
            )
            for _ in range(count)
        ),
    )
    good_set = GoodSet(
        modulus=modulus, error_rate=0.3, parameters=tuple(rng.randrange(modulus) for _ in range(64))
    )
    bits = all_inputs(8)
    np.testing.assert_allclose(
        closed_form_general_batch(characteristic, good_set, bits),
        closed_form_general_product(characteristic, good_set, bits),
        rtol=0,
        atol=EXPANSION_TOL,
    )
