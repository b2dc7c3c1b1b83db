"""Program invariants and the exact simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qobdd.compiler import compile_single
from qobdd.errors import LengthMismatchError
from qobdd.goodsets import sample_good
from qobdd.polynomials import mod_polynomial
from qobdd.programs import (
    Instruction,
    QuantumBranchingProgram,
    accept_probability,
    metrics,
    program_from_json_dict,
    program_to_json_dict,
    sweep_accept_probabilities,
)
from reference import all_inputs, is_read_once, run, validate

I2 = np.eye(2)


def ry(theta: float) -> np.ndarray:
    """Rotation by theta about the Bloch-sphere y axis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def basis_state(dimension: int, index: int) -> np.ndarray:
    state = np.zeros(dimension)
    state[index] = 1.0
    return state


def identity_program(d: int = 2, arity: int = 1) -> QuantumBranchingProgram:
    return QuantumBranchingProgram(
        dimension=d,
        arity=arity,
        instructions=(Instruction(variable_index=1, on_one=np.eye(d)),),
        initial_state=basis_state(d, 0),
        accepting=(0,),
    )


def test_validate_identity_program_ok():
    assert validate(identity_program()) == []


def test_validate_flags_non_unitary_matrix():
    broken = np.array([[1.0, 0.0], [0.0, 0.0]])
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(Instruction(variable_index=1, on_one=broken),),
        initial_state=basis_state(2, 0),
        accepting=(0,),
    )
    assert any("non-unitary" in v for v in validate(program))


def test_validate_checks_stack_shapes_and_every_block():
    def with_on_one(on_one):
        return QuantumBranchingProgram(
            dimension=4,
            arity=1,
            instructions=(Instruction(variable_index=1, on_one=on_one),),
            initial_state=basis_state(4, 0),
            accepting=(0,),
        )

    assert validate(with_on_one(np.stack([I2, ry(0.5)]))) == []
    assert any("non-unitary" in v for v in validate(with_on_one(np.stack([I2, 0.5 * I2]))))
    for shape in ((3, 2, 2), (2, 2, 3), (4, 4, 4), (2, 2)):
        assert any("has shape" in v for v in validate(with_on_one(np.ones(shape))))


def test_validate_flags_variable_index_out_of_range():
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(Instruction(variable_index=0, on_one=I2),),
        initial_state=basis_state(2, 0),
        accepting=(0,),
    )
    assert any("out of range" in v for v in validate(program))


def test_validate_flags_empty_accepting_set():
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(),
        initial_state=basis_state(2, 0),
        accepting=(),
    )
    assert any("accepting" in v for v in validate(program))


def test_validate_flags_repeated_accepting_index():
    # Each repeat would add its probability again.
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(),
        initial_state=basis_state(2, 0),
        accepting=(0, 0),
    )
    assert validate(program) == ["accepting index repeated"]


def test_read_once_detection():
    def with_variables(indices):
        return QuantumBranchingProgram(
            dimension=2,
            arity=3,
            instructions=tuple(
                Instruction(variable_index=i, on_one=I2) for i in indices
            ),
            initial_state=basis_state(2, 0),
            accepting=(0,),
        )

    assert is_read_once(with_variables([1, 2, 3]))
    assert not is_read_once(with_variables([1, 2, 1]))


def test_run_identity_keeps_initial_state():
    program = identity_program()
    np.testing.assert_allclose(run(program, [1]), program.initial_state)


def test_run_half_turn_rotation():
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(Instruction(variable_index=1, on_one=ry(math.pi)),),
        initial_state=basis_state(2, 0),
        accepting=(0,),
    )
    final = run(program, [1])
    np.testing.assert_allclose(final, [0.0, 1.0], atol=1e-15)
    assert accept_probability(program, [1]) == pytest.approx(0.0, abs=1e-15)
    assert accept_probability(program, [0]) == pytest.approx(1.0)


def test_run_length_mismatch():
    with pytest.raises(LengthMismatchError):
        run(identity_program(), [1, 0])


def test_run_detects_norm_drift():
    shrink = 0.5 * I2
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(Instruction(variable_index=1, on_one=shrink),),
        initial_state=basis_state(2, 0),
        accepting=(0,),
    )
    with pytest.raises(ArithmeticError):
        run(program, [1])
    run(program, [1], check_norm=False)


def test_accept_probability_completeness():
    program = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(Instruction(variable_index=1, on_one=ry(1.234)),),
        initial_state=basis_state(2, 0),
        accepting=(0, 1),
    )
    assert accept_probability(program, [1]) == pytest.approx(1.0)


def test_metrics_small_program():
    assert metrics(identity_program()) == metrics(identity_program())
    small = metrics(identity_program())
    assert (small.width, small.length, small.qubits) == (2, 1, 1)


def test_sweep_matches_per_input_runs():
    poly = mod_polynomial(6, 3)
    good_set, _ = sample_good(0.2, 3, seed=0)
    program = compile_single(poly, good_set).program
    bits = all_inputs(6)
    batch, drift = sweep_accept_probabilities(program, bits)
    accepting = list(program.accepting)
    # The single construction interferes: |<u|psi>|^2, u uniform on the accepting states.
    assert program.interfere
    single = np.array(
        [abs(np.sum(run(program, row)[accepting])) ** 2 / len(accepting) for row in bits]
    )
    assert drift <= 1e-9
    np.testing.assert_allclose(batch, single, atol=1e-12)


def test_interfering_program_measures_the_uniform_superposition():
    # (|0> - |1>)/sqrt(2) lies in the accepting span but is orthogonal to
    # u = (|0> + |1>)/sqrt(2): projected it accepts surely, interfered never.
    state = np.array([1.0, -1.0]) / math.sqrt(2.0)
    fields = dict(dimension=2, arity=1, instructions=(), initial_state=state, accepting=(0, 1))
    projected = QuantumBranchingProgram(**fields)
    interfered = QuantumBranchingProgram(**fields, interfere=True)
    assert accept_probability(projected, [0]) == pytest.approx(1.0, abs=1e-15)
    assert accept_probability(interfered, [0]) == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(run(interfered, [1]), state)


def test_sweep_rejects_wrong_arity():
    with pytest.raises(LengthMismatchError):
        sweep_accept_probabilities(identity_program(), all_inputs(2))


def test_program_json_round_trip():
    poly = mod_polynomial(3, 3)
    good_set, _ = sample_good(0.3, 3, seed=1)
    program = compile_single(poly, good_set).program
    again = program_from_json_dict(program_to_json_dict(program))
    assert again.dimension == program.dimension
    assert again.accepting == program.accepting
    assert again.interfere == program.interfere
    for sigma in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
        assert accept_probability(again, sigma) == pytest.approx(
            accept_probability(program, sigma), abs=1e-15
        )
    assert again.arity == program.arity
    np.testing.assert_allclose(again.initial_state, program.initial_state)


def test_program_json_reads_dense_matrices_and_block_stacks():
    stack = np.stack([ry(0.3), ry(1.1)])
    program = QuantumBranchingProgram(
        dimension=4,
        arity=2,
        instructions=(
            Instruction(variable_index=1, on_one=np.kron(ry(0.7), I2)),
            Instruction(variable_index=2, on_one=stack),
        ),
        initial_state=basis_state(4, 0),
        accepting=(0, 2),
        interfere=True,
    )
    data = program_to_json_dict(program)
    assert [np.shape(entry["on_one"]) for entry in data["instructions"]] == [(4, 4, 2), (2, 2, 2, 2)]
    assert data["interfere"] is True
    again = program_from_json_dict(data)
    assert again.initial_state.dtype == np.float64
    assert again.interfere
    for ours, theirs in zip(again.instructions, program.instructions):
        assert ours.on_one.dtype == np.float64
        assert np.array_equal(ours.on_one, theirs.on_one)
    assert validate(again) == []
    for bits in ([0, 0], [1, 0], [0, 1], [1, 1]):
        assert accept_probability(again, bits) == accept_probability(program, bits)


def test_program_arrays_are_frozen():
    program = identity_program()
    with pytest.raises(ValueError):
        program.initial_state[0] = 0.0
    with pytest.raises(ValueError):
        program.instructions[0].on_one[0, 0] = 5.0


@pytest.mark.parametrize(
    "data",
    [
        {"dimension": 4},
        {"dimension": 2, "arity": 1, "instructions": 5, "initial_state": [], "accepting": []},
        {"dimension": 2, "arity": 1, "instructions": [{"variable": 1}], "initial_state": [], "accepting": []},
        [],
        # Innermost entries that are not [re, im] pairs of numbers.
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[1, 0, 0], [0, 0, 0]], "accepting": [0]},
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [1, 0], "accepting": [0]},
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[1, 0], [0]], "accepting": [0]},
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [["1", "0"], ["0", "0"]], "accepting": [0]},
        # A layout programs no longer have: refused, not simulated without it.
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[1, 0], [0, 0]],
         "accepting": [0], "interfere": False, "pre_transform": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[1, 0], [0, 0]],
         "accepting": [0], "interfere": False, "post_transform": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        # interfere is required and a JSON bool: the string "false" must not
        # read as true.
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[1, 0], [0, 0]],
         "accepting": [0]},
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[1, 0], [0, 0]],
         "accepting": [0], "interfere": "false"},
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[1, 0], [0, 0]],
         "accepting": [0], "interfere": 1},
        # A read acts on x_j = 1 only, and programs are real: a non-null U(0)
        # or a nonzero imaginary part is refused.
        {"dimension": 2, "arity": 1, "instructions": [{"variable": 1,
         "on_zero": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "on_one": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],
         "initial_state": [[1, 0], [0, 0]], "accepting": [0], "interfere": False},
        {"dimension": 2, "arity": 1, "instructions": [{"variable": 1,
         "on_one": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]}],
         "initial_state": [[1, 0], [0, 0]], "accepting": [0], "interfere": False},
        {"dimension": 2, "arity": 1, "instructions": [], "initial_state": [[0, 1], [0, 0]],
         "accepting": [0], "interfere": False},
    ],
)
def test_program_from_json_dict_raises_value_error_on_malformed_data(data):
    with pytest.raises(ValueError, match="malformed program file"):
        program_from_json_dict(data)


@pytest.mark.parametrize(
    "field, value",
    [("dimension", 2.0), ("arity", 1.5), ("arity", True), ("variable", 1.9), ("accepting", [0.5])],
)
def test_program_from_json_dict_refuses_non_integer_fields(field, value):
    data = {"dimension": 2, "arity": 1, "instructions": [{"variable": 1, "on_zero": None,
            "on_one": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],
            "initial_state": [[1, 0], [0, 0]], "accepting": [0], "interfere": False}
    assert program_from_json_dict(data).arity == 1
    if field == "variable":
        data["instructions"][0]["variable"] = value
    else:
        data[field] = value
    with pytest.raises(ValueError, match="JSON integer"):
        program_from_json_dict(data)


@pytest.mark.parametrize("field", ["initial_state", "on_one"])
def test_program_arrays_with_an_imaginary_part_are_refused(field):
    arrays = {"initial_state": basis_state(2, 0), "on_one": ry(0.4)}
    real = QuantumBranchingProgram(
        dimension=2,
        arity=1,
        instructions=(Instruction(variable_index=1, on_one=arrays["on_one"] + 0j),),
        initial_state=arrays["initial_state"] + 0j,
        accepting=(0,),
    )
    # A complex dtype with every imaginary part zero is stored as float64.
    assert real.initial_state.dtype == real.instructions[0].on_one.dtype == np.float64
    # A global phase of i changes no probability but leaves no real program.
    arrays[field] = 1j * arrays[field]
    with pytest.raises(TypeError, match="real"):
        QuantumBranchingProgram(
            dimension=2,
            arity=1,
            instructions=(Instruction(variable_index=1, on_one=arrays["on_one"]),),
            initial_state=arrays["initial_state"],
            accepting=(0,),
        )
