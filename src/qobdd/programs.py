"""Quantum branching programs and their exact state-vector simulation.

A program is a sequence of instructions (variable index, U(0), U(1)) acting on
a d-dimensional state, with an optional input-independent transform before and
after the variable reads, an initial state, and a set of accepting basis
indices.  Running a program on a bit string applies the matrix selected by
each read bit in sequence order; the acceptance probability is the squared
norm of the projection onto the accepting indices.

Every matrix is stored as a stack of diagonal blocks, shape (d/b, b, b): a
compiled read acts on each branch's target register alone, so it is t
independent 2 x 2 (or 2^l x 2^l) rotations and costs O(d b) per input
instead of O(d^2).  A dense (d, d) matrix is the one-block stack.  Arrays are
float64 when they have no imaginary part, so real programs are simulated in
real arithmetic.  sweep_accept_probabilities simulates a batch of inputs on
the stacks, and accept_probability is its 1-row case; run() expands every
stack to its dense matrix and is kept as the independent per-input
reference.  The input-independent pre/post transforms exist so Hadamard
layers and constant-coefficient rotations do not consume a variable read,
keeping compiled programs read-once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, _malformed

UNITARY_TOL = 1e-9
NORM_TOL = 1e-9
_TILE_ENTRIES = 1 << 17


def ry(theta: float) -> np.ndarray:
    """Rotation by theta about the Bloch-sphere y axis."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def hadamard_layer(num_qubits: int) -> np.ndarray:
    """H tensored num_qubits times (the 1x1 identity for zero qubits)."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    layer = np.array([[1.0]])
    for _ in range(num_qubits):
        layer = np.kron(layer, h1)
    return layer


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only C-ordered array, float64 when no entry has a nonzero
    imaginary part and complex128 otherwise: the argument itself when it
    already is one and owns its data, so shared stacks are stored once."""
    array = np.asarray(array)
    if np.iscomplexobj(array) and not np.any(array.imag):
        array = array.real
    dtype = np.complex128 if np.iscomplexobj(array) else np.float64
    if (
        array.dtype == dtype
        and array.flags.c_contiguous
        and array.flags.owndata
        and not array.flags.writeable
    ):
        return array
    out = np.array(array, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _blocks(stack: np.ndarray) -> np.ndarray:
    """A stack of b x b diagonal blocks as (d/b, b, b); a (d, d) matrix is
    the one-block stack."""
    size = stack.shape[-1]
    return stack.reshape(-1, size, size)


def _block_diagonal(stack: np.ndarray) -> np.ndarray:
    """The dense d x d matrix with the stack's blocks on its diagonal."""
    blocks = _blocks(stack)
    count, size, _ = blocks.shape
    matrix = np.zeros((count * size, count * size), dtype=blocks.dtype)
    branches = np.arange(count)
    matrix.reshape(count, size, count, size)[branches, :, branches, :] = blocks
    return matrix


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Whether a square matrix, or every block of a (n, b, b) stack, is unitary."""
    size = matrix.shape[-1]
    if matrix.ndim not in (2, 3) or matrix.shape[-2] != size:
        return False
    blocks = _blocks(matrix)
    gram = blocks.conj().transpose(0, 2, 1) @ blocks
    return bool(np.max(np.abs(gram - np.eye(size)), initial=0.0) <= tol)


@dataclass(frozen=True)
class Instruction:
    """One variable read: apply on_zero or on_one depending on the bit.

    Each matrix is a stack of diagonal blocks, (d/b, b, b), or a dense (d, d)
    matrix, the one-block stack.
    """

    variable_index: int
    on_zero: np.ndarray
    on_one: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_zero", _frozen(self.on_zero))
        object.__setattr__(self, "on_one", _frozen(self.on_one))


@dataclass(frozen=True)
class ProgramMetrics:
    width: int
    length: int
    qubits: int


@dataclass(frozen=True)
class QuantumBranchingProgram:
    """A width-d program; every matrix, the transforms included, is a stack of
    diagonal blocks as in Instruction."""

    dimension: int
    arity: int
    instructions: tuple[Instruction, ...]
    initial_state: np.ndarray
    accepting: tuple[int, ...]
    pre_transform: np.ndarray | None = None
    post_transform: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_state", _frozen(self.initial_state))
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "accepting", tuple(sorted(self.accepting)))
        for name in ("pre_transform", "post_transform"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _frozen(value))


def basis_state(dimension: int, index: int) -> np.ndarray:
    state = np.zeros(dimension, dtype=np.complex128)
    state[index] = 1.0
    return state


def validate(program: QuantumBranchingProgram) -> list[str]:
    """Collect invariant violations; an empty list means the program is valid."""
    violations: list[str] = []
    d = program.dimension
    if program.initial_state.shape != (d,):
        violations.append(
            f"initial state has shape {program.initial_state.shape}, expected ({d},)"
        )
    elif abs(np.linalg.norm(program.initial_state) - 1.0) > NORM_TOL:
        violations.append("initial state is not normalized")
    if not program.accepting:
        violations.append("accepting set is empty")
    if any(not (0 <= idx < d) for idx in program.accepting):
        violations.append("accepting index out of range")
    if len(set(program.accepting)) != len(program.accepting):
        violations.append("accepting index repeated")
    labelled = [
        ("pre-transform", program.pre_transform),
        ("post-transform", program.post_transform),
    ]
    for step, instruction in enumerate(program.instructions, start=1):
        if not (1 <= instruction.variable_index <= program.arity):
            violations.append(
                f"instruction {step}: variable index {instruction.variable_index} "
                f"out of range [1, {program.arity}]"
            )
        labelled.append((f"instruction {step}: U(0)", instruction.on_zero))
        labelled.append((f"instruction {step}: U(1)", instruction.on_one))
    for label, matrix in labelled:
        if matrix is None:
            continue
        if (
            matrix.ndim not in (2, 3)
            or matrix.shape[-2] != matrix.shape[-1]
            or math.prod(matrix.shape[:-1]) != d
        ):
            violations.append(
                f"{label} has shape {matrix.shape}, expected ({d}, {d}) "
                f"or (n, b, b) with n * b = {d}"
            )
        elif not is_unitary(matrix):
            violations.append(f"{label} is non-unitary")
    return violations


def is_read_once(program: QuantumBranchingProgram) -> bool:
    indices = [instruction.variable_index for instruction in program.instructions]
    return len(indices) == len(set(indices))


def run(
    program: QuantumBranchingProgram,
    bits: Sequence[int],
    check_norm: bool = True,
) -> np.ndarray:
    """Final state after reading the input bits in instruction order.

    The dense per-input reference: every stack is expanded to its d x d
    matrix.  Sweeps and accept_probability do not use it.
    """
    if len(bits) != program.arity:
        raise LengthMismatchError(
            f"expected {program.arity} bits, got {len(bits)}"
        )
    state = program.initial_state.copy()
    if program.pre_transform is not None:
        state = _block_diagonal(program.pre_transform) @ state
    for instruction in program.instructions:
        bit = bits[instruction.variable_index - 1]
        state = _block_diagonal(instruction.on_one if bit else instruction.on_zero) @ state
        if check_norm:
            drift = abs(np.linalg.norm(state) - 1.0)
            if drift > NORM_TOL:
                raise ArithmeticError(f"state norm drifted by {drift:.3e}")
    if program.post_transform is not None:
        state = _block_diagonal(program.post_transform) @ state
    return state


def accept_probability(program: QuantumBranchingProgram, bits: Sequence[int]) -> float:
    """The acceptance probability of one input: a 1-row sweep.

    Raises LengthMismatchError on a wrong-length input and ArithmeticError
    when the state norm drifts from 1 by more than NORM_TOL.
    """
    probabilities, drift = sweep_accept_probabilities(program, np.asarray([bits]))
    if drift > NORM_TOL:
        raise ArithmeticError(f"state norm drifted by {drift:.3e}")
    return float(probabilities[0])


def _apply_blocks(stack: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each b x b block times its own b rows of every column of states."""
    blocks = _blocks(stack)
    count, size, _ = blocks.shape
    return np.matmul(blocks, states.reshape(count, size, -1)).reshape(states.shape)


def _is_identity(stack: np.ndarray) -> bool:
    blocks = _blocks(stack)
    return np.array_equal(blocks, np.broadcast_to(np.eye(blocks.shape[-1]), blocks.shape))


def _squared_norms(states: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(states):
        return _squared_norms(states.real) + _squared_norms(states.imag)
    return np.einsum("dc,dc->c", states, states)


def _norm_drift(states: np.ndarray) -> float:
    return float(np.max(np.abs(np.sqrt(_squared_norms(states)) - 1.0)))


def _sweep_tile(
    program: QuantumBranchingProgram,
    start: np.ndarray,
    reads: list[tuple[int, np.ndarray | None, np.ndarray]],
    bit_matrix: np.ndarray,
    track_norms: bool,
) -> tuple[np.ndarray, float]:
    states = np.repeat(start[:, None], bit_matrix.shape[0], axis=1)
    max_drift = 0.0
    for column, on_zero, on_one in reads:
        ones = bit_matrix[:, column].astype(bool)
        if ones.all():
            states = _apply_blocks(on_one, states)
        else:
            on_zeros = states if on_zero is None else _apply_blocks(on_zero, states)
            if ones.any():
                on_zeros = np.where(ones, _apply_blocks(on_one, states), on_zeros)
            states = on_zeros
        if track_norms:
            max_drift = max(max_drift, _norm_drift(states))
    if program.post_transform is not None:
        states = _apply_blocks(program.post_transform, states)
    if track_norms:
        max_drift = max(max_drift, _norm_drift(states))
    return _squared_norms(states[list(program.accepting)]), max_drift


def sweep_accept_probabilities(
    program: QuantumBranchingProgram,
    bit_matrix: np.ndarray,
    track_norms: bool = True,
) -> tuple[np.ndarray, float]:
    """Acceptance probabilities for a whole batch of inputs at once.

    bit_matrix has one input per row.  Column v of the internal state matrix
    goes through the same steps run() applies to input v, each read as d/b
    independent b x b products: the on_one blocks when the bit is 1 and the
    on_zero blocks otherwise (skipped when they are the identity).  The
    arithmetic is float64 exactly when every array of the program is.  The
    results match run() up to floating-point rounding.  Returns the
    probabilities and the largest norm drift observed after any read or the
    post-transform.
    """
    count, width = bit_matrix.shape
    if width != program.arity:
        raise LengthMismatchError(f"expected arity {program.arity}, got {width}")
    start = program.initial_state
    if program.pre_transform is not None:
        start = _apply_blocks(program.pre_transform, start[:, None])[:, 0]
    reads = [
        (
            instruction.variable_index - 1,
            None if _is_identity(instruction.on_zero) else instruction.on_zero,
            instruction.on_one,
        )
        for instruction in program.instructions
    ]
    # Inputs go through in tiles whose states stay in a core's cache across
    # all reads, instead of streaming the whole batch from memory per read.
    tile = max(1, _TILE_ENTRIES // program.dimension)
    probabilities = np.empty(count)
    max_drift = 0.0
    for first in range(0, count, tile):
        stop = min(first + tile, count)
        probabilities[first:stop], drift = _sweep_tile(
            program, start, reads, bit_matrix[first:stop], track_norms
        )
        max_drift = max(max_drift, drift)
    return probabilities, max_drift


def metrics(program: QuantumBranchingProgram) -> ProgramMetrics:
    return ProgramMetrics(
        width=program.dimension,
        length=len(program.instructions),
        qubits=math.ceil(math.log2(program.dimension)),
    )


def _array_to_json(array: np.ndarray) -> list:
    """The array in its own shape, each entry a [re, im] pair."""
    return np.stack((array.real, array.imag), axis=-1).tolist()


def _array_from_json(data: list) -> np.ndarray:
    """The array _array_to_json wrote; TypeError unless every innermost entry
    is a [re, im] pair of numbers."""
    try:
        pairs = np.array(data)
    except ValueError as error:  # ragged nesting
        raise TypeError(str(error)) from error
    if pairs.dtype.kind not in "biuf" or pairs.ndim < 2 or pairs.shape[-1] != 2:
        raise TypeError("expected nested lists of [re, im] number pairs")
    return pairs[..., 0] + 1j * pairs[..., 1]


def program_to_json_dict(program: QuantumBranchingProgram) -> dict:
    return {
        "dimension": program.dimension,
        "arity": program.arity,
        "pre_transform": (
            None if program.pre_transform is None else _array_to_json(program.pre_transform)
        ),
        "instructions": [
            {
                "variable": instruction.variable_index,
                "on_zero": _array_to_json(instruction.on_zero),
                "on_one": _array_to_json(instruction.on_one),
            }
            for instruction in program.instructions
        ],
        "post_transform": (
            None
            if program.post_transform is None
            else _array_to_json(program.post_transform)
        ),
        "initial_state": _array_to_json(program.initial_state),
        "accepting": list(program.accepting),
    }


def program_from_json_dict(data: dict) -> QuantumBranchingProgram:
    """The program program_to_json_dict wrote, its matrices as dense (d, d)
    arrays or as (n, b, b) stacks; ValueError on a missing key, a wrong type,
    a missing entry or an entry that is not a [re, im] pair.  The result is
    not validated: see validate()."""
    with _malformed("program file"):
        return QuantumBranchingProgram(
            dimension=int(data["dimension"]),
            arity=int(data["arity"]),
            instructions=tuple(
                Instruction(
                    variable_index=int(entry["variable"]),
                    on_zero=_array_from_json(entry["on_zero"]),
                    on_one=_array_from_json(entry["on_one"]),
                )
                for entry in data["instructions"]
            ),
            initial_state=_array_from_json(data["initial_state"]),
            accepting=tuple(int(i) for i in data["accepting"]),
            pre_transform=(
                None
                if data.get("pre_transform") is None
                else _array_from_json(data["pre_transform"])
            ),
            post_transform=(
                None
                if data.get("post_transform") is None
                else _array_from_json(data["post_transform"])
            ),
        )


def save_program(program: QuantumBranchingProgram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(program_to_json_dict(program), handle)


def load_program(path: str) -> QuantumBranchingProgram:
    with open(path, "r", encoding="utf-8") as handle:
        return program_from_json_dict(json.load(handle))
