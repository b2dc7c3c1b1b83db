"""Quantum branching programs and their exact state-vector simulation.

A program is a sequence of instructions (variable index, U(0), U(1)) acting on
a d-dimensional state, with an optional input-independent transform before and
after the variable reads, an initial state, and a set of accepting basis
indices.  Running a program on a bit string applies the matrix selected by
each read bit in sequence order; the acceptance probability is the squared
norm of the projection onto the accepting indices.

Programs store dense complex128 matrices, and run() simulates one input with
them.  Batched sweeps simulate the same steps on the program's block form:
every read of a compiled program acts on each branch's target register alone,
so its matrices are block diagonal and a read costs O(d b) per input instead
of O(d^2).  The input-independent pre/post transforms exist so Hadamard layers
and constant-coefficient rotations do not consume a variable read, keeping
compiled programs read-once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
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
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    layer = np.array([[1.0]], dtype=np.complex128)
    for _ in range(num_qubits):
        layer = np.kron(layer, h1)
    return layer


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """A read-only C-ordered complex128 array: the argument itself when it
    already is one and owns its data, so shared matrices are stored once."""
    if (
        isinstance(matrix, np.ndarray)
        and matrix.dtype == np.complex128
        and matrix.flags.c_contiguous
        and matrix.flags.owndata
        and not matrix.flags.writeable
    ):
        return matrix
    out = np.array(matrix, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    d = matrix.shape[0]
    if matrix.shape != (d, d):
        return False
    return bool(np.max(np.abs(matrix.conj().T @ matrix - np.eye(d))) <= tol)


@dataclass(frozen=True)
class Instruction:
    """One variable read: apply on_zero or on_one depending on the bit."""

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

    @cached_property
    def block_form(self) -> "BlockForm":
        """The matrices as diagonal blocks; derived on first use, then kept."""
        return _derive_block_form(self)


@dataclass(frozen=True)
class BlockForm:
    """A program's steps as stacks of diagonal blocks, for batched sweeps.

    Every instruction matrix is zero outside its b x b diagonal blocks, so a
    read is d/b independent b x b products.  ``reads`` holds one entry per
    instruction: the input column it reads, the (d/b, b, b) on_zero blocks
    (None for the identity) and the on_one blocks.  ``start`` is the initial
    state after the pre-transform; ``post`` is the post-transform at its own
    block size.  Arrays are float64 when no matrix or state of the program has
    an imaginary part, complex128 otherwise.
    """

    block: int
    start: np.ndarray
    reads: tuple[tuple[int, np.ndarray | None, np.ndarray], ...]
    post: np.ndarray | None
    accepting: np.ndarray


def _block_size(support: np.ndarray) -> int:
    """Smallest power of two b dividing d such that the d x d support has no
    entry outside its b x b diagonal blocks; d when there is none.

    Entry (i, j) lies in a diagonal block of size 2^k exactly when i and j
    agree above their low k bits, that is when i XOR j < 2^k.
    """
    dimension = support.shape[0]
    rows, cols = np.nonzero(support)
    size = 1 << int(np.max(rows ^ cols, initial=0)).bit_length()
    return size if dimension % size == 0 else dimension


def _diagonal_blocks(matrix: np.ndarray, size: int, real: bool) -> np.ndarray:
    """The (d/b, b, b) stack of a matrix's diagonal b x b blocks."""
    count = matrix.shape[0] // size
    blocks = matrix.reshape(count, size, count, size).diagonal(axis1=0, axis2=2)
    if real:
        blocks = blocks.real
    return np.ascontiguousarray(blocks.transpose(2, 0, 1))


def _derive_block_form(program: QuantumBranchingProgram) -> BlockForm:
    d = program.dimension
    steps = [(i.on_zero, i.on_one) for i in program.instructions]
    # One pass over each distinct read matrix: which real and which imaginary
    # parts are nonzero, interleaved as in memory.
    flags = np.zeros((d, 2 * d), dtype=bool)
    for matrix in {id(m): m for pair in steps for m in pair}.values():
        flags |= matrix.view(np.float64) != 0
    flags = flags.reshape(d, d, 2)
    others = (program.initial_state, program.pre_transform, program.post_transform)
    real = not flags[..., 1].any() and not any(
        np.any(m.imag) for m in others if m is not None
    )
    size = _block_size(flags[..., 0] | flags[..., 1])
    identity = np.eye(size)
    reads = []
    for instruction, (on_zero, on_one) in zip(program.instructions, steps):
        zero_blocks = _diagonal_blocks(on_zero, size, real)
        if np.array_equal(zero_blocks, np.broadcast_to(identity, zero_blocks.shape)):
            zero_blocks = None
        reads.append(
            (instruction.variable_index - 1, zero_blocks, _diagonal_blocks(on_one, size, real))
        )
    start = program.initial_state
    if program.pre_transform is not None:
        start = program.pre_transform @ start
    post = program.post_transform
    if post is not None:
        post = _diagonal_blocks(post, _block_size(post != 0), real)
    return BlockForm(
        block=size,
        start=start.real.copy() if real else start,
        reads=tuple(reads),
        post=post,
        accepting=np.array(program.accepting, dtype=np.intp),
    )


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
    for label, matrix in (
        ("pre-transform", program.pre_transform),
        ("post-transform", program.post_transform),
    ):
        if matrix is not None:
            if matrix.shape != (d, d):
                violations.append(f"{label} has shape {matrix.shape}, expected ({d}, {d})")
            elif not is_unitary(matrix):
                violations.append(f"{label} is non-unitary")
    for step, instruction in enumerate(program.instructions, start=1):
        if not (1 <= instruction.variable_index <= program.arity):
            violations.append(
                f"instruction {step}: variable index {instruction.variable_index} "
                f"out of range [1, {program.arity}]"
            )
        for label, matrix in (("U(0)", instruction.on_zero), ("U(1)", instruction.on_one)):
            if matrix.shape != (d, d):
                violations.append(
                    f"instruction {step}: {label} has shape {matrix.shape}, "
                    f"expected ({d}, {d})"
                )
            elif not is_unitary(matrix):
                violations.append(f"instruction {step}: {label} is non-unitary")
    return violations


def is_read_once(program: QuantumBranchingProgram) -> bool:
    indices = [instruction.variable_index for instruction in program.instructions]
    return len(indices) == len(set(indices))


def run(
    program: QuantumBranchingProgram,
    bits: Sequence[int],
    check_norm: bool = True,
) -> np.ndarray:
    """Final state after reading the input bits in instruction order."""
    if len(bits) != program.arity:
        raise LengthMismatchError(
            f"expected {program.arity} bits, got {len(bits)}"
        )
    state = program.initial_state.copy()
    if program.pre_transform is not None:
        state = program.pre_transform @ state
    for instruction in program.instructions:
        bit = bits[instruction.variable_index - 1]
        state = (instruction.on_one if bit else instruction.on_zero) @ state
        if check_norm:
            drift = abs(np.linalg.norm(state) - 1.0)
            if drift > NORM_TOL:
                raise ArithmeticError(f"state norm drifted by {drift:.3e}")
    if program.post_transform is not None:
        state = program.post_transform @ state
    return state


def accept_probability(program: QuantumBranchingProgram, bits: Sequence[int]) -> float:
    state = run(program, bits)
    amplitudes = state[list(program.accepting)]
    return float(np.sum(np.abs(amplitudes) ** 2))


def _apply_blocks(blocks: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each b x b block times its own b rows of every column of states."""
    count, size, _ = blocks.shape
    return np.matmul(blocks, states.reshape(count, size, -1)).reshape(states.shape)


def _squared_norms(states: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(states):
        return _squared_norms(states.real) + _squared_norms(states.imag)
    return np.einsum("dc,dc->c", states, states)


def _norm_drift(states: np.ndarray) -> float:
    return float(np.max(np.abs(np.sqrt(_squared_norms(states)) - 1.0)))


def _sweep_tile(
    form: BlockForm, bit_matrix: np.ndarray, track_norms: bool
) -> tuple[np.ndarray, float]:
    states = np.repeat(form.start[:, None], bit_matrix.shape[0], axis=1)
    max_drift = 0.0
    for column, on_zero, on_one in form.reads:
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
    if form.post is not None:
        states = _apply_blocks(form.post, states)
    if track_norms:
        max_drift = max(max_drift, _norm_drift(states))
    return _squared_norms(states[form.accepting]), max_drift


def sweep_accept_probabilities(
    program: QuantumBranchingProgram,
    bit_matrix: np.ndarray,
    track_norms: bool = True,
) -> tuple[np.ndarray, float]:
    """Acceptance probabilities for a whole batch of inputs at once.

    bit_matrix has one input per row.  Column v of the internal state matrix
    goes through the same steps run() applies to input v, on the program's
    block form: each read multiplies the column by the on_one blocks when the
    bit is 1 and by the on_zero blocks otherwise.  The results match
    accept_probability up to floating-point rounding.  Returns the
    probabilities and the largest norm drift observed after any read or the
    post-transform.
    """
    count, width = bit_matrix.shape
    if width != program.arity:
        raise LengthMismatchError(f"expected arity {program.arity}, got {width}")
    form = program.block_form
    # Inputs go through in tiles whose states stay in a core's cache across
    # all reads, instead of streaming the whole batch from memory per read.
    tile = max(1, _TILE_ENTRIES // program.dimension)
    probabilities = np.empty(count)
    max_drift = 0.0
    for start in range(0, count, tile):
        stop = min(start + tile, count)
        probabilities[start:stop], drift = _sweep_tile(
            form, bit_matrix[start:stop], track_norms
        )
        max_drift = max(max_drift, drift)
    return probabilities, max_drift


def metrics(program: QuantumBranchingProgram) -> ProgramMetrics:
    return ProgramMetrics(
        width=program.dimension,
        length=len(program.instructions),
        qubits=math.ceil(math.log2(program.dimension)),
    )


def _matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _matrix_from_json(data: list) -> np.ndarray:
    return np.array(
        [[complex(re, im) for re, im in row] for row in data], dtype=np.complex128
    )


def program_to_json_dict(program: QuantumBranchingProgram) -> dict:
    return {
        "dimension": program.dimension,
        "arity": program.arity,
        "pre_transform": (
            None if program.pre_transform is None else _matrix_to_json(program.pre_transform)
        ),
        "instructions": [
            {
                "variable": instruction.variable_index,
                "on_zero": _matrix_to_json(instruction.on_zero),
                "on_one": _matrix_to_json(instruction.on_one),
            }
            for instruction in program.instructions
        ],
        "post_transform": (
            None
            if program.post_transform is None
            else _matrix_to_json(program.post_transform)
        ),
        "initial_state": [
            [float(z.real), float(z.imag)] for z in program.initial_state
        ],
        "accepting": list(program.accepting),
    }


def program_from_json_dict(data: dict) -> QuantumBranchingProgram:
    """The program program_to_json_dict wrote; ValueError on a missing key, a
    wrong type or a missing entry.  The result is not validated: see validate()."""
    with _malformed("program file"):
        return QuantumBranchingProgram(
            dimension=int(data["dimension"]),
            arity=int(data["arity"]),
            instructions=tuple(
                Instruction(
                    variable_index=int(entry["variable"]),
                    on_zero=_matrix_from_json(entry["on_zero"]),
                    on_one=_matrix_from_json(entry["on_one"]),
                )
                for entry in data["instructions"]
            ),
            initial_state=np.array(
                [complex(re, im) for re, im in data["initial_state"]], dtype=np.complex128
            ),
            accepting=tuple(int(i) for i in data["accepting"]),
            pre_transform=(
                None
                if data.get("pre_transform") is None
                else _matrix_from_json(data["pre_transform"])
            ),
            post_transform=(
                None
                if data.get("post_transform") is None
                else _matrix_from_json(data["post_transform"])
            ),
        )


def save_program(program: QuantumBranchingProgram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(program_to_json_dict(program), handle)


def load_program(path: str) -> QuantumBranchingProgram:
    with open(path, "r", encoding="utf-8") as handle:
        return program_from_json_dict(json.load(handle))
