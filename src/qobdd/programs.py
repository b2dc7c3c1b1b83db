"""Quantum branching programs and their exact state-vector simulation.

A program is an initial state, a sequence of instructions (variable index,
U(0), U(1)) acting on the d-dimensional state, an optional input-independent
transform after the variable reads, and a set of accepting basis indices.
Running a program on a bit string applies the matrix selected by each read
bit in sequence order; the acceptance probability is the squared norm of the
projection onto the accepting indices.

Every matrix is stored as a stack of diagonal blocks, shape (d/b, b, b): a
compiled read acts on each branch's target register alone, so it is t
independent 2 x 2 (or 2^l x 2^l) rotations and costs O(d b) per input
instead of O(d^2).  A dense (d, d) matrix is the one-block stack.  Arrays are
float64 when they have no imaginary part, so real programs are simulated in
real arithmetic.  sweep_accept_probabilities simulates a batch of inputs on
the stacks, and accept_probability is its 1-row case; a block of exhaustive
inputs that share their leading bits shares the reads of those bits too.
run() expands every stack to its dense matrix and is kept as the
independent per-input reference.  The post-transform exists so the final
Hadamard layer and the constant-coefficient rotations do not consume a
variable read, keeping compiled programs read-once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, _malformed

UNITARY_TOL = 1e-9
NORM_TOL = 1e-9
_TILE_ENTRIES = 1 << 17


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
    """A width-d program; every matrix, the post-transform included, is a
    stack of diagonal blocks as in Instruction."""

    dimension: int
    arity: int
    instructions: tuple[Instruction, ...]
    initial_state: np.ndarray
    accepting: tuple[int, ...]
    post_transform: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_state", _frozen(self.initial_state))
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "accepting", tuple(sorted(self.accepting)))
        if self.post_transform is not None:
            object.__setattr__(self, "post_transform", _frozen(self.post_transform))


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
    labelled = [("post-transform", program.post_transform)]
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


def _apply_blocks(
    stack: np.ndarray, states: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Each b x b block times its own b rows of every column of states,
    written to out (a (d, k) array or view, which may be states) if given."""
    blocks = _blocks(stack)
    count, size, _ = blocks.shape
    columns = states.shape[1]
    if out is not None:
        out = out.reshape(count, size, columns)
    product = np.matmul(blocks, states.reshape(count, size, columns), out=out)
    return product.reshape(states.shape)


def _is_identity(stack: np.ndarray) -> bool:
    blocks = _blocks(stack)
    return np.array_equal(blocks, np.broadcast_to(np.eye(blocks.shape[-1]), blocks.shape))


def _squared_norms(states: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(states):
        return _squared_norms(states.real) + _squared_norms(states.imag)
    return np.einsum("dc,dc->c", states, states)


def _norm_drift(states: np.ndarray) -> float:
    return float(np.max(np.abs(np.sqrt(_squared_norms(states)) - 1.0)))


def _accepted(
    program: QuantumBranchingProgram,
    states: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """The post-transform (into out, if given), then each column's acceptance
    probability, and the norm drift after the post-transform."""
    if program.post_transform is not None:
        states = _apply_blocks(program.post_transform, states, out=out)
    return _squared_norms(states[list(program.accepting)]), _norm_drift(states)


def _sweep_tile(
    program: QuantumBranchingProgram,
    reads: list[tuple[int, np.ndarray | None, np.ndarray]],
    bit_matrix: np.ndarray,
) -> tuple[np.ndarray, float]:
    states = np.repeat(program.initial_state[:, None], bit_matrix.shape[0], axis=1)
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
        max_drift = max(max_drift, _norm_drift(states))
    probabilities, drift = _accepted(program, states)
    return probabilities, max(max_drift, drift)


def _enumeration_doublings(
    program: QuantumBranchingProgram, bit_matrix: np.ndarray
) -> int | None:
    """c when the program reads x_1..x_n once, in order, and the rows are 2^c
    consecutive rows of the exhaustive enumeration (x_1 the most significant
    bit) from a multiple of 2^c: rows that share their first n - c bits and
    run through every value of the last c in order.  None otherwise."""
    count, n = bit_matrix.shape
    if count < 2 or count & (count - 1) or count.bit_length() - 1 > n:
        return None
    if [instruction.variable_index for instruction in program.instructions] != list(
        range(1, n + 1)
    ):
        return None
    c = count.bit_length() - 1
    suffixes = (np.arange(count)[:, None] >> np.arange(c - 1, -1, -1)) & 1
    shared = bit_matrix[:, : n - c]
    if np.array_equal(bit_matrix[:, n - c :], suffixes) and (shared == shared[0]).all():
        return c
    return None


def _bit_reversal(bits: int) -> np.ndarray:
    """order[v] = v with its `bits` binary digits reversed."""
    order = np.zeros(1, dtype=np.intp)
    for _ in range(bits):
        order = np.concatenate((2 * order, 2 * order + 1))
    return order


def _doubled(
    column: np.ndarray,
    reads: list[tuple[int, np.ndarray | None, np.ndarray]],
    states: np.ndarray,
) -> float:
    """Fill states, (d, 2^r), with a (d, 1) state column after each of the
    2^r bit patterns of r reads; return the largest drift.

    Each read doubles the filled columns: it writes the on_one half after
    them and applies on_zero to them in place (unless it is the identity),
    so column j holds the pattern whose bits, read in order, spell j
    backwards.  Every state a read produces is measured once: before an
    on_zero overwrites it, or at the end.
    """
    states[:, :1] = column
    max_drift = 0.0
    filled = 1
    for _, on_zero, on_one in reads:
        old = states[:, :filled]
        _apply_blocks(on_one, old, out=states[:, filled : 2 * filled])
        if on_zero is not None:
            max_drift = max(max_drift, _norm_drift(old))
            _apply_blocks(on_zero, old, out=old)
        filled *= 2
    return max(max_drift, _norm_drift(states))


def _completions(
    program: QuantumBranchingProgram,
    column: np.ndarray,
    groups: list[list[tuple[int, np.ndarray | None, np.ndarray]]],
    buffers: list[np.ndarray],
) -> tuple[np.ndarray, float]:
    """Acceptance of a (d, 1) state column after every bit pattern of the
    grouped reads, and the largest drift.

    The first group doubles the column into its buffer, up to its roots;
    each root then runs the remaining groups on its own, reusing their
    buffers, so no state array outgrows a group's.  The last buffer takes
    the post-transform.  The probabilities come root by root, each group's
    patterns bit-reversed as _doubled leaves them; _completion_order undoes
    that.
    """
    states = buffers[0]
    max_drift = _doubled(column, groups[0], states)
    if len(groups) == 1:
        probabilities, drift = _accepted(program, states, out=buffers[1])
        return probabilities, max(max_drift, drift)
    parts = []
    for root in range(states.shape[1]):
        probabilities, drift = _completions(
            program, states[:, root : root + 1], groups[1:], buffers[1:]
        )
        parts.append(probabilities)
        max_drift = max(max_drift, drift)
    return np.concatenate(parts), max_drift


def _completion_order(sizes: list[int]) -> np.ndarray:
    """order[v] = the position _completions gives the bit pattern v, for
    groups of the given sizes."""
    order = np.zeros(1, dtype=np.intp)
    for size in sizes:
        order = ((order[:, None] << size) | _bit_reversal(size)[None, :]).ravel()
    return order


def _sweep_shared_prefix(
    program: QuantumBranchingProgram,
    reads: list[tuple[int, np.ndarray | None, np.ndarray]],
    first_row: np.ndarray,
    doublings: int,
    tile: int,
) -> tuple[np.ndarray, float]:
    """The sweep of 2^c enumeration rows (see _enumeration_doublings).

    The n - c reads the rows share run once, on one column, and the last c
    double it (see _doubled) in groups of at most log2(tile) reads, the
    last group the largest.
    """
    shared = len(reads) - doublings
    column = program.initial_state[:, None]
    max_drift = 0.0
    for position, on_zero, on_one in reads[:shared]:
        if first_row[position]:
            column = _apply_blocks(on_one, column)
        elif on_zero is not None:
            column = _apply_blocks(on_zero, column)
        max_drift = max(max_drift, _norm_drift(column))
    size = max(1, tile.bit_length() - 1)
    bounds = list(range(len(reads), shared, -size))[::-1]
    groups = [reads[a:b] for a, b in zip([shared] + bounds[:-1], bounds)]
    dtype = np.result_type(
        program.initial_state, *(array for read in reads for array in read[1:] if array is not None)
    )
    buffers = [np.empty((program.dimension, 1 << len(group)), dtype) for group in groups]
    post = program.post_transform
    buffers.append(
        None if post is None else np.empty_like(buffers[-1], np.result_type(dtype, post))
    )
    probabilities, drift = _completions(program, column, groups, buffers)
    order = _completion_order([len(group) for group in groups])
    return probabilities[order], max(max_drift, drift)


def sweep_accept_probabilities(
    program: QuantumBranchingProgram,
    bit_matrix: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Acceptance probabilities for a whole batch of inputs at once.

    bit_matrix has one input per row.  Column v of the internal state matrix
    goes through the same steps run() applies to input v, each read as d/b
    independent b x b products: the on_one blocks when the bit is 1 and the
    on_zero blocks otherwise (skipped when they are the identity).  When
    the rows are 2^c aligned consecutive rows of the exhaustive enumeration
    and the program reads x_1..x_n once, in order, the n - c reads they
    share are applied once, to one column, and the last c double it
    (_sweep_shared_prefix); any other batch runs in column tiles.  The
    arithmetic is float64 exactly when every array of the program is.  The
    results match run() up to floating-point rounding.  Returns the
    probabilities and the largest norm drift observed after any read or the
    post-transform.
    """
    count, width = bit_matrix.shape
    if width != program.arity:
        raise LengthMismatchError(f"expected arity {program.arity}, got {width}")
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
    doublings = _enumeration_doublings(program, bit_matrix)
    if doublings is not None:
        return _sweep_shared_prefix(program, reads, bit_matrix[0], doublings, tile)
    probabilities = np.empty(count)
    max_drift = 0.0
    for first in range(0, count, tile):
        stop = min(first + tile, count)
        probabilities[first:stop], drift = _sweep_tile(program, reads, bit_matrix[first:stop])
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


# Kept because perfbench/tracing.py patches it by name; the CLI uses recipes.
def program_to_json_dict(program: QuantumBranchingProgram) -> dict:
    return {
        "dimension": program.dimension,
        "arity": program.arity,
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


# Kept because perfbench/tracing.py patches it by name; the CLI uses recipes.
def program_from_json_dict(data: dict) -> QuantumBranchingProgram:
    """The program program_to_json_dict wrote, its matrices as dense (d, d)
    arrays or as (n, b, b) stacks; ValueError on a missing key, a wrong type,
    a missing entry, an entry that is not a [re, im] pair, or a non-null
    pre_transform (a layout programs no longer have).  The result is not
    validated: see validate()."""
    with _malformed("program file"):
        program = QuantumBranchingProgram(
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
            post_transform=(
                None
                if data.get("post_transform") is None
                else _array_from_json(data["post_transform"])
            ),
        )
    if data.get("pre_transform") is not None:
        raise ValueError("malformed program file: programs no longer take a pre_transform")
    return program
