"""Quantum branching programs and their exact state-vector simulation.

A program is a real initial state, a sequence of reads and a set of
accepting basis indices.  A read names a variable x_j and holds U(1): it
applies U(1) when x_j = 1 and nothing when x_j = 0.  That is the paper's
circuit, where every level is an R_y rotation controlled by x_j.  Every
array is float64, so every amplitude is real.  The acceptance probability is
the squared norm of the projection onto the accepting indices or, when the
program interferes, |<u|psi>|^2 for u their uniform superposition.

Every U(1) is a stack of diagonal blocks, shape (d/b, b, b).  A compiled
read rotates each branch's targets alone, so it costs O(d b) per input
instead of O(d^2).  A dense (d, d) matrix is the one-block stack.

sweep_accept_probabilities simulates a batch of inputs, and
accept_probability is its 1-row case.  The state after k reads depends only
on the first k values read.  So every batch is sorted on its read values,
and the reads all its rows share run once, on one column.  Two kernels take
the rest.  A batch holding every pattern of the remaining reads (an
exhaustive chunk, in any read order) doubles the column at each read, in
groups of reads that each fill at most a tile: the first group doubles the
one column, and each later group doubles a whole batch of the states before
it at once, because a block product on a few columns costs about as much as
one on a tile.  Any other batch is swept in tiles with one column per
distinct read prefix, laid out after each read as the prefixes that read 0
and then those that read 1: a read gathers the parent columns once and
applies U(1) to the one children alone, with no mask.  Both stay: one kernel
alone measured 1.2-4.9x slower on exhaustive chunks.  The tests hold both
against a dense per-input simulation that expands every stack to its d x d
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, _json_int, _malformed

NORM_TOL = 1e-9
_TILE_ENTRIES = 1 << 17
_KEY_READS = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only C-ordered float64 copy of the array.  TypeError when an
    entry has a nonzero imaginary part."""
    array = np.asarray(array)
    if np.iscomplexobj(array):
        if np.any(array.imag):
            raise TypeError("program arrays are real: got a complex entry")
        array = array.real
    out = np.array(array, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


def _blocks(stack: np.ndarray) -> np.ndarray:
    """A stack of b x b diagonal blocks as (d/b, b, b); a (d, d) matrix is
    the one-block stack."""
    size = stack.shape[-1]
    return stack.reshape(-1, size, size)


@dataclass(frozen=True)
class Instruction:
    """One variable read: apply on_one, U(1), when the bit is 1 and nothing
    when it is 0.

    on_one is a stack of diagonal blocks, (d/b, b, b), or a dense (d, d)
    matrix, the one-block stack.
    """

    variable_index: int
    on_one: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_one", _frozen(self.on_one))


@dataclass(frozen=True)
class ProgramMetrics:
    width: int
    length: int
    qubits: int


@dataclass(frozen=True)
class QuantumBranchingProgram:
    """A width-d program; every matrix is a stack of diagonal blocks as in
    Instruction.  An interfering program measures its final state against
    the uniform superposition of its accepting basis states."""

    dimension: int
    arity: int
    instructions: tuple[Instruction, ...]
    initial_state: np.ndarray
    accepting: tuple[int, ...]
    interfere: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_state", _frozen(self.initial_state))
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "accepting", tuple(sorted(self.accepting)))


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


def _squared_norms(states: np.ndarray) -> np.ndarray:
    return np.einsum("dc,dc->c", states, states)


def _norm_drift(states: np.ndarray) -> float:
    return float(np.max(np.abs(np.sqrt(_squared_norms(states)) - 1.0)))


def _accepting_rows(accepting: tuple[int, ...]) -> slice | list[int]:
    """A selector of the accepting rows of a state array: a slice, which
    reads them in place, when they are evenly spaced, as every compiled
    program's are (i * 2^l); their index list, which copies them, otherwise."""
    if accepting:
        first, last = accepting[0], accepting[-1]
        step = accepting[1] - first if len(accepting) > 1 else 1
        if step > 0 and accepting == tuple(range(first, last + 1, step)):
            return slice(first, last + 1, step)
    return list(accepting)


def _accepted(
    program: QuantumBranchingProgram, states: np.ndarray, accepting: slice | list[int]
) -> np.ndarray:
    """Each column's acceptance probability, from the accepting rows alone
    (accepting selects them, see _accepting_rows): |<u|psi>|^2 when the
    program interferes, the projection's squared norm otherwise."""
    rows = states[accepting]
    if not program.interfere:
        return _squared_norms(rows)
    return _squared_norms(rows.sum(axis=0, keepdims=True)) / rows.shape[0]


def _sweep_sorted_tile(
    program: QuantumBranchingProgram,
    values: np.ndarray,
    start: int,
    column: np.ndarray,
    buffers: list[np.ndarray],
    accepting: slice | list[int],
) -> tuple[np.ndarray, float]:
    """Acceptance of a tile of sorted rows, with one state column per
    distinct read prefix.

    values[k, i] is row i's bit at read k.  Every row shares its first start
    reads, after which the state is column.  Row i's state is column at[i] of
    buffers[0], whose columns are laid out, after each read, as the prefixes
    that read 0 and then the prefixes that read 1.  A read gathers each
    child's parent column into buffers[1], zero children first, and applies
    on_one to the one children alone, into the buffer the gather freed; the
    products are copied back and their drift is measured there, once, and a
    zero child is its parent's state, measured already.  So a read computes
    only the states it produces.  There is no mask: applying on_one to every
    column and keeping the products where the bit is 1 by np.putmask cost
    more than the products it kept (on a (512, 256) tile, about 150 us for
    the masked write against 90 us for the product).  A read that no row
    reads as 1 changes nothing, and one that every row reads as 1 runs on
    every column in order.  The buffers swap, so no state array is allocated
    per read.  accepting selects the accepting rows (_accepting_rows).
    """
    d = program.dimension

    def view(flat: np.ndarray, columns: int) -> np.ndarray:
        return flat[: d * columns].reshape(d, columns)

    at = np.zeros(values.shape[1], dtype=np.intp)
    count = 1
    view(buffers[0], count)[:] = column
    max_drift = 0.0
    for bits, instruction in zip(values[start:], program.instructions[start:]):
        if not bits.any():
            continue
        states = view(buffers[0], count)
        if bits.all():
            product = _apply_blocks(instruction.on_one, states, out=view(buffers[1], count))
        else:
            # A row's child is its column, plus count when it reads 1; present
            # marks the zero children, then the one children, in parent order.
            keys = at + count * bits
            present = np.zeros(2 * count, dtype=bool)
            present[keys] = True
            at = (np.cumsum(present) - 1)[keys]
            parents = np.flatnonzero(present)
            zeros = np.count_nonzero(present[:count])
            parents[zeros:] -= count
            count = parents.size
            children = view(buffers[1], count)
            # The indices are in range; mode="raise" would buffer out.
            np.take(states, parents, axis=1, out=children, mode="clip")
            product = _apply_blocks(
                instruction.on_one, children[:, zeros:], out=view(buffers[0], count - zeros)
            )
            children[:, zeros:] = product
        buffers.reverse()
        max_drift = max(max_drift, _norm_drift(product))
    return _accepted(program, view(buffers[0], count), accepting)[at], max_drift


def _completions(
    program: QuantumBranchingProgram,
    roots: np.ndarray,
    groups: list[Sequence[Instruction]],
    buffers: list[np.ndarray],
    accepting: slice | list[int],
) -> tuple[np.ndarray, float]:
    """Acceptance of each state column of roots after every bit pattern of
    the grouped reads, and the largest drift.

    Every group's buffer has the same columns, a tile at most.  A group of
    g reads doubles its roots in batches of (buffer columns >> g), so each
    batch fills the buffer: the batch is copied to the buffer's head, and
    each read writes the on_one products of the filled columns after them.
    So read i sets bit i of a pattern p, and column p k + j holds root j of
    a k-root batch after p.  The first group doubles the one shared column,
    and each filled buffer holds the roots of the next group.  Later groups
    double whole batches because a block product on a few columns
    costs about as much as one on many (a (128, 4, 4) matmul: 7 us on 1 or
    16 columns, 19 us on 128): doubling roots one at a time spent most of
    the sweep on calls.  Every state a read produces reaches a buffer of
    the last group, as a root or a product, and its drift is measured
    there, once.  The probabilities come batch by batch, in the order
    sweep_accept_probabilities undoes.
    """
    group, states = groups[0], buffers[0]
    batch = states.shape[1] >> len(group)
    parts = []
    max_drift = 0.0
    for first in range(0, roots.shape[1], batch):
        filled = batch
        states[:, :filled] = roots[:, first : first + batch]
        for instruction in group:
            _apply_blocks(instruction.on_one, states[:, :filled], out=states[:, filled : 2 * filled])
            filled *= 2
        if len(groups) == 1:
            parts.append(_accepted(program, states, accepting))
            drift = _norm_drift(states)
        else:
            probabilities, drift = _completions(
                program, states, groups[1:], buffers[1:], accepting
            )
            parts.append(probabilities)
        max_drift = max(max_drift, drift)
    return np.concatenate(parts), max_drift


def _tiling(dimension: int) -> tuple[int, int]:
    """The columns of a tile, whose states stay in a core's cache across all
    reads, and the reads of a doubling group, which fills at most a tile."""
    tile = max(1, _TILE_ENTRIES // dimension)
    return tile, max(1, tile.bit_length() - 1)


def sweep_buffer_bytes(dimension: int, reads: int) -> int:
    """The most bytes of state buffers one sweep of a real program of this
    width and read count allocates, whatever its batch: the tiles' two
    state buffers, plus the doubling path's buffer per group (it doubles at
    most _KEY_READS reads: no batch holds more patterns)."""
    tile, size = _tiling(dimension)
    groups = -(-min(reads, _KEY_READS) // size)
    return dimension * tile * 2 * 8 + groups * dimension * (8 << size)


def sweep_accept_probabilities(
    program: QuantumBranchingProgram,
    bit_matrix: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Acceptance probabilities for a whole batch of inputs at once.

    bit_matrix has one input per row.  Column v of the internal state matrix
    goes through the reads in instruction order, each read as d/b
    independent b x b products of the on_one blocks when the bit is 1, and
    nothing when it is 0.  Every batch takes one path.  Its rows' read values
    (their bits in instruction order, so any read order or repeated read
    needs no special case) are sorted on their first _KEY_READS reads,
    packed into one uint64 key with the first read the most significant bit;
    an ascending batch, such as an exhaustive chunk read in variable order,
    is not reordered.  The reads every row shares run once, on one column.
    When no read is left, that column is every row's state.  When the rows
    are every bit pattern of the remaining reads, once each, the column
    doubles at each of them (_completions), in groups of at most log2(tile)
    reads, the first group the largest, and every group after the first
    doubles a batch of roots at once.  Any other batch is swept in tiles of
    sorted rows, each starting from the column and keeping one state column
    per distinct read prefix, the prefixes that read 0 before those that
    read 1, so each read applies on_one to the columns whose bit is 1 alone
    (_sweep_sorted_tile).  The results match a dense
    per-input simulation up to floating-point rounding.  Returns the
    probabilities and the largest norm drift of the initial state or any
    state a read produces.
    """
    count, width = bit_matrix.shape
    if width != program.arity:
        raise LengthMismatchError(f"expected arity {program.arity}, got {width}")
    if count == 0:
        return np.empty(0), 0.0
    reads = program.instructions
    values = bit_matrix.T[[instruction.variable_index - 1 for instruction in reads]] != 0
    key_reads = min(len(reads), _KEY_READS)
    padded = np.zeros((count, _KEY_READS), dtype=bool)
    padded[:, :key_reads] = values[:key_reads].T
    keys = np.packbits(padded).view(">u8").astype(np.uint64)
    order = slice(None)
    if not np.all(keys[:-1] <= keys[1:]):
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], np.take(values, order, axis=1)
    # The reads all rows share: the key reads before the first bit at which
    # the smallest and largest keys differ, and past the key any further
    # reads on which every row agrees.
    shared = min(_KEY_READS - int(keys[0] ^ keys[-1]).bit_length(), key_reads)
    if shared == key_reads < len(reads):
        agree = (values[shared:] == values[shared:, :1]).all(axis=1)
        shared += int(np.append(agree, False).argmin())
    column = program.initial_state[:, None]
    max_drift = _norm_drift(column)
    for instruction, bit in zip(reads[:shared], values[:shared, 0]):
        if bit:
            column = _apply_blocks(instruction.on_one, column)
            max_drift = max(max_drift, _norm_drift(column))
    accepting = _accepting_rows(program.accepting)
    tile, size = _tiling(program.dimension)
    if shared == len(reads):
        swept, drift = np.repeat(_accepted(program, column, accepting), count), 0.0
    elif count == 1 << (len(reads) - shared) and np.all(keys[:-1] != keys[1:]):
        # 2^r distinct keys over r unshared reads are every pattern of them;
        # past 64 reads there are too few key bits for that many.
        width = min(len(reads) - shared, size)
        bounds = list(range(shared + width, len(reads), size)) + [len(reads)]
        starts = [shared] + bounds[:-1]
        groups = [reads[a:b] for a, b in zip(starts, bounds)]
        # One block for every group's buffer: freed whole, it is reused by the
        # next sweep rather than faulted in afresh, as separate buffers were
        # (glibc malloc: 4,784 against 8 page faults per HSF Z_8/<4> certify).
        buffers = list(np.empty((len(groups), program.dimension, 1 << width)))
        swept, drift = _completions(program, column, groups, buffers, accepting)
        # Each row's position among the patterns, as _completions orders them.
        # low lists the reads that set the bits of a column of the current
        # group's buffer, low to high: the root bits a batch keeps, then the
        # group's reads.  The root bits that number the batch move to high:
        # they sit above the bits of every completion of the batch.
        low, high = [], []
        for a, b in zip(starts, bounds):
            batch = width - (b - a)
            low, high = low[:batch] + list(range(a, b)), low[batch:] + high
        index = np.zeros(count, dtype=np.intp)
        for shift, k in enumerate(low + high):
            index |= np.left_shift(values[k], shift, dtype=np.intp)
        swept = swept[index]
    else:
        entries = program.dimension * min(tile, count)
        buffers = [np.empty(entries), np.empty(entries)]
        swept = np.empty(count)
        drift = 0.0
        for first in range(0, count, tile):
            stop = min(first + tile, count)
            swept[first:stop], tile_drift = _sweep_sorted_tile(
                program, values[:, first:stop], shared, column, buffers, accepting
            )
            drift = max(drift, tile_drift)
    probabilities = np.empty(count)
    probabilities[order] = swept
    return probabilities, max(max_drift, drift)


def metrics(program: QuantumBranchingProgram) -> ProgramMetrics:
    return ProgramMetrics(
        width=program.dimension,
        length=len(program.instructions),
        qubits=math.ceil(math.log2(program.dimension)),
    )


def _array_to_json(array: np.ndarray) -> list:
    """The array in its own shape, each entry a [re, im] pair."""
    return np.stack((array, np.zeros_like(array)), axis=-1).tolist()


def _array_from_json(data: list) -> np.ndarray:
    """The array _array_to_json wrote; TypeError unless every innermost entry
    is a [re, im] pair of numbers (a nonzero im is refused by _frozen)."""
    try:
        parts = np.array(data)
    except ValueError as error:  # ragged nesting
        raise TypeError(str(error)) from error
    if parts.dtype.kind not in "biuf" or parts.ndim < 2 or parts.shape[-1] != 2:
        raise TypeError("expected nested lists of [re, im] numbers")
    return parts[..., 0] + 1j * parts[..., 1]


# Kept because perfbench/tracing.py patches it by name; the CLI uses recipes.
def program_to_json_dict(program: QuantumBranchingProgram) -> dict:
    return {
        "dimension": program.dimension,
        "arity": program.arity,
        "instructions": [
            {"variable": instruction.variable_index, "on_one": _array_to_json(instruction.on_one)}
            for instruction in program.instructions
        ],
        "initial_state": _array_to_json(program.initial_state),
        "accepting": list(program.accepting),
        "interfere": program.interfere,
    }


# Kept because perfbench/tracing.py patches it by name; the CLI uses recipes.
def program_from_json_dict(data: dict) -> QuantumBranchingProgram:
    """The program program_to_json_dict wrote, its matrices as dense (d, d)
    arrays or as (n, b, b) stacks; ValueError on a missing key, a wrong type
    (interfere must be a JSON bool), a missing entry, an entry that is not a
    [re, im] pair, a nonzero imaginary part, or a layout programs no longer
    have: a non-null U(0) or pre- or post-transform.  The result is not
    checked for unitary reads or a normalized state."""

    def read(entry) -> Instruction:
        variable = _json_int(entry["variable"])
        if entry.get("on_zero") is not None:
            raise ValueError(
                "malformed program file: reads act on x_j = 1 only, so on_zero must be null"
            )
        return Instruction(variable, _array_from_json(entry["on_one"]))

    with _malformed("program file"):
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        for stage in ("pre", "post"):
            if data.get(f"{stage}_transform") is not None:
                raise ValueError(
                    f"malformed program file: programs no longer take a {stage}-transform"
                )
        interfere = data["interfere"]
        if not isinstance(interfere, bool):
            raise TypeError(f"interfere must be a JSON bool, got {interfere!r}")
        program = QuantumBranchingProgram(
            dimension=_json_int(data["dimension"]),
            arity=_json_int(data["arity"]),
            instructions=tuple(read(entry) for entry in data["instructions"]),
            initial_state=_array_from_json(data["initial_state"]),
            accepting=tuple(_json_int(i) for i in data["accepting"]),
            interfere=interfere,
        )
    return program
