"""Reference implementations the tests compare the library against.

Nothing in the package calls these: the commands and certifications run
the batched paths they check.  pytest does not collect this module; tests
import it as ``reference``.

- run: the dense per-input simulation, every stack expanded to its d x d
  matrix, next to the batched sweeps.
- validate, is_unitary and is_read_once: program invariants checked on
  compiled and hand-built programs.
- truth_table_to_sop: minterm SOP formulas for exhaustive SOP tests.
- azuma_failure_bound and cosine_sum: the sampling bound and the
  one-residue goodness value.
- all_inputs: every input of an arity as one bit matrix.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from qobdd.errors import LengthMismatchError
from qobdd.goodsets import GoodSet, _cosine_kernel, _nonzero_residues
from qobdd.polynomials import SOPFormula
from qobdd.programs import NORM_TOL, QuantumBranchingProgram, _blocks
from qobdd.verification import _input_walk

UNITARY_TOL = 1e-9


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
    gram = blocks.transpose(0, 2, 1) @ blocks
    return bool(np.max(np.abs(gram - np.eye(size)), initial=0.0) <= tol)


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
    for step, instruction in enumerate(program.instructions, start=1):
        if not (1 <= instruction.variable_index <= program.arity):
            violations.append(
                f"instruction {step}: variable index {instruction.variable_index} "
                f"out of range [1, {program.arity}]"
            )
        matrix = instruction.on_one
        if (
            matrix.ndim not in (2, 3)
            or matrix.shape[-2] != matrix.shape[-1]
            or math.prod(matrix.shape[:-1]) != d
        ):
            violations.append(
                f"instruction {step}: U(1) has shape {matrix.shape}, expected "
                f"({d}, {d}) or (n, b, b) with n * b = {d}"
            )
        elif not is_unitary(matrix):
            violations.append(f"instruction {step}: U(1) is non-unitary")
    return violations


def is_read_once(program: QuantumBranchingProgram) -> bool:
    indices = [instruction.variable_index for instruction in program.instructions]
    return len(indices) == len(set(indices))


def run(
    program: QuantumBranchingProgram,
    bits: Sequence[int],
    check_norm: bool = True,
) -> np.ndarray:
    """Final state after reading the input bits in instruction order, before
    the measurement.

    The dense per-input reference: every stack is expanded to its d x d
    matrix.  Sweeps and accept_probability do not use it.
    """
    if len(bits) != program.arity:
        raise LengthMismatchError(
            f"expected {program.arity} bits, got {len(bits)}"
        )
    state = program.initial_state.copy()
    for instruction in program.instructions:
        if bits[instruction.variable_index - 1]:
            state = _block_diagonal(instruction.on_one) @ state
        if check_norm:
            drift = abs(np.linalg.norm(state) - 1.0)
            if drift > NORM_TOL:
                raise ArithmeticError(f"state norm drifted by {drift:.3e}")
    return state


def truth_table_to_sop(table: Sequence[int]) -> SOPFormula:
    """Minterm SOP for the function given by a truth table of NOT f.

    Row v of the table is the assignment whose bits are the n-bit binary
    representation of v, most significant bit = x_1.  One full minterm is
    emitted per row where the table holds 1.
    """
    size = len(table)
    if size < 2 or size & (size - 1):
        raise ValueError(f"table length must be a power of two >= 2, got {size}")
    arity = size.bit_length() - 1
    products = []
    for row, value in enumerate(table):
        if value:
            bits = [(row >> (arity - 1 - j)) & 1 for j in range(arity)]
            products.append(
                tuple((j + 1) if bits[j] else -(j + 1) for j in range(arity))
            )
    return SOPFormula(arity=arity, products=tuple(products))


def azuma_failure_bound(epsilon: float, t: int) -> float:
    """2 exp(-eps t / 2): probability a random size-t set fails for one residue."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return 2.0 * math.exp(-epsilon * t / 2.0)


def cosine_sum(good_set: GoodSet, b: int) -> float:
    """(1/t^2) (sum_i cos(2 pi (k_i b mod m) / m))^2 for b != 0 mod m."""
    return float(_cosine_kernel(_nonzero_residues(good_set, b), good_set)[0])


def all_inputs(arity: int) -> np.ndarray:
    _, (bits,) = _input_walk(arity, "exhaustive", chunk_size=1 << arity)
    return bits
