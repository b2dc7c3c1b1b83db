"""Reference implementations the tests compare the library against.

Nothing in the package calls these, and none of them calls the package
code it is used to check: the commands and certifications run the batched
paths they check.  pytest does not collect this module; tests
import it as ``reference``.

- run: the dense per-input simulation, every stack expanded to its d x d
  matrix, next to the batched sweeps.
- validate, is_unitary and is_read_once: program invariants checked on
  compiled and hand-built programs.
- truth_table_to_sop: minterm SOP formulas for exhaustive SOP tests.
- azuma_failure_bound and cosine_sum: the sampling bound and the
  one-residue goodness value, from the formula in Python integers and
  math.cos.
- closed_form_general_product: the generalized closed form as the mean of
  the per-branch products of squared cosines, one cosine per row, branch
  and polynomial, next to the library's sum over the cosine spectrum.
- all_inputs: every input of an arity as one bit matrix, from
  itertools.product.
- popcount_mod_oracle, equality_oracle, palindrome_oracle and
  permutation_matrix_oracle: the named functions' per-input oracles.
- decode_input, hsf_eval and satisfies_promise: the hidden-subgroup
  decoder, predicate and promise on one input, bit by bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from qobdd.compiler import evaluate_linear_batch
from qobdd.errors import LengthMismatchError, PromiseViolation, ZeroResidueError
from qobdd.goodsets import GoodSet, _residue_products
from qobdd.hsf import HSFInstance
from qobdd.polynomials import Characteristic, SOPFormula
from qobdd.programs import NORM_TOL, QuantumBranchingProgram

UNITARY_TOL = 1e-9


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
    m, b = good_set.modulus, int(b)
    if b % m == 0:
        raise ZeroResidueError("goodness is undefined for b == 0 (mod m)")
    total = sum(math.cos(2.0 * math.pi * ((k * b) % m / m)) for k in good_set.parameters)
    return (total / good_set.size) ** 2


def closed_form_general_product(
    characteristic: Characteristic, good_set: GoodSet, bits: np.ndarray
) -> np.ndarray:
    """(1/t) sum_i prod_s cos^2(pi (k_i g_s(sigma) mod m) / m) for every row
    sigma: the exact residues and products, one rounding, then np.cos per
    row, branch and polynomial."""
    product = np.ones((bits.shape[0], good_set.size))
    for polynomial in characteristic.polynomials:
        residues = evaluate_linear_batch(polynomial, bits)
        product *= np.cos(math.pi * _residue_products(residues, good_set)) ** 2
    return np.mean(product, axis=1)


def all_inputs(arity: int) -> np.ndarray:
    """All 2^arity inputs, one row each, in counting order (x_1 = MSB)."""
    bits = itertools.chain.from_iterable(itertools.product((0, 1), repeat=arity))
    return np.fromiter(bits, dtype=np.uint8, count=arity << arity).reshape(-1, arity)


def popcount_mod_oracle(m: int) -> Callable[[Sequence[int]], int]:
    return lambda bits: int(sum(map(int, bits)) % m == 0)


def equality_oracle(n: int) -> Callable[[Sequence[int]], int]:
    return lambda bits: int(list(bits[:n]) == list(bits[n:]))


def palindrome_oracle(bits: Sequence[int]) -> int:
    values = [int(b) for b in bits]
    return int(values == values[::-1])


def permutation_matrix_oracle(n: int) -> Callable[[Sequence[int]], int]:
    def oracle(bits: Sequence[int]) -> int:
        rows = [list(bits[i * n : (i + 1) * n]) for i in range(n)]
        if any(sum(row) != 1 for row in rows):
            return 0
        return int(all(sum(row[j] for row in rows) == 1 for j in range(n)))

    return oracle


def decode_input(instance: HSFInstance, bits: Sequence[int]) -> tuple[int, ...]:
    """Per-element values in [1, (G:K)]; PromiseViolation if a block is too large."""
    if len(bits) != instance.arity:
        raise LengthMismatchError(f"expected {instance.arity} bits, got {len(bits)}")
    w = instance.bits_per_value
    values = []
    for element in range(instance.group.order):
        block = 0
        for u in range(w):
            block = (block << 1) | bits[element * w + u]
        value = block + 1
        if value > instance.index:
            raise PromiseViolation(
                f"block for element {element} encodes {value} > {instance.index}"
            )
        values.append(value)
    return tuple(values)


def hsf_eval(instance: HSFInstance, bits: Sequence[int]) -> int:
    """1 iff the encoded map is constant on cosets and injective across them."""
    try:
        values = decode_input(instance, bits)
    except PromiseViolation:
        return 0
    coset_values = []
    for coset in instance.cosets:
        first = values[coset[0]]
        if any(values[e] != first for e in coset[1:]):
            return 0
        coset_values.append(first)
    if len(set(coset_values)) != instance.index:
        return 0
    return 1


def satisfies_promise(instance: HSFInstance, bits: Sequence[int]) -> bool:
    """Valid decode with exactly (G:K) distinct values (the standing assumptions)."""
    try:
        values = decode_input(instance, bits)
    except PromiseViolation:
        return False
    return len(set(values)) == instance.index
