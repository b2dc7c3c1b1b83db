"""Compile linear polynomials and characteristics into quantum OBDDs.

Single-polynomial construction: a branch register of log2(t) qubits in
uniform superposition plus one target qubit.  Reading x_j = 1 rotates the
target within branch i by 4 pi k_i c_j / m about the y axis; after the reads,
the constant coefficient is rotated in and a final Hadamard layer interferes
the branches, so the all-zero state carries amplitude
(1/t) sum_i cos(2 pi k_i g(sigma) / m).  Inputs with g(sigma) = 0 are accepted
with probability exactly 1; for g(sigma) != 0 a good parameter set pushes the
probability below the error rate.

Generalized construction: one target qubit per polynomial of the
characteristic, rotation angles 2 pi k_i c_j / m (half the single-polynomial
angle), no final Hadamard, and measurement in the computational basis.  The
input is accepted when all target qubits read zero, with probability
(1/t) sum_i prod_s cos^2(pi k_i g_s(sigma) / m); a good set bounds the false
accepts by 1/2 + sqrt(eps)/2.

Rotation angles use the exact residue (k_i c_j mod m): the reduction shifts
single-construction angles by multiples of 4 pi (the R_y period, so exactly
nothing) and generalized angles by multiples of 2 pi (a per-branch sign that
squares away in the measurement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModulusMismatchError
from .goodsets import GoodSet, check_error_rate
from .polynomials import Characteristic, LinearPolynomial
from .programs import (
    Instruction,
    QuantumBranchingProgram,
    basis_state,
    hadamard_layer,
)

# int64 batch paths are exact as long as intermediate products stay below 2^63.
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class SingleCompilation:
    polynomial: LinearPolynomial
    good_set: GoodSet
    program: QuantumBranchingProgram


@dataclass(frozen=True)
class GeneralCompilation:
    characteristic: Characteristic
    good_set: GoodSet
    program: QuantumBranchingProgram


def _branch_block(
    good_set: GoodSet, coefficients: tuple[int, ...], angle_numerator: float
) -> np.ndarray:
    """Read-only block-diagonal matrix over branches: branch i applies the
    tensor product over s of R_y(numer * (k_i c_s mod m) / m)."""
    m = good_set.modulus
    t = good_set.size
    values = np.array(coefficients, dtype=np.int64 if m <= _INT64_SAFE else object)
    half_angles = angle_numerator * _residue_products(values, good_set) / 2.0
    blocks = np.ones((t, 1, 1))
    for c, s in zip(np.cos(half_angles), np.sin(half_angles)):
        rotations = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
        size = 2 * blocks.shape[1]
        blocks = np.einsum("tij,tkl->tikjl", blocks, rotations).reshape(t, size, size)
    matrix = np.zeros((t * size, t * size), dtype=np.complex128)
    branches = np.arange(t)
    matrix.reshape(t, size, t, size)[branches, :, branches, :] = blocks
    matrix.setflags(write=False)
    return matrix


def _frozen_identity(dimension: int) -> np.ndarray:
    identity = np.eye(dimension, dtype=np.complex128)
    identity.setflags(write=False)
    return identity


def compile_single(
    polynomial: LinearPolynomial, good_set: GoodSet
) -> SingleCompilation:
    """Interference circuit for one linear polynomial; width 2t, accept |0..0>|0>."""
    if polynomial.modulus != good_set.modulus:
        raise ModulusMismatchError(
            f"polynomial modulus {polynomial.modulus} != good set modulus {good_set.modulus}"
        )
    t = good_set.size
    log_t = t.bit_length() - 1
    dimension = 2 * t
    identity = _frozen_identity(dimension)
    h_layer = np.kron(hadamard_layer(log_t), np.eye(2, dtype=np.complex128))
    instructions = tuple(
        Instruction(
            variable_index=j,
            on_zero=identity,
            on_one=_branch_block(good_set, (polynomial.coefficients[j],), 4.0 * math.pi),
        )
        for j in range(1, polynomial.arity + 1)
    )
    constant_block = _branch_block(good_set, (polynomial.coefficients[0],), 4.0 * math.pi)
    program = QuantumBranchingProgram(
        dimension=dimension,
        arity=polynomial.arity,
        instructions=instructions,
        initial_state=basis_state(dimension, 0),
        accepting=(0,),
        pre_transform=h_layer,
        post_transform=h_layer @ constant_block,
    )
    return SingleCompilation(polynomial=polynomial, good_set=good_set, program=program)


def compile_general(
    characteristic: Characteristic, good_set: GoodSet
) -> GeneralCompilation:
    """Generalized circuit: one target qubit per polynomial, width t * 2^l."""
    if characteristic.modulus != good_set.modulus:
        raise ModulusMismatchError(
            f"characteristic modulus {characteristic.modulus} != "
            f"good set modulus {good_set.modulus}"
        )
    t = good_set.size
    log_t = t.bit_length() - 1
    l = len(characteristic)
    block_dim = 2**l
    dimension = t * block_dim
    identity = _frozen_identity(dimension)
    instructions = tuple(
        Instruction(
            variable_index=j,
            on_zero=identity,
            on_one=_branch_block(
                good_set,
                tuple(poly.coefficients[j] for poly in characteristic.polynomials),
                2.0 * math.pi,
            ),
        )
        for j in range(1, characteristic.arity + 1)
    )
    constant_block = _branch_block(
        good_set,
        tuple(poly.coefficients[0] for poly in characteristic.polynomials),
        2.0 * math.pi,
    )
    program = QuantumBranchingProgram(
        dimension=dimension,
        arity=characteristic.arity,
        instructions=instructions,
        initial_state=basis_state(dimension, 0),
        accepting=tuple(i * block_dim for i in range(t)),
        pre_transform=np.kron(
            hadamard_layer(log_t), np.eye(block_dim, dtype=np.complex128)
        ),
        post_transform=constant_block,
    )
    return GeneralCompilation(
        characteristic=characteristic, good_set=good_set, program=program
    )


def closed_form_single(
    polynomial: LinearPolynomial, good_set: GoodSet, bits
) -> float:
    """(1/t^2) (sum_i cos(2 pi k_i g(sigma) / m))^2, with exact residues."""
    if polynomial.modulus != good_set.modulus:
        raise ModulusMismatchError("polynomial and good set moduli differ")
    m = good_set.modulus
    value = polynomial.evaluate(bits)
    total = sum(
        math.cos(2.0 * math.pi * (((k * value) % m) / m))
        for k in good_set.parameters
    )
    return (total / good_set.size) ** 2


def closed_form_general(
    characteristic: Characteristic, good_set: GoodSet, bits
) -> float:
    """(1/t) sum_i prod_s cos^2(pi k_i g_s(sigma) / m), with exact residues."""
    if characteristic.modulus != good_set.modulus:
        raise ModulusMismatchError("characteristic and good set moduli differ")
    m = good_set.modulus
    values = characteristic.evaluate(bits)
    total = 0.0
    for k in good_set.parameters:
        term = 1.0
        for value in values:
            term *= math.cos(math.pi * (((k * value) % m) / m)) ** 2
        total += term
    return total / good_set.size


def error_bound_general(epsilon: float) -> float:
    """False-accept ceiling 1/2 + sqrt(eps)/2 of the generalized construction."""
    check_error_rate(epsilon)
    return 0.5 + math.sqrt(epsilon) / 2.0


def evaluate_linear_batch(
    polynomial: LinearPolynomial, bit_matrix: np.ndarray
) -> np.ndarray:
    """Residues g(sigma) for every row of bit_matrix, as int64 when safe."""
    m = polynomial.modulus
    if (polynomial.arity + 1) * (m - 1) < _INT64_SAFE:
        coeffs = np.array(polynomial.coefficients[1:], dtype=np.int64)
        values = bit_matrix.astype(np.int64) @ coeffs + polynomial.coefficients[0]
        return values % m
    return np.array(
        [polynomial.evaluate(row) for row in bit_matrix.tolist()], dtype=object
    )


def _residue_products(values: np.ndarray, good_set: GoodSet) -> np.ndarray:
    """(k_i * g(sigma)) mod m for every input row and parameter, as float ratios."""
    m = good_set.modulus
    if values.dtype == object or (m - 1) * (m - 1) >= _INT64_SAFE:
        rows = [
            [(int(k) * int(v)) % m for k in good_set.parameters] for v in values
        ]
        return np.array([[r / m for r in row] for row in rows], dtype=np.float64)
    params = np.array(good_set.parameters, dtype=np.int64)
    products = (values[:, None] * params[None, :]) % m
    return products.astype(np.float64) / m


def closed_form_single_batch(
    polynomial: LinearPolynomial, good_set: GoodSet, bit_matrix: np.ndarray
) -> np.ndarray:
    if polynomial.modulus != good_set.modulus:
        raise ModulusMismatchError("polynomial and good set moduli differ")
    values = evaluate_linear_batch(polynomial, bit_matrix)
    ratios = _residue_products(values, good_set)
    return np.mean(np.cos(2.0 * math.pi * ratios), axis=1) ** 2


def closed_form_general_batch(
    characteristic: Characteristic, good_set: GoodSet, bit_matrix: np.ndarray
) -> np.ndarray:
    if characteristic.modulus != good_set.modulus:
        raise ModulusMismatchError("characteristic and good set moduli differ")
    product = np.ones((bit_matrix.shape[0], good_set.size), dtype=np.float64)
    for polynomial in characteristic.polynomials:
        values = evaluate_linear_batch(polynomial, bit_matrix)
        ratios = _residue_products(values, good_set)
        product *= np.cos(math.pi * ratios) ** 2
    return np.mean(product, axis=1)
