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

Every read, and the generalized post-transform, is stored as the (t, 2^l,
2^l) stack of per-branch blocks the compiler builds; only the single
post-transform, which interferes the branches, is dense.  Both constructions
are rebuilt from a recipe, the polynomial(s) and the parameter set, which is
what a program file stores: O(n + t) numbers instead of the matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatchError,
    ModulusMismatchError,
    TooLargeError,
    _json_list,
    _malformed,
)
from .goodsets import (
    _INT64_SAFE,
    GoodSet,
    _cosine_kernel,
    _residue_products,
    check_error_rate,
)
from .polynomials import Characteristic, LinearPolynomial
from .programs import Instruction, QuantumBranchingProgram

# The most bytes a compiled program may take with every matrix counted as
# dense complex d x d (see check_budget); the benchmark's widest programs
# (PERM_4 and HSF Z_8/<4>, width 512) count 80 MB.
DENSE_BUDGET_BYTES = 2**29


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


def check_budget(source: LinearPolynomial | Characteristic, t: int) -> None:
    """Raise TooLargeError when compiling source over t parameters would need
    more than DENSE_BUDGET_BYTES of dense matrices.

    Cheap in t, so callers check before they sample t parameters.
    """
    targets = 1 if isinstance(source, LinearPolynomial) else len(source)
    dimension = t << targets
    # One on_one matrix per read, the shared identity, and two transforms (the
    # count predates programs having one), counted as dense complex d x d: an
    # over-count, since only the single post-transform is stored dense.
    needed = (source.arity + 3) * dimension * dimension * 16
    if needed > DENSE_BUDGET_BYTES:
        raise TooLargeError(
            f"a width-{dimension} program with {source.arity} reads needs {needed} "
            f"bytes of dense matrices, over the budget of {DENSE_BUDGET_BYTES}"
        )


def hadamard_layer(num_qubits: int) -> np.ndarray:
    """H tensored num_qubits times (the 1x1 identity for zero qubits)."""
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    layer = np.array([[1.0]])
    for _ in range(num_qubits):
        layer = np.kron(layer, h1)
    return layer


def _branch_blocks(
    good_set: GoodSet, coefficients: tuple[int, ...], angle_numerator: float
) -> np.ndarray:
    """The (t, b, b) real stack of per-branch blocks: branch i's block is the
    tensor product over s of R_y(numer * (k_i c_s mod m) / m)."""
    t = good_set.size
    half_angles = angle_numerator * _residue_products(coefficients, good_set) / 2.0
    blocks = np.ones((t, 1, 1))
    for c, s in zip(np.cos(half_angles), np.sin(half_angles)):
        rotations = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
        size = 2 * blocks.shape[1]
        blocks = np.einsum("tij,tkl->tikjl", blocks, rotations).reshape(t, size, size)
    return blocks


def _fingerprint_program(
    characteristic: Characteristic, good_set: GoodSet, single: bool
) -> QuantumBranchingProgram:
    """The circuit both constructions share, width t * 2^l.

    The initial state is the branch register's uniform superposition.
    Reading x_j = 1 rotates target s of branch i by numer * (k_i c_sj mod m)
    / m, and the post-transform rotates in the constant coefficients.  The
    single-polynomial circuit (one polynomial, single=True) uses twice the
    generalized angle and ends with a Hadamard layer on the branch register,
    accepting only the all-zero state; the generalized one accepts every
    branch whose targets all read zero.  Reads are (t, 2^l, 2^l) stacks of
    per-branch blocks, and every on_zero read shares one identity stack.
    """
    check_budget(characteristic, good_set.size)
    t = good_set.size
    block_dim = 2 ** len(characteristic)
    dimension = t * block_dim
    numerator = (4.0 if single else 2.0) * math.pi
    constant_blocks = _branch_blocks(
        good_set,
        tuple(poly.coefficients[0] for poly in characteristic.polynomials),
        numerator,
    )
    hadamard = hadamard_layer(t.bit_length() - 1)
    initial_state = np.zeros(dimension)
    initial_state[::block_dim] = hadamard[:, 0]
    if single:
        # Block (i, j) of (H (x) I_2) times the block-diagonal constant
        # rotation is H[i, j] B_j: O(d^2) instead of a dense O(d^3) product,
        # written straight into a read-only array the program keeps.
        post_transform = np.empty((dimension, dimension))
        np.multiply(
            hadamard[:, None, :, None],
            constant_blocks.transpose(1, 0, 2)[None],
            out=post_transform.reshape(t, 2, t, 2),
        )
        post_transform.setflags(write=False)
        accepting = (0,)
    else:
        post_transform = constant_blocks
        accepting = tuple(i * block_dim for i in range(t))
    identity = np.repeat(np.eye(block_dim)[None], t, axis=0)
    identity.setflags(write=False)
    instructions = tuple(
        Instruction(
            variable_index=j,
            on_zero=identity,
            on_one=_branch_blocks(
                good_set,
                tuple(poly.coefficients[j] for poly in characteristic.polynomials),
                numerator,
            ),
        )
        for j in range(1, characteristic.arity + 1)
    )
    return QuantumBranchingProgram(
        dimension=dimension,
        arity=characteristic.arity,
        instructions=instructions,
        initial_state=initial_state,
        accepting=accepting,
        post_transform=post_transform,
    )


def compile_single(
    polynomial: LinearPolynomial, good_set: GoodSet
) -> SingleCompilation:
    """Interference circuit for one linear polynomial; width 2t, accept |0..0>|0>."""
    if polynomial.modulus != good_set.modulus:
        raise ModulusMismatchError(
            f"polynomial modulus {polynomial.modulus} != good set modulus {good_set.modulus}"
        )
    characteristic = Characteristic(
        modulus=polynomial.modulus, arity=polynomial.arity, polynomials=(polynomial,)
    )
    program = _fingerprint_program(characteristic, good_set, single=True)
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
    program = _fingerprint_program(characteristic, good_set, single=False)
    return GeneralCompilation(
        characteristic=characteristic, good_set=good_set, program=program
    )


def recipe_to_json_dict(
    source: LinearPolynomial | Characteristic, good_set: GoodSet
) -> dict:
    """The program-file recipe: the polynomial (kind "single") or the
    characteristic (kind "general") and the parameter set, from which
    recipe_from_json_dict rebuilds the program."""
    single = isinstance(source, LinearPolynomial)
    return {
        "kind": "single" if single else "general",
        "polynomials": [source.to_json_dict()] if single else source.to_json_list(),
        "goodset": {
            "m": str(good_set.modulus),
            "epsilon": good_set.error_rate,
            "params": [str(k) for k in good_set.parameters],
        },
    }


def recipe_from_json_dict(recipe: dict) -> SingleCompilation | GeneralCompilation:
    """Compile the program a recipe describes.

    Raises ValueError on a missing key, a wrong type, a missing entry or an
    unknown kind, and TooLargeError, before anything of the program's size is
    allocated, when it would exceed DENSE_BUDGET_BYTES.
    """
    with _malformed("program recipe"):
        kind = recipe["kind"]
        entries = recipe["polynomials"]
        if kind == "single" and len(entries) == 1:
            source = LinearPolynomial.from_json_dict(entries[0])
        elif kind == "general" and len(entries) >= 1:
            source = Characteristic.from_json_list(entries)
        else:
            raise ValueError(
                f"recipe kind {kind!r} with {len(entries)} polynomials is neither "
                f"'single' with one nor 'general' with at least one"
            )
        goodset = recipe["goodset"]
        params = _json_list(goodset["params"])
        check_budget(source, len(params))
        good_set = GoodSet(
            modulus=int(goodset["m"]),
            error_rate=float(goodset["epsilon"]),
            parameters=tuple(int(k) for k in params),
        )
    if isinstance(source, LinearPolynomial):
        return compile_single(source, good_set)
    return compile_general(source, good_set)


def error_bound_general(epsilon: float) -> float:
    """False-accept ceiling 1/2 + sqrt(eps)/2 of the generalized construction."""
    check_error_rate(epsilon)
    return 0.5 + math.sqrt(epsilon) / 2.0


def evaluate_linear_batch(
    polynomial: LinearPolynomial, bit_matrix: np.ndarray
) -> np.ndarray:
    """Residues g(sigma) for every row of bit_matrix, as int64 when safe."""
    if bit_matrix.shape[1] != polynomial.arity:
        raise LengthMismatchError(
            f"expected {polynomial.arity} bits, got {bit_matrix.shape[1]}"
        )
    m = polynomial.modulus
    if (polynomial.arity + 1) * (m - 1) < _INT64_SAFE:
        coeffs = np.array(polynomial.coefficients[1:], dtype=np.int64)
        values = bit_matrix.astype(np.int64) @ coeffs + polynomial.coefficients[0]
        return values % m
    return np.array(
        [polynomial.evaluate(row) for row in bit_matrix.tolist()], dtype=object
    )


def _residue_table(
    polynomial: LinearPolynomial, bit_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct residues g takes on the rows, and each row's index into
    them: the cosines are taken once per residue, not once per row."""
    return np.unique(evaluate_linear_batch(polynomial, bit_matrix), return_inverse=True)


def closed_form_single_batch(
    polynomial: LinearPolynomial, good_set: GoodSet, bit_matrix: np.ndarray
) -> np.ndarray:
    """(1/t^2) (sum_i cos(2 pi k_i g(sigma) / m))^2 for every row sigma."""
    if polynomial.modulus != good_set.modulus:
        raise ModulusMismatchError("polynomial and good set moduli differ")
    residues, rows = _residue_table(polynomial, bit_matrix)
    return _cosine_kernel(residues, good_set)[rows]


def closed_form_general_batch(
    characteristic: Characteristic, good_set: GoodSet, bit_matrix: np.ndarray
) -> np.ndarray:
    """(1/t) sum_i prod_s cos^2(pi k_i g_s(sigma) / m) for every row sigma."""
    if characteristic.modulus != good_set.modulus:
        raise ModulusMismatchError("characteristic and good set moduli differ")
    tables = [_residue_table(p, bit_matrix) for p in characteristic.polynomials]
    # Rows with the same residue under every polynomial share one value: the
    # product and the mean run once per distinct combination.
    rows = np.zeros(bit_matrix.shape[0], dtype=np.intp)
    for residues, index in tables:
        _, first, rows = np.unique(
            rows * residues.size + index, return_index=True, return_inverse=True
        )
    product = np.ones((first.size, good_set.size), dtype=np.float64)
    for residues, index in tables:
        cosines = np.cos(math.pi * _residue_products(residues, good_set)) ** 2
        product *= cosines[index[first]]
    return np.mean(product, axis=1)[rows]


def closed_form_single(polynomial: LinearPolynomial, good_set: GoodSet, bits) -> float:
    """The single closed form on one input: a 1-row closed_form_single_batch."""
    return float(closed_form_single_batch(polynomial, good_set, np.asarray([bits]))[0])


def closed_form_general(
    characteristic: Characteristic, good_set: GoodSet, bits
) -> float:
    """The generalized closed form on one input: a 1-row closed_form_general_batch."""
    return float(
        closed_form_general_batch(characteristic, good_set, np.asarray([bits]))[0]
    )
