"""Compile linear polynomials and characteristics into quantum OBDDs.

Single-polynomial construction: a branch register of log2(t) qubits in
uniform superposition plus one target qubit.  Branch i's target starts
rotated by 4 pi k_i c_0 / m about the y axis, the constant coefficient.
Reading x_j = 1 rotates it further by 4 pi k_i c_j / m; reading x_j = 0
does nothing.  A final Hadamard layer would interfere the branches, so that
the all-zero state carries amplitude (1/t) sum_i cos(2 pi k_i g(sigma) / m).
That amplitude is <u|psi> for u the uniform superposition of the states
|i>|0>, so the program interferes instead of storing the layer.  Inputs with
g(sigma) = 0 are accepted with probability exactly 1.  For g(sigma) != 0 a
good parameter set pushes the probability below the error rate.

Generalized construction: one target qubit per polynomial of the
characteristic, rotation angles 2 pi k_i c_j / m (half the single-polynomial
angle), no final Hadamard, and measurement in the computational basis.  The
input is accepted when all target qubits read zero, with probability
(1/t) sum_i prod_s cos^2(pi k_i g_s(sigma) / m).  A good set bounds the
false accepts by 1/2 + sqrt(eps)/2.

Closed forms.  The single program accepts with S(g(sigma))^2, where
S(b) = (1/t) sum_i cos(2 pi k_i b / m) is goodsets' cosine sum, taken by the
cosine kernel once per distinct residue.  The generalized one is evaluated
without the per-branch product: cos^2 x = (1 + cos 2x)/2 and the
product-to-sum rule turn prod_s cos^2(pi k_i g_s / m) into
2^-l sum_{v in {-1,0,1}^l} 2^-|v| cos(2 pi k_i (v . g) / m), |v| the number of
nonzero entries, and the mean over i makes each term S(v . g mod m).  As S
is even, v and -v pair up, so it takes (3^l - 1)/2 spectrum gathers per
row, for example (1/4)[1 + S(g_1) + S(g_2) + S(g_1 + g_2)/2 + S(g_1 - g_2)/2]
at l = 2.  The sweep already spends a t * 4^l block product per read on
every row, and 3^l <= t * 4^l, so the closed form never costs more than
one read of the simulation.  The simulator does not use this formula: it
stays a step-by-step simulation, so the gap check compares two independent
computations.

Rotation angles use the exact residue (k_i c_j mod m).  The reduction shifts
single-construction angles by multiples of 4 pi (the R_y period, so exactly
nothing) and generalized angles by multiples of 2 pi (a per-branch sign that
squares away in the measurement).

Rotations about one axis commute, so starting in the constant rotation is
the circuit that applies it after the reads.  Each read stores its U(1) as
the float64 (t, 2^l, 2^l) stack of per-branch R_y blocks; a read of x_j = 0
is the identity and stores nothing.  Both constructions accept the states
|i>|0...0>; they differ only in the angle and in whether the program
interferes.  Both are rebuilt from a recipe, the polynomial(s) and the
parameter set, which is what a program file stores: O(n + t) numbers
instead of the matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    LengthMismatchError,
    ModulusMismatchError,
    TooLargeError,
    _json_int,
    _json_ints,
    _json_list,
    _malformed,
)
from .goodsets import (
    _CHUNK_ENTRIES,
    _INT64_SAFE,
    GoodSet,
    _cosine_kernel,
    _cosine_sums,
    _residue_products,
    _slices,
    check_error_rate,
    required_size,
)
from .polynomials import Characteristic, LinearPolynomial
from .programs import Instruction, QuantumBranchingProgram, sweep_buffer_bytes

# The most bytes a compiled program and one sweep of it may take (see
# check_budget); the benchmark's widest programs (PERM_4 and HSF Z_8/<4>,
# width 512) count about 5 MB.
BUDGET_BYTES = 2**29


@dataclass(frozen=True)
class Compilation:
    """A compiled program with the polynomial or characteristic it was
    compiled from and its parameter set."""

    source: LinearPolynomial | Characteristic
    good_set: GoodSet
    program: QuantumBranchingProgram


def check_budget(source: LinearPolynomial | Characteristic, t: int) -> int:
    """The bytes compiling source over t parameters stores, plus the largest
    state buffers a sweep of the program allocates; TooLargeError when that
    is over BUDGET_BYTES.

    A program stores one float64 (t, 2^l, 2^l) stack per read and a d-vector
    initial state.  Cheap in t, so callers check before they allocate.
    """
    if t < 1:
        raise ValueError(f"a program needs at least one parameter, got {t}")
    targets = 1 if isinstance(source, LinearPolynomial) else len(source)
    dimension = t << targets
    stacks = source.arity * dimension * (1 << targets) * 8
    needed = stacks + dimension * 8 + sweep_buffer_bytes(dimension, source.arity)
    if needed > BUDGET_BYTES:
        raise TooLargeError(
            f"a width-{dimension} program with {source.arity} reads needs {needed} "
            f"bytes, over the budget of {BUDGET_BYTES}"
        )
    return needed


def _branch_stacks(
    characteristic: Characteristic, good_set: GoodSet, angle_numerator: float
) -> Iterator[np.ndarray]:
    """Yield the (t, b, b) real stack of per-branch blocks for the constant
    coefficient and then for every read: branch i's block is the tensor
    product over s of R_y(numer * (k_i c_sj mod m) / m).

    The stacks of a chunk of reads come from one _residue_products call, one
    cos and one sin, and one einsum per further target; a chunk holds at most
    _CHUNK_ENTRIES block entries, so the temporaries stay bounded.  The
    stacks are views of the chunk's array; Instruction copies each once.
    """
    t = good_set.size
    targets = len(characteristic)
    size = 1 << targets
    columns = list(zip(*(poly.coefficients for poly in characteristic.polynomials)))
    chunk = max(1, _CHUNK_ENTRIES // (t * size * size))
    for start in range(0, len(columns), chunk):
        rows = columns[start : start + chunk]
        reads = len(rows)
        products = _residue_products([c for row in rows for c in row], good_set)
        half_angles = (angle_numerator * products / 2.0).reshape(reads, targets, t)
        cosines, sines = np.cos(half_angles), np.sin(half_angles)
        blocks = np.ones((reads, t, 1, 1))
        for c, s in zip(cosines.transpose(1, 0, 2), sines.transpose(1, 0, 2)):
            rotations = np.array([[c, -s], [s, c]]).transpose(2, 3, 0, 1)
            width = 2 * blocks.shape[-1]
            blocks = np.einsum("rtij,rtkl->rtikjl", blocks, rotations).reshape(
                reads, t, width, width
            )
        yield from blocks


def _fingerprint_program(
    characteristic: Characteristic, good_set: GoodSet, single: bool
) -> QuantumBranchingProgram:
    """The circuit both constructions share, width t * 2^l.

    Branch i starts with amplitude 1/sqrt(t) in column 0 of its constant
    block, which rotates target s by numer * (k_i c_s0 mod m) / m.  Reading
    x_j = 1 rotates target s of branch i by numer * (k_i c_sj mod m) / m, a
    (t, 2^l, 2^l) stack of per-branch blocks, and reading x_j = 0 does
    nothing.  Both accept the states where every target
    reads zero.  The single-polynomial circuit (one polynomial, single=True)
    uses twice the generalized angle and interferes: its final Hadamard
    layer and all-zero measurement are the measurement against the uniform
    superposition of those states.  ModulusMismatchError, before anything
    is allocated, when the characteristic and the set differ in modulus.
    """
    if characteristic.modulus != good_set.modulus:
        raise ModulusMismatchError(
            f"polynomial modulus {characteristic.modulus} != good set modulus {good_set.modulus}"
        )
    check_budget(characteristic, good_set.size)
    t = good_set.size
    block_dim = 2 ** len(characteristic)
    numerator = (4.0 if single else 2.0) * math.pi
    stacks = _branch_stacks(characteristic, good_set, numerator)
    constant_blocks = next(stacks)
    instructions = tuple(
        Instruction(variable_index=j, on_one=stack) for j, stack in enumerate(stacks, start=1)
    )
    return QuantumBranchingProgram(
        dimension=t * block_dim,
        arity=characteristic.arity,
        instructions=instructions,
        initial_state=(constant_blocks[:, :, 0] / math.sqrt(t)).ravel(),
        accepting=tuple(i * block_dim for i in range(t)),
        interfere=single,
    )


def compile_single(polynomial: LinearPolynomial, good_set: GoodSet) -> Compilation:
    """Interference circuit for one linear polynomial; width 2t."""
    characteristic = Characteristic(
        modulus=polynomial.modulus, arity=polynomial.arity, polynomials=(polynomial,)
    )
    program = _fingerprint_program(characteristic, good_set, single=True)
    return Compilation(polynomial, good_set, program)


def compile_general(characteristic: Characteristic, good_set: GoodSet) -> Compilation:
    """Generalized circuit: one target qubit per polynomial, width t * 2^l."""
    program = _fingerprint_program(characteristic, good_set, single=False)
    return Compilation(characteristic, good_set, program)


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


def recipe_from_json_dict(recipe: dict) -> Compilation:
    """Compile the program a recipe describes.

    Raises ValueError on a missing key, a wrong type, a missing entry, an
    unknown kind or fewer parameters than required_size(epsilon, m) (a
    smaller set voids the error rate the file states), and TooLargeError,
    before anything of the program's size is allocated, when it would
    exceed BUDGET_BYTES.
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
            modulus=_json_int(goodset["m"]),
            error_rate=float(goodset["epsilon"]),
            parameters=_json_ints(params),
        )
    required = required_size(good_set.error_rate, good_set.modulus)
    if good_set.size < required:
        raise ValueError(
            f"malformed program recipe: {good_set.size} parameters, but epsilon "
            f"{good_set.error_rate} over Z_{good_set.modulus} needs at least {required}"
        )
    if isinstance(source, LinearPolynomial):
        return compile_single(source, good_set)
    return compile_general(source, good_set)


def error_bound_general(epsilon: float) -> float:
    """False-accept ceiling 1/2 + sqrt(eps)/2 of the generalized construction."""
    check_error_rate(epsilon)
    return 0.5 + math.sqrt(epsilon) / 2.0


def _residue_dtype(polynomial: LinearPolynomial):
    """int64 while no sum c_0 + ... + c_n can overflow, that is while
    (n + 1)(m - 1) < _INT64_SAFE; object (Python integers) past it."""
    return np.int64 if (polynomial.arity + 1) * (polynomial.modulus - 1) < _INT64_SAFE else object


def evaluate_linear_batch(
    polynomial: LinearPolynomial, bit_matrix: np.ndarray
) -> np.ndarray:
    """Residues g(sigma) for every row of bit_matrix, in _residue_dtype."""
    if bit_matrix.shape[1] != polynomial.arity:
        raise LengthMismatchError(
            f"expected {polynomial.arity} bits, got {bit_matrix.shape[1]}"
        )
    m = polynomial.modulus
    dtype = _residue_dtype(polynomial)
    coeffs = np.array(polynomial.coefficients[1:], dtype=dtype)
    return (bit_matrix.astype(dtype) @ coeffs + polynomial.coefficients[0]) % m


def _residue_table(
    polynomial: LinearPolynomial, good_set: GoodSet, bit_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct residues g takes on the rows, and each row's index into
    them: the cosines are taken once per residue, not once per row.
    ModulusMismatchError when g and the set differ in modulus."""
    if polynomial.modulus != good_set.modulus:
        raise ModulusMismatchError("polynomial and good set moduli differ")
    return np.unique(evaluate_linear_batch(polynomial, bit_matrix), return_inverse=True)


def closed_form_single_batch(
    polynomial: LinearPolynomial, good_set: GoodSet, bit_matrix: np.ndarray
) -> np.ndarray:
    """(1/t^2) (sum_i cos(2 pi k_i g(sigma) / m))^2 for every row sigma,
    the kernel taken one _slices slice of the distinct residues at a time."""
    residues, rows = _residue_table(polynomial, good_set, bit_matrix)
    values = np.empty(residues.size)
    for part in _slices(residues.size, good_set):
        values[part] = _cosine_kernel(residues[part], good_set)
    return values[rows]


def _sign_vectors(count: int) -> list[tuple[int, ...]]:
    """One of v and -v for every nonzero v in {-1, 0, 1}^count: those whose
    first nonzero entry is 1, (3^count - 1)/2 of them."""
    return [
        v for v in itertools.product((-1, 0, 1), repeat=count) if any(v) and next(filter(None, v)) == 1
    ]


def closed_form_general_batch(
    characteristic: Characteristic, good_set: GoodSet, bit_matrix: np.ndarray
) -> np.ndarray:
    """(1/t) sum_i prod_s cos^2(pi k_i g_s(sigma) / m) for every row sigma, as
    2^-l [1 + sum_v 2^(1 - |v|) S(v . g(sigma) mod m)] over _sign_vectors(l):
    one goodsets._cosine_sums gather per term, _CHUNK_ENTRIES rows at a time.
    ModulusMismatchError when the characteristic and the set differ in modulus."""
    if characteristic.modulus != good_set.modulus:
        raise ModulusMismatchError("polynomial and good set moduli differ")
    m = good_set.modulus
    count = len(characteristic)
    terms = [(v, 2.0 ** (1 - sum(map(abs, v)))) for v in _sign_vectors(count)]
    values = np.empty(bit_matrix.shape[0])
    for start in range(0, bit_matrix.shape[0], _CHUNK_ENTRIES):
        part = slice(start, start + _CHUNK_ENTRIES)
        residues = [evaluate_linear_batch(p, bit_matrix[part]) for p in characteristic.polynomials]
        total = np.ones(residues[0].shape[0])
        for v, weight in terms:
            argument = 0
            for sign, g in zip(v, residues):
                if sign:  # each partial sum lies in (-m, 2m) before it is reduced
                    argument = (argument + sign * g) % m
            total += weight * _cosine_sums(argument, good_set)
        values[part] = total / 2.0**count
    return values


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
