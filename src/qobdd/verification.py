"""Brute-force verification campaigns for compiled programs.

A campaign sweeps a program over all inputs (or a seeded sample), classifies
each input with a reference Boolean oracle, and checks the one-sided-error
contract: acceptance 1 within 1e-9 on the oracle's ones, acceptance below the
stated bound on its zeros.  Sweeps stream over chunks of inputs; per-class
aggregates (count, min, max) merge associatively, so results do not depend on
the partition.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import compiler
from .compiler import (
    Compilation,
    _residue_dtype,
    check_budget,
    closed_form_general_batch,
    closed_form_single_batch,
    compile_general,
    compile_single,
    error_bound_general,
    evaluate_linear_batch,
)
from .errors import TooLargeError
from .goodsets import required_size, sample_good
from .hsf import (
    HSFInstance,
    hsf_characteristic,
    hsf_eval_batch,
    satisfies_promise_batch,
)
# perfbench's tracer patches these names here; without them every traced run raises.
from .hsf import hsf_eval, satisfies_promise  # noqa: F401
from .polynomials import (
    Characteristic,
    LinearPolynomial,
    eq_polynomial,
    mod_polynomial,
    palindrome_polynomial,
    perm_polynomial,
)
from .programs import (
    ProgramMetrics,
    QuantumBranchingProgram,
    metrics,
    sweep_accept_probabilities,
)

EXHAUSTIVE_GUARD = 24
ONES_TOL = 1e-9
DEFAULT_SAMPLES = 100_000
DEFAULT_CHUNK = 1 << 13


@dataclass(frozen=True)
class ClassStats:
    """Mergeable acceptance aggregate for one oracle class."""

    count: int = 0
    min_accept: float | None = None
    max_accept: float | None = None

    def observe(self, probabilities: np.ndarray) -> "ClassStats":
        if probabilities.size == 0:
            return self
        low, high = float(np.min(probabilities)), float(np.max(probabilities))
        return self.merge(ClassStats(int(probabilities.size), low, high))

    def merge(self, other: "ClassStats") -> "ClassStats":
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        return ClassStats(
            count=self.count + other.count,
            min_accept=min(self.min_accept, other.min_accept),
            max_accept=max(self.max_accept, other.max_accept),
        )


@dataclass(frozen=True)
class VerificationReport:
    arity: int
    mode: dict
    ones: ClassStats
    zeros: ClassStats
    filtered: int
    bound: float
    passed: bool
    metrics: ProgramMetrics
    max_norm_drift: float
    max_closed_form_gap: float | None
    # What a certification knows and a sweep does not (see _certify): the
    # function's name, the error rate, the set size, the goodness policy,
    # and the seed sample_good certified the set at with its attempt count.
    function: str = ""
    epsilon: float = 0.0
    t: int = 0
    goodness: str = "unverified"
    goodset: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "function": self.function,
            "arity": self.arity,
            "epsilon": self.epsilon,
            "t": self.t,
            "mode": self.mode,
            "counts": {
                "ones": self.ones.count,
                "zeros": self.zeros.count,
                "filtered": self.filtered,
            },
            "min_accept_on_ones": self.ones.min_accept,
            "max_accept_on_zeros": self.zeros.max_accept,
            "bound": self.bound,
            "pass": self.passed,
            "metrics": asdict(self.metrics),
            "max_norm_drift": self.max_norm_drift,
            "max_closed_form_gap": self.max_closed_form_gap,
            "goodness": self.goodness,
            "goodset": self.goodset,
        }


def input_block(arity: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the exhaustive input enumeration (x_1 = MSB):
    the low `arity` bits of each index, unpacked from its big-endian bytes."""
    width = (arity + 7) // 8
    indices = np.arange(start, stop, dtype=">u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(indices[:, 8 - width :], axis=1)
    return np.ascontiguousarray(bits[:, 8 * width - arity :])


def sampled_inputs(arity: int, samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(samples, arity), dtype=np.uint8)


def realized_residues(
    polynomials: Sequence[LinearPolynomial], bit_matrix: np.ndarray
) -> np.ndarray:
    """Distinct nonzero residues any of the polynomials takes on the inputs,
    ascending, in evaluate_linear_batch's dtype: int64, or an object array
    of Python integers past it."""
    return _nonzero_union([evaluate_linear_batch(p, bit_matrix) for p in polynomials])


def _input_walk(
    arity: int, mode: str, samples=DEFAULT_SAMPLES, seed=0
) -> tuple[dict, Iterator[np.ndarray]]:
    """The report's mode entry and the mode's inputs, DEFAULT_CHUNK rows at a
    time; the one place the exhaustive guard, the sampled seed and the sampled
    pool's bytes (against compiler.BUDGET_BYTES) are checked, before anything
    is allocated.  The sampled pool is drawn when the first chunk is taken,
    so a walk that is never read draws nothing."""
    if mode == "exhaustive":
        if arity > EXHAUSTIVE_GUARD:
            raise TooLargeError(
                f"exhaustive enumeration capped at n <= {EXHAUSTIVE_GUARD}, got {arity}"
            )
        total, mode_dict = 1 << arity, {"kind": "exhaustive"}
        block = lambda a, b: input_block(arity, a, b)
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"sampled mode needs at least 1 sample, got {samples}")
        if seed < 0:
            raise ValueError(f"sampled mode needs a non-negative seed, got seed {seed}")
        if samples * arity > compiler.BUDGET_BYTES:
            raise TooLargeError(
                f"{samples} samples of {arity} bits need {samples * arity} bytes, "
                f"over the budget of {compiler.BUDGET_BYTES}"
            )
        pool = functools.cache(lambda: sampled_inputs(arity, samples, seed))
        total, mode_dict = samples, {"kind": "sampled", "samples": samples, "seed": seed}
        block = lambda a, b: pool()[a:b]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    chunk = DEFAULT_CHUNK
    return mode_dict, (block(a, min(a + chunk, total)) for a in range(0, total, chunk))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: one sort and an adjacent-difference mask.
    Not np.unique, which on numpy 2.4 took about 18x np.sort on 30k int64
    values and made residue_image 5-7x slower on PERM_4 and EQ_12."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _nonzero_union(parts: list[np.ndarray]) -> np.ndarray:
    """The distinct nonzero values of the arrays, ascending, in their dtype:
    the one dedupe behind realized_residues and _certify's goodness
    residues."""
    residues = _distinct(np.concatenate(parts))
    return residues[residues != 0]


def residue_image(polynomial: LinearPolynomial) -> np.ndarray:
    """Every residue the polynomial takes over all 2^n inputs, ascending, in
    evaluate_linear_batch's dtype: c_0 plus the subset sums of c_1..c_n, mod
    m.  Reach starts at {c_0} and read j makes it reach | (reach + c_j), so
    no step holds more than twice min(m, 2^n) values and no input is
    enumerated."""
    m = polynomial.modulus
    reach = np.array([polynomial.coefficients[0]], dtype=_residue_dtype(polynomial))
    for c in polynomial.coefficients[1:]:
        reach = _distinct(np.concatenate([reach, (reach + c) % m]))
    return reach


def verify(
    oracle: Callable[[np.ndarray], np.ndarray],
    program: QuantumBranchingProgram,
    bound: float,
    mode: str = "exhaustive",
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    promise: Callable[[np.ndarray], np.ndarray] | None = None,
    closed_form: Callable[[np.ndarray], np.ndarray] | None = None,
) -> VerificationReport:
    """Sweep the program, classify by the oracle, and check the error contract.

    The oracle and the promise label a whole chunk at once: each takes a
    (rows, n) uint8 bit matrix and returns one truth value per row (read as
    booleans, so 0/1 integers never become row indices).  Exhaustive
    mode enumerates all 2^n inputs (n <= 24); sampled mode draws a
    deterministic uniform sample.  An optional promise restricts the checked
    set; filtered inputs are counted but not checked.  Every chunk is swept
    whole, so exhaustive chunks keep the shared read prefix the sweep
    exploits; the closed form, the oracle and the class statistics see only
    the inputs the promise keeps.  When a closed-form evaluator is supplied,
    the largest |closed form - simulated| gap is recorded.
    """
    n = program.arity
    mode_dict, chunks = _input_walk(n, mode, samples, seed)
    ones = ClassStats()
    zeros = ClassStats()
    filtered = 0
    max_drift = 0.0
    max_gap: float | None = None
    for bits in chunks:
        probabilities, drift = sweep_accept_probabilities(program, bits)
        max_drift = max(max_drift, drift)
        if promise is not None:
            keep = np.asarray(promise(bits), dtype=bool)
            filtered += int(np.count_nonzero(~keep))
            bits, probabilities = bits[keep], probabilities[keep]
            if bits.shape[0] == 0:
                continue
        if closed_form is not None:
            gap = float(np.max(np.abs(closed_form(bits) - probabilities)))
            max_gap = gap if max_gap is None else max(max_gap, gap)
        labels = np.asarray(oracle(bits), dtype=bool)
        ones = ones.observe(probabilities[labels])
        zeros = zeros.observe(probabilities[~labels])

    ones_ok = ones.count == 0 or ones.min_accept >= 1.0 - ONES_TOL
    zeros_ok = zeros.count == 0 or zeros.max_accept < bound
    return VerificationReport(
        arity=n,
        mode=mode_dict,
        ones=ones,
        zeros=zeros,
        filtered=filtered,
        bound=bound,
        passed=bool(ones_ok and zeros_ok),
        metrics=metrics(program),
        max_norm_drift=max_drift,
        max_closed_form_gap=max_gap,
    )


@dataclass(frozen=True)
class NamedOracle:
    """A named function's brute-force oracle: `batch` labels a (rows, n)
    uint8 bit matrix, one boolean per row, in numpy over the bits alone,
    never through the function's polynomial.  Calling it labels one input
    (a sequence of bits) as a 1-row batch, to 0 or 1."""

    batch: Callable[[np.ndarray], np.ndarray]

    def __call__(self, bits: Sequence[int]) -> int:
        return int(self.batch(np.asarray([bits], dtype=np.uint8))[0])


def _popcount_mod_batch(n: int, m: int) -> Callable[[np.ndarray], np.ndarray]:
    # A popcount lies in [0, n], so reducing it by min(m, n + 1) finds the
    # same multiples of m, in int64 whatever the size of m.
    divisor = min(m, n + 1)
    return lambda bits: bits.sum(axis=1, dtype=np.int64) % divisor == 0


def _permutation_matrix_batch(n: int) -> Callable[[np.ndarray], np.ndarray]:
    def batch(bits: np.ndarray) -> np.ndarray:
        squares = bits.reshape(-1, n, n)
        return (squares.sum(axis=1) == 1).all(axis=1) & (squares.sum(axis=2) == 1).all(axis=1)

    return batch


def named_function(
    function: str, n: int, m: int | None = None
) -> tuple[LinearPolynomial, NamedOracle, str]:
    """Builder polynomial, brute-force oracle, and display name for a CLI name.

    The oracle is a NamedOracle: certify_single and certify_general label
    each chunk with its batch form.
    """
    if function == "mod":
        if m is None:
            raise ValueError("mod requires a modulus")
        return mod_polynomial(n, m), NamedOracle(_popcount_mod_batch(n, m)), f"MOD_{m}"
    if function == "eq":
        equal_halves = lambda bits: (bits[:, :n] == bits[:, n:]).all(axis=1)
        return eq_polynomial(n), NamedOracle(equal_halves), f"EQ_{n}"
    if function == "palindrome":
        reversible = lambda bits: (bits == bits[:, ::-1]).all(axis=1)
        return palindrome_polynomial(n), NamedOracle(reversible), f"Palindrome_{n}"
    if function == "perm":
        return perm_polynomial(n), NamedOracle(_permutation_matrix_batch(n)), f"PERM_{n}"
    raise ValueError(f"unknown function {function!r}")


def _labeller(oracle: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """A chunk labeller for verify.  A NamedOracle labels with its batch
    form; any other callable, a wrapped NamedOracle included, is called once
    per input with the row as a Python list (bits.tolist())."""
    if isinstance(oracle, NamedOracle):
        return oracle.batch
    return lambda bits: np.fromiter(map(oracle, bits.tolist()), dtype=bool, count=bits.shape[0])


def _certify(
    source: LinearPolynomial | Characteristic, oracle, epsilon: float, seed: int, *,
    function: str, goodness: str, mode: str, samples: int, promise=None,
) -> tuple[VerificationReport, Compilation]:
    """Pick a good set, compile the source, and verify the contract; the
    source type picks the compiler, the bound and the closed form.  The
    report's function, epsilon, t, goodness and goodset entries are set
    here; goodset names the seed sample_good certified the set at
    (goodsets.sample at that seed rebuilds it) and its attempt count."""
    check_budget(source, required_size(epsilon, source.modulus))
    _, chunks = _input_walk(source.arity, mode, samples, seed)
    if goodness not in ("exhaustive", "realized"):
        raise ValueError(f"unknown goodness policy {goodness!r}")
    single = isinstance(source, LinearPolynomial)
    polynomials = [source] if single else source.polynomials
    # Realized goodness over every input needs only the images; a sample
    # realizes a subset of them, so sampled mode walks its own inputs, one
    # chunk at a time.
    if goodness == "exhaustive":
        residues = None
    elif mode == "exhaustive":
        residues = _nonzero_union([residue_image(p) for p in polynomials])
    else:
        residues = _nonzero_union([realized_residues(polynomials, bits) for bits in chunks])
    good_set, used_seed = sample_good(epsilon, source.modulus, seed, residues=residues)
    if single:
        compilation = compile_single(source, good_set)
        bound = epsilon
        closed_form_batch = closed_form_single_batch
    else:
        compilation = compile_general(source, good_set)
        bound = error_bound_general(epsilon)
        closed_form_batch = closed_form_general_batch
    report = verify(
        oracle, compilation.program, bound=bound, mode=mode, samples=samples, seed=seed,
        promise=promise, closed_form=lambda rows: closed_form_batch(source, good_set, rows),
    )
    chosen = {"seed": used_seed, "attempts": used_seed - seed + 1}
    return replace(report, function=function, epsilon=epsilon, t=good_set.size,
                   goodness=goodness, goodset=chosen), compilation


def certify_single(
    polynomial: LinearPolynomial,
    oracle: Callable[[Sequence[int]], int],
    epsilon: float,
    seed: int,
    *,
    function: str = "",
    goodness: str = "realized",
    mode: str = "exhaustive",
    samples: int = DEFAULT_SAMPLES,
) -> tuple[VerificationReport, Compilation]:
    """Certify a polynomial's program against the false-accept bound eps.

    A NamedOracle (what named_function returns) labels each chunk with its
    numpy batch form.  Any other oracle is called once per input, with the
    input's bits as a Python list of ints.  goodness='exhaustive' verifies
    the set on every b in [1, m-1] (small m); 'realized' spot-verifies it on
    exactly the nonzero residues the polynomial takes on the swept inputs.
    """
    return _certify(polynomial, _labeller(oracle), epsilon, seed, function=function,
                    goodness=goodness, mode=mode, samples=samples)


def certify_general(
    characteristic: Characteristic,
    oracle: Callable[[Sequence[int]], int],
    epsilon: float,
    seed: int,
    *,
    function: str = "",
    promise: Callable[[Sequence[int]], bool] | None = None,
    mode: str = "exhaustive",
    samples: int = DEFAULT_SAMPLES,
) -> tuple[VerificationReport, Compilation]:
    """Certify a characteristic's program against 1/2 + sqrt(eps)/2.

    The oracle and the optional promise, which restricts the checked inputs,
    each label a chunk with their batch form when they are NamedOracles;
    any other callable is called once per input, with the input's bits as a
    Python list of ints.  Goodness is checked on the nonzero residues every
    polynomial of the characteristic realizes on the swept inputs (exactly
    what the bound needs for those inputs).
    """
    return _certify(characteristic, _labeller(oracle), epsilon, seed, function=function,
                    goodness="realized", mode=mode, samples=samples,
                    promise=None if promise is None else _labeller(promise))


def certify_hsf(
    instance: HSFInstance, epsilon: float, seed: int
) -> tuple[VerificationReport, Compilation]:
    """Exhaustive sweep of a hidden-subgroup instance against its oracle:
    hsf_eval_batch labels each chunk and satisfies_promise_batch filters it."""
    return _certify(
        hsf_characteristic(instance),
        lambda bits: hsf_eval_batch(instance, bits),
        epsilon,
        seed,
        function=f"HSF({instance.group.order}:{len(instance.subgroup)})",
        goodness="realized",
        mode="exhaustive",
        samples=DEFAULT_SAMPLES,
        promise=lambda bits: satisfies_promise_batch(instance, bits),
    )


DETERMINISTIC_WIDTH_BOUNDS = {
    "mod": "Omega(m)",
    "eq": "2^Omega(n)",
    "palindrome": "2^Omega(n)",
    "perm": "Omega(2^n n^(-5/2))",
}


def width_table(
    entries: Sequence[tuple[str, QuantumBranchingProgram, str]]
) -> list[dict]:
    """Measured quantum width/qubits next to documented deterministic bounds.

    The deterministic column is documentation (cited asymptotic lower bounds),
    not a measurement.
    """
    rows = []
    for name, program, deterministic_bound in entries:
        program_metrics = metrics(program)
        rows.append(
            {
                "function": name,
                "quantum_width": program_metrics.width,
                "qubits": program_metrics.qubits,
                "length": program_metrics.length,
                "deterministic_obdd_width": deterministic_bound,
            }
        )
    return rows
