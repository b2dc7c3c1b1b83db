"""Brute-force verification campaigns for compiled programs.

A campaign sweeps a program over all inputs (or a seeded sample), classifies
each input with a reference Boolean oracle, and checks the one-sided-error
contract: acceptance 1 within 1e-9 on the oracle's ones, acceptance below the
stated bound on its zeros.  Sweeps stream over chunks of inputs; per-class
aggregates (count, min, max) merge associatively, so results do not depend on
the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .compiler import (
    GeneralCompilation,
    SingleCompilation,
    check_budget,
    closed_form_general_batch,
    closed_form_single_batch,
    compile_general,
    compile_single,
    error_bound_general,
    evaluate_linear_batch,
)
from .errors import TooLargeError
from .goodsets import GoodSet, required_size, sample_good
from .hsf import HSFInstance, hsf_characteristic, hsf_eval, satisfies_promise
from .polynomials import (
    Characteristic,
    LinearPolynomial,
    eq_polynomial,
    mod_polynomial,
    palindrome_polynomial,
    perm_polynomial,
)
from .programs import (
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
        low = float(np.min(probabilities))
        high = float(np.max(probabilities))
        return ClassStats(
            count=self.count + int(probabilities.size),
            min_accept=low if self.min_accept is None else min(self.min_accept, low),
            max_accept=high if self.max_accept is None else max(self.max_accept, high),
        )

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
    function: str
    arity: int
    epsilon: float
    t: int
    mode: dict
    ones: ClassStats
    zeros: ClassStats
    filtered: int
    bound: float
    passed: bool
    width: int
    length: int
    qubits: int
    max_norm_drift: float
    max_closed_form_gap: float | None
    goodness: str

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
            "metrics": {
                "width": self.width,
                "length": self.length,
                "qubits": self.qubits,
            },
            "max_norm_drift": self.max_norm_drift,
            "max_closed_form_gap": self.max_closed_form_gap,
            "goodness": self.goodness,
        }


def input_block(arity: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the exhaustive input enumeration (x_1 = MSB)."""
    indices = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(arity - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def all_inputs(arity: int) -> np.ndarray:
    _, (bits,) = _input_walk(arity, "exhaustive", chunk_size=1 << arity)
    return bits


def sampled_inputs(arity: int, samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(samples, arity), dtype=np.uint8)


def realized_residues(
    polynomials: Sequence[LinearPolynomial], bit_matrix: np.ndarray
) -> list[int]:
    """Distinct nonzero residues any of the polynomials takes on the inputs."""
    residues: set[int] = set()
    for polynomial in polynomials:
        values = evaluate_linear_batch(polynomial, bit_matrix)
        residues.update(int(v) for v in np.unique(values) if v != 0)
    return sorted(residues)


def _input_walk(
    arity: int, mode: str, samples=DEFAULT_SAMPLES, seed=0, chunk_size=DEFAULT_CHUNK
) -> tuple[dict, Iterator[np.ndarray]]:
    """The report's mode entry and the mode's inputs, chunk by chunk; the one
    place the exhaustive guard is checked, before anything is allocated."""
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
        pool = sampled_inputs(arity, samples, seed)
        total, mode_dict = samples, {"kind": "sampled", "samples": samples, "seed": seed}
        block = lambda a, b: pool[a:b]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    starts = range(0, total, chunk_size)
    return mode_dict, (block(a, min(a + chunk_size, total)) for a in starts)


def _walk_residues(polynomials, chunks: Iterable[np.ndarray]) -> list[int]:
    """realized_residues over every chunk, without holding all inputs at once."""
    residues: set[int] = set()
    for bits in chunks:
        residues.update(realized_residues(polynomials, bits))
    return sorted(residues)


def verify(
    oracle: Callable[[Sequence[int]], int],
    program: QuantumBranchingProgram,
    bound: float,
    mode: str = "exhaustive",
    *,
    function: str = "",
    epsilon: float = 0.0,
    t: int = 0,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    promise: Callable[[Sequence[int]], bool] | None = None,
    closed_form: Callable[[np.ndarray], np.ndarray] | None = None,
    goodness: str = "unverified",
    chunk_size: int = DEFAULT_CHUNK,
) -> VerificationReport:
    """Sweep the program, classify by the oracle, and check the error contract.

    Exhaustive mode enumerates all 2^n inputs (n <= 24); sampled mode draws a
    deterministic uniform sample.  An optional promise predicate restricts the
    swept set; filtered inputs are counted but not checked.  When a closed-form
    evaluator is supplied, the largest |closed form - simulated| gap is
    recorded.
    """
    n = program.arity
    mode_dict, chunks = _input_walk(n, mode, samples, seed, chunk_size)
    ones = ClassStats()
    zeros = ClassStats()
    filtered = 0
    max_drift = 0.0
    max_gap: float | None = None
    for bits in chunks:
        if promise is not None:
            keep = np.fromiter(
                (promise(row) for row in bits), dtype=bool, count=bits.shape[0]
            )
            filtered += int((~keep).sum())
            bits = bits[keep]
            if bits.shape[0] == 0:
                continue
        probabilities, drift = sweep_accept_probabilities(program, bits)
        max_drift = max(max_drift, drift)
        if closed_form is not None:
            gap = float(np.max(np.abs(closed_form(bits) - probabilities)))
            max_gap = gap if max_gap is None else max(max_gap, gap)
        labels = np.fromiter(
            (oracle(row) for row in bits), dtype=bool, count=bits.shape[0]
        )
        ones = ones.observe(probabilities[labels])
        zeros = zeros.observe(probabilities[~labels])

    ones_ok = ones.count == 0 or ones.min_accept >= 1.0 - ONES_TOL
    zeros_ok = zeros.count == 0 or zeros.max_accept < bound
    program_metrics = metrics(program)
    return VerificationReport(
        function=function,
        arity=n,
        epsilon=epsilon,
        t=t,
        mode=mode_dict,
        ones=ones,
        zeros=zeros,
        filtered=filtered,
        bound=bound,
        passed=bool(ones_ok and zeros_ok),
        width=program_metrics.width,
        length=program_metrics.length,
        qubits=program_metrics.qubits,
        max_norm_drift=max_drift,
        max_closed_form_gap=max_gap,
        goodness=goodness,
    )


# Reference oracles (brute force, independent of the polynomial route).


def popcount_mod_oracle(m: int) -> Callable[[Sequence[int]], int]:
    return lambda bits: int(sum(int(b) for b in bits) % m == 0)


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


def named_function(
    function: str, n: int, m: int | None = None
) -> tuple[LinearPolynomial, Callable[[Sequence[int]], int], str]:
    """Builder polynomial, brute-force oracle, and display name for a CLI name."""
    if function == "mod":
        if m is None:
            raise ValueError("mod requires a modulus")
        return mod_polynomial(n, m), popcount_mod_oracle(m), f"MOD_{m}"
    if function == "eq":
        return eq_polynomial(n), equality_oracle(n), f"EQ_{n}"
    if function == "palindrome":
        return palindrome_polynomial(n), palindrome_oracle, f"Palindrome_{n}"
    if function == "perm":
        return perm_polynomial(n), permutation_matrix_oracle(n), f"PERM_{n}"
    raise ValueError(f"unknown function {function!r}")


def _certify(
    source: LinearPolynomial | Characteristic, oracle, epsilon: float, seed: int, *,
    function: str, goodness: str, mode: str, samples: int, promise=None,
) -> tuple[VerificationReport, SingleCompilation | GeneralCompilation]:
    """Pick a good set, compile the source, and verify the contract; the
    source type picks the compiler, the bound and the closed form."""
    check_budget(source, required_size(epsilon, source.modulus))
    _, chunks = _input_walk(source.arity, mode, samples, seed)
    single = isinstance(source, LinearPolynomial)
    if goodness == "exhaustive":
        good_set, _ = sample_good(epsilon, source.modulus, seed)
    elif goodness == "realized":
        residues = _walk_residues([source] if single else source.polynomials, chunks)
        good_set, _ = sample_good(epsilon, source.modulus, seed, residues=residues)
    else:
        raise ValueError(f"unknown goodness policy {goodness!r}")
    if single:
        compilation = compile_single(source, good_set)
        bound = epsilon
        closed_form_batch = closed_form_single_batch
    else:
        compilation = compile_general(source, good_set)
        bound = error_bound_general(epsilon)
        closed_form_batch = closed_form_general_batch
    report = verify(
        oracle, compilation.program, bound=bound, mode=mode, function=function,
        epsilon=epsilon, t=good_set.size, samples=samples, seed=seed, promise=promise,
        closed_form=lambda rows: closed_form_batch(source, good_set, rows),
        goodness=goodness,
    )
    return report, compilation


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
) -> tuple[VerificationReport, SingleCompilation]:
    """Certify a polynomial's program against the false-accept bound eps.

    goodness='exhaustive' verifies the set on every b in [1, m-1] (small m);
    'realized' spot-verifies it on exactly the nonzero residues the polynomial
    takes on the swept inputs.
    """
    return _certify(polynomial, oracle, epsilon, seed, function=function,
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
) -> tuple[VerificationReport, GeneralCompilation]:
    """Certify a characteristic's program against 1/2 + sqrt(eps)/2.

    Goodness is checked on the nonzero residues every polynomial of the
    characteristic realizes on the swept inputs (exactly what the bound needs
    for those inputs); an optional promise restricts the checked inputs.
    """
    return _certify(characteristic, oracle, epsilon, seed, function=function,
                    goodness="realized", mode=mode, samples=samples, promise=promise)


def certify_hsf(
    instance: HSFInstance,
    epsilon: float,
    seed: int,
    *,
    function: str = "",
    apply_promise: bool = True,
) -> tuple[VerificationReport, GeneralCompilation]:
    """Exhaustive sweep of a hidden-subgroup instance against its oracle."""
    characteristic = hsf_characteristic(instance)
    return certify_general(
        characteristic,
        lambda bits: hsf_eval(instance, bits),
        epsilon,
        seed,
        function=function or f"HSF({instance.group.order}:{len(instance.subgroup)})",
        promise=(lambda bits: satisfies_promise(instance, bits)) if apply_promise else None,
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
