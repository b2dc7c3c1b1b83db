"""The benchmark's workloads and the correctness gate they run after every call.

Each workload is built from a seed (its set-up), then performs numbered
calls into qobdd's public API through ``step``.  A step times one call and
checks its output against counts and probabilities the benchmark computes
itself with numpy or exact integer arithmetic, never by asking the library
again.  One *pass* is the shortest sequence of steps that covers the whole
workload: one certification, or one build followed by one eval per input.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qobdd import cli, compiler, goodsets, hsf, verification  # noqa: E402

TOL = 1e-9
BUILD_REPEATS = 4


@dataclass
class Op:
    """One timed call and the gate's findings on its output."""

    kind: str
    seconds: float
    inputs: int
    errors: list[str] = field(default_factory=list)


def timed_call(fn: Callable) -> tuple[object, float, list[str]]:
    """Run fn once; an exception is a failed call, reported with its traceback."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as error:  # the loop must go on and count the failure
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return None, seconds, [f"raised {type(error).__name__}: {error}"]
    return result, time.perf_counter() - start, []


def root_span(tracer, name: str, index: int):
    """The span of one benchmark call in a traced pass; nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.run_id = index
    return tracer.span(name)


def call_seeds(seed: int):
    """Seeds for successive calls, all drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31))


def exhaustive_rows(arity: int) -> np.ndarray:
    """All inputs as integers; bit arity-1-i of row r is x_(i+1) (x_1 = MSB)."""
    return np.arange(1 << arity, dtype=np.int64)


def row_bits(rows: np.ndarray, arity: int) -> np.ndarray:
    shifts = np.arange(arity - 1, -1, -1, dtype=np.int64)
    return ((rows[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def is_permutation(bits: np.ndarray, n: int) -> np.ndarray:
    """Row-major n x n matrices with every row sum and column sum equal to 1."""
    grid = bits.reshape(-1, n, n).astype(np.int64)
    return (grid.sum(axis=2) == 1).all(axis=1) & (grid.sum(axis=1) == 1).all(axis=1)


def gate_report(report, expected: tuple[int, int, int]) -> list[str]:
    """The certification contract plus class counts the benchmark computed."""
    errors = []
    if not report.passed:
        errors.append("report did not pass")
    if report.max_closed_form_gap is None or not report.max_closed_form_gap <= TOL:
        errors.append(f"closed-form gap {report.max_closed_form_gap}")
    if not report.max_norm_drift <= TOL:
        errors.append(f"norm drift {report.max_norm_drift}")
    counts = (report.ones.count, report.zeros.count, report.filtered)
    if counts != expected:
        errors.append(f"(ones, zeros, filtered) = {counts}, expected {expected}")
    return errors


class Certify:
    """Closed loop of certifications; each call uses the next seeded good-set seed."""

    kind = "certify"
    pass_length = 1

    def __init__(self, seed: int) -> None:
        self.tracer = None
        self._seeds = call_seeds(seed)
        self._build_seeds = call_seeds(seed + 1)
        self.build_times: list[float] = []

    def step(self, index: int) -> Op:
        call_seed = next(self._seeds)
        with root_span(self.tracer, "verification.certify", index):
            result, seconds, errors = timed_call(lambda: self.certify(call_seed))
        if result is None:
            return Op(self.kind, seconds, 0, errors)
        report, _ = result
        expected = self.expected(call_seed)
        return Op(self.kind, seconds, sum(expected), gate_report(report, expected))

    def oracle(self) -> Callable:
        if self.tracer is None:
            return self.plain_oracle
        return self.tracer.timed("verification.oracle", self.plain_oracle)

    def time_builds(self, budget: float) -> None:
        """Time BUILD_REPEATS builds, or more until `budget` seconds have passed."""
        spent = 0.0
        for repeat in itertools.count():
            if repeat >= BUILD_REPEATS and spent >= budget:
                return
            start = time.perf_counter()
            self.build(next(self._build_seeds))
            self.build_times.append(time.perf_counter() - start)
            spent += self.build_times[-1]

    def build_seconds(self) -> float:
        """The 90th percentile build.

        Builds are mostly interpreter work, which on a shared host switches
        between two speeds about 1.7x apart, most of the time at the slower.
        The fastest build and the median jump, and the mean drifts, with the
        share of fast time a run happens to catch; the 90th percentile reads
        the slower speed and was the steadiest of them from run to run.
        """
        return statistics.quantiles(self.build_times, n=10, method="inclusive")[-1]

    def close(self) -> None:
        pass


class CertifySingle(Certify):
    """certify_single on one of qobdd's named functions, realized goodness."""

    epsilon = 0.2

    def __init__(self, seed: int, function: str, n: int, m: int | None = None, **mode) -> None:
        super().__init__(seed)
        self.n = n
        self.mode = mode
        self.polynomial, self.plain_oracle, self.name = verification.named_function(function, n, m)

    def certify(self, call_seed: int):
        return verification.certify_single(
            self.polynomial, self.oracle(), self.epsilon, call_seed, function=self.name, **self.mode
        )

    def build(self, build_seed: int) -> None:
        good_set = goodsets.sample(self.epsilon, self.polynomial.modulus, build_seed)
        compiler.compile_single(self.polynomial, good_set)


class CertifyMod3(CertifySingle):
    """MOD_3 over all 2^n inputs; only residues 1 and 2 need checking."""

    def __init__(self, seed: int, n: int = 16) -> None:
        super().__init__(seed, "mod", n, 3)
        popcount = row_bits(exhaustive_rows(n), n).sum(axis=1)
        ones = int((popcount % 3 == 0).sum())
        self._expected = (ones, (1 << n) - ones, 0)

    def expected(self, call_seed: int) -> tuple[int, int, int]:
        return self._expected


class CertifyPerm(CertifySingle):
    """PERM_n on a seeded uniform sample of inputs (qobdd's sampled mode)."""

    def __init__(self, seed: int, n: int = 4, samples: int = 4096) -> None:
        super().__init__(seed, "perm", n, mode="sampled", samples=samples)
        self.samples = samples

    def expected(self, call_seed: int) -> tuple[int, int, int]:
        # qobdd's sampled mode draws default_rng(seed).integers(0, 2, (samples, n)).
        sample = np.random.default_rng(call_seed).integers(
            0, 2, size=(self.samples, self.n * self.n), dtype=np.uint8
        )
        ones = int(is_permutation(sample, self.n).sum())
        return ones, self.samples - ones, 0


class CertifyHsf(Certify):
    """Hidden subgroup Z_order/<generator>, exhaustive, promise applied."""

    epsilon = 0.25

    def __init__(self, seed: int, order: int = 8, generator: int = 4) -> None:
        super().__init__(seed)
        group = hsf.FiniteGroup.cyclic(order)
        self.instance = hsf.HSFInstance.create(group, hsf.cyclic_subgroup(order, generator))
        self._expected = hsf_counts(order, generator)

    def certify(self, call_seed: int):
        # certify_hsf passes verification.hsf_eval as the oracle; the tracer times it there.
        return verification.certify_hsf(self.instance, self.epsilon, call_seed)

    def expected(self, call_seed: int) -> tuple[int, int, int]:
        return self._expected

    def build(self, build_seed: int) -> None:
        hsf.compile_hsf(self.instance, self.epsilon, build_seed)


def hsf_counts(order: int, generator: int) -> tuple[int, int, int]:
    """(ones, zeros, filtered) of the cyclic HSF instance, by a vectorised decode.

    The cosets of <g> in Z_N are the residue classes mod gcd(g, N); each group
    element owns a w-bit block encoding value block + 1.
    """
    index = math.gcd(generator, order)
    width = (index - 1).bit_length()
    arity = order * width
    rows = exhaustive_rows(arity)
    shifts = np.array([arity - (e + 1) * width for e in range(order)], dtype=np.int64)
    blocks = (rows[:, None] >> shifts[None, :]) & ((1 << width) - 1)
    valid = (blocks < index).all(axis=1)
    ordered = np.sort(blocks, axis=1)
    distinct = 1 + (np.diff(ordered, axis=1) != 0).sum(axis=1)
    kept = valid & (distinct == index)
    constant = np.ones(rows.shape[0], dtype=bool)
    for element in range(index, order):
        constant &= blocks[:, element] == blocks[:, element % index]
    ones = int((kept & constant).sum())
    filtered = int((~kept).sum())
    return ones, rows.shape[0] - filtered - ones, filtered


def own_closed_form(fingerprint: dict, bits: str) -> float:
    """(1/t^2)(sum_k cos(2 pi (k g mod m) / m))^2 from the file's recipe, in exact integers."""
    polynomial = fingerprint["polynomials"][0]
    modulus = int(polynomial["m"])
    coeffs = [int(c) for c in polynomial["coeffs"]]
    value = (coeffs[0] + sum(c for c, bit in zip(coeffs[1:], bits) if bit == "1")) % modulus
    params = [int(k) for k in fingerprint["goodset"]["params"]]
    total = sum(math.cos(2.0 * math.pi * (((k * value) % modulus) / modulus)) for k in params)
    return (total / len(params)) ** 2


class ProgramRoundtrip:
    """`qobdd build` of PERM_n to a file, then `qobdd eval` on seeded inputs.

    A pass evaluates each input once: every n x n permutation matrix plus
    `others` inputs of distinct seeded popcounts, in seeded order.  The evals
    are split into `builds` groups, each after a build of its own.  Spreading
    builds and evals over the pass averages over the host's speed, which
    drifts by up to 20% within seconds.
    """

    kind = "eval"
    epsilon = 0.2

    def __init__(self, seed: int, workdir: Path, n: int = 3, others: int = 4, builds: int = 3) -> None:
        self.tracer = None
        self.n = n
        self._build_seeds = call_seeds(seed + 1)
        self.build_times: list[float] = []
        rng = np.random.default_rng(seed)
        arity = n * n
        perms = []
        for perm in itertools.permutations(range(n)):
            grid = np.zeros((n, n), dtype=np.uint8)
            grid[np.arange(n), perm] = 1
            perms.append(grid.ravel())
        extras = []
        for popcount in rng.choice(arity + 1, size=others, replace=False):
            while True:
                bits = np.zeros(arity, dtype=np.uint8)
                bits[rng.choice(arity, size=int(popcount), replace=False)] = 1
                if not is_permutation(bits, n)[0]:
                    break
            extras.append(bits)
        inputs = perms + extras
        order = rng.permutation(len(inputs))
        self.inputs = ["".join(map(str, inputs[i])) for i in order]
        self.is_perm = [bool(is_permutation(inputs[i], n)[0]) for i in order]
        # None marks a build; a number is the index of the input to evaluate.
        self.schedule = []
        for group in np.array_split(np.arange(len(self.inputs)), builds):
            self.schedule += [None] + [int(i) for i in group]
        self.pass_length = len(self.schedule)
        self.path = workdir / f"program-{os.getpid()}.json"
        self.fingerprint = None

    def step(self, index: int) -> Op:
        position = self.schedule[index % self.pass_length]
        if position is None:
            argv = [
                "build", "--function", "perm", "--n", str(self.n),
                "--epsilon", str(self.epsilon), "--seed", str(next(self._build_seeds)),
                "--out", str(self.path),
            ]  # fmt: skip
            kind, inputs, check = "build", 0, self.check_build
        else:
            bits, is_perm = self.inputs[position], self.is_perm[position]
            argv = ["eval", "--program", str(self.path), "--input", bits]
            kind, inputs, check = self.kind, 1, lambda text: self.check_eval(text, bits, is_perm)

        def call() -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), root_span(self.tracer, "cli.main", index):
                code = cli.main(argv)
            return code, out.getvalue()

        result, seconds, errors = timed_call(call)
        if kind == "build":
            self.build_times.append(seconds)
        if result is not None:
            code, text = result
            try:
                errors += check(text) if code == 0 else [f"{argv[0]} exited {code}"]
            except (KeyError, TypeError, ValueError) as error:
                errors.append(f"{argv[0]}: unreadable output or program file ({error!r})")
        return Op(kind, seconds, inputs, errors)

    def check_build(self, text: str) -> list[str]:
        errors = []
        arity = json.loads(text)["arity"]
        if arity != self.n * self.n:
            errors.append(f"build reports arity {arity}")
        with open(self.path, encoding="utf-8") as handle:
            self.fingerprint = json.load(handle)["fingerprint"]
        if self.tracer is not None:
            self.tracer.counts["programs.file_bytes"] += self.path.stat().st_size
        return errors

    def check_eval(self, text: str, bits: str, is_perm: bool) -> list[str]:
        errors = []
        answer = json.loads(text)
        probability = answer["accept_probability"]
        reference = own_closed_form(self.fingerprint, bits)
        if answer["closed_form"] is None or not abs(probability - answer["closed_form"]) <= TOL:
            errors.append(f"eval {bits}: {probability} vs reported closed form {answer['closed_form']}")
        if not abs(probability - reference) <= TOL:
            errors.append(f"eval {bits}: {probability} vs closed form {reference}")
        if is_perm and not abs(probability - 1.0) <= TOL:
            errors.append(f"eval {bits}: permutation matrix accepted with {probability}")
        return errors

    def build_seconds(self) -> float:
        """The mean build; a run times too few for a percentile."""
        return statistics.fmean(self.build_times)

    def time_builds(self, budget: float) -> None:
        """Builds are timed inside each pass."""

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


def make(name: str, seed: int, workdir: Path):
    """The named workload at its benchmark size."""
    if name == "certify-mod3":
        return CertifyMod3(seed)
    if name == "certify-perm4":
        return CertifyPerm(seed)
    if name == "certify-hsf-z8":
        return CertifyHsf(seed)
    if name == "program-roundtrip":
        return ProgramRoundtrip(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("certify-mod3", "certify-perm4", "certify-hsf-z8", "program-roundtrip")
