"""Acceptance suite: one test per shipped criterion, each printing a verdict.

The campaigns (compile + exhaustive sweep + oracle classification) run once in
a module fixture and are shared across criteria.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

from qobdd.compiler import compile_single
from qobdd.goodsets import (
    required_size,
    required_size_raw,
    sample,
    sample_good,
    verify_exhaustive,
)
from qobdd.hsf import (
    FiniteGroup,
    HSFInstance,
    compile_hsf,
    cyclic_subgroup,
    hsf_characteristic,
    hsf_eval_batch,
)
from qobdd.polynomials import mod_polynomial, sop_to_polynomial
from qobdd.programs import metrics
from qobdd.verification import (
    ClassStats,
    DETERMINISTIC_WIDTH_BOUNDS,
    NamedOracle,
    certify_general,
    certify_hsf,
    certify_single,
    named_function,
    width_table,
)
from reference import azuma_failure_bound, is_read_once, truth_table_to_sop, validate

ONES_TOL = 1e-9
CLOSED_FORM_TOL = 1e-6


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@dataclass
class Campaign:
    report: object
    compilation: object
    elapsed: float


def _single_campaign(function, n, m, epsilon, seed, goodness) -> Campaign:
    poly, oracle, name = named_function(function, n, m)
    start = time.perf_counter()
    report, compilation = certify_single(
        poly, oracle, epsilon, seed, function=name, goodness=goodness
    )
    return Campaign(report, compilation, time.perf_counter() - start)


def _hsf_campaign(order, generator, epsilon, seed, apply_promise) -> Campaign:
    """certify_hsf, or without the promise its characteristic through
    certify_general over every input."""
    instance = HSFInstance.create(
        FiniteGroup.cyclic(order), cyclic_subgroup(order, generator)
    )
    start = time.perf_counter()
    if apply_promise:
        report, compilation = certify_hsf(instance, epsilon, seed)
    else:
        oracle = NamedOracle(lambda bits: hsf_eval_batch(instance, bits))
        report, compilation = certify_general(
            hsf_characteristic(instance), oracle, epsilon, seed
        )
    return Campaign(report, compilation, time.perf_counter() - start)


@pytest.fixture(scope="module")
def campaigns() -> dict[str, Campaign]:
    return {
        "mod": _single_campaign("mod", 10, 3, 0.2, seed=0, goodness="exhaustive"),
        "eq": _single_campaign("eq", 4, None, 0.2, seed=0, goodness="realized"),
        "palindrome": _single_campaign(
            "palindrome", 11, None, 0.2, seed=0, goodness="realized"
        ),
        "perm": _single_campaign("perm", 3, None, 0.2, seed=0, goodness="realized"),
        "hsf_z6": _hsf_campaign(6, 3, 0.25, seed=0, apply_promise=True),
        "hsf_z4": _hsf_campaign(4, 2, 0.25, seed=0, apply_promise=False),
    }


def test_criterion_1_mod3_one_sided_error(campaigns):
    c = campaigns["mod"]
    r = c.report
    ok = (
        r.goodness == "exhaustive"
        and r.ones.count + r.zeros.count == 1024
        and r.ones.min_accept >= 1.0 - ONES_TOL
        and r.zeros.max_accept < 0.2
        and c.elapsed < 30.0
    )
    criterion(
        1,
        ok,
        f"MOD_3 n=10 eps=0.2: min accept on ones {r.ones.min_accept:.12f}, "
        f"max on zeros {r.zeros.max_accept:.6f} < 0.2, "
        f"{r.ones.count + r.zeros.count} inputs in {c.elapsed:.2f}s",
    )


def test_criterion_2_eq_palindrome_perm(campaigns):
    expected_inputs = {"eq": 256, "palindrome": 2048, "perm": 512}
    total_elapsed = 0.0
    ok = True
    details = []
    for key, expected in expected_inputs.items():
        c = campaigns[key]
        r = c.report
        total_elapsed += c.elapsed
        ok = ok and (
            r.goodness == "realized"
            and r.ones.count + r.zeros.count == expected
            and r.ones.min_accept >= 1.0 - ONES_TOL
            and r.zeros.max_accept < 0.2
        )
        details.append(f"{r.function} max0={r.zeros.max_accept:.4f}")
    ok = ok and total_elapsed < 120.0
    criterion(2, ok, f"{'; '.join(details)}; total {total_elapsed:.2f}s")


def test_criterion_3_closed_form_matches_simulator(campaigns):
    gaps = {key: c.report.max_closed_form_gap for key, c in campaigns.items()}
    ok = all(gap is not None and gap <= CLOSED_FORM_TOL for gap in gaps.values())
    worst = max(gaps.values())
    criterion(
        3,
        ok,
        f"max |closed form - simulated| = {worst:.3e} <= 1e-6 "
        f"across {sum(c.report.ones.count + c.report.zeros.count for c in campaigns.values())} inputs",
    )


def test_criterion_4_characteristic_polynomials_three_variables():
    start = time.perf_counter()
    checks = 0
    ok = True
    for encoded in range(256):
        table = [(encoded >> (7 - row)) & 1 for row in range(8)]
        negation = [1 - v for v in table]
        poly = sop_to_polynomial(truth_table_to_sop(negation))
        for v in range(8):
            sigma = [(v >> (2 - j)) & 1 for j in range(3)]
            ok = ok and ((poly.evaluate(sigma) == 0) == bool(table[v]))
            checks += 1
    elapsed = time.perf_counter() - start
    ok = ok and checks == 2048 and elapsed < 5.0
    criterion(4, ok, f"{checks} zero-set checks over all 3-variable tables in {elapsed:.2f}s")


def test_criterion_5_good_set_sizes_and_sampling():
    start = time.perf_counter()
    raw = required_size_raw(0.5, 1024)
    padded = required_size(0.5, 1024)
    bound = azuma_failure_bound(0.5, raw)
    seeds_passing = sum(
        verify_exhaustive(sample(0.25, 64, seed=s)) for s in range(10)
    )
    elapsed = time.perf_counter() - start
    ok = (
        raw == 31
        and padded == 32
        and bound <= 1.0 / 1024
        and seeds_passing >= 1
        and elapsed < 5.0
    )
    criterion(
        5,
        ok,
        f"required size 31 -> 32, azuma {bound:.3e} <= 1/1024, "
        f"{seeds_passing}/10 seeds exhaustively good in {elapsed:.2f}s",
    )


def test_criterion_6_hidden_subgroup(campaigns):
    z6 = campaigns["hsf_z6"]
    z4 = campaigns["hsf_z4"]
    bound = 0.75
    ok = (
        z6.report.ones.min_accept >= 1.0 - ONES_TOL
        and z6.report.zeros.max_accept <= bound + 1e-9
        and z6.report.ones.count + z6.report.zeros.count + z6.report.filtered == 4096
        and z4.report.ones.count + z4.report.zeros.count == 16
        and z4.report.ones.min_accept >= 1.0 - ONES_TOL
        and z4.report.zeros.max_accept <= bound + 1e-9
        and z6.elapsed + z4.elapsed < 120.0
    )
    criterion(
        6,
        ok,
        f"Z_6/{{0,3}}: ones {z6.report.ones.count}, zeros {z6.report.zeros.count}, "
        f"filtered {z6.report.filtered}, max0 {z6.report.zeros.max_accept:.4f} <= 0.75; "
        f"Z_4/{{0,2}} exhaustive 16 inputs, max0 {z4.report.zeros.max_accept:.4f}; "
        f"{z6.elapsed + z4.elapsed:.2f}s",
    )


def test_criterion_7_width_accounting(campaigns):
    mod64 = compile_single(mod_polynomial(64, 64), sample(0.25, 64, seed=0))
    mod_metrics = metrics(mod64.program)
    z4 = compile_hsf(
        HSFInstance.create(FiniteGroup.cyclic(4), cyclic_subgroup(4, 2)), 0.25, seed=0
    )
    t = z4.good_set.size
    z4_metrics = metrics(z4.program)
    z6 = campaigns["hsf_z6"].report
    ok = (
        (mod_metrics.width, mod_metrics.qubits, mod_metrics.length) == (128, 7, 64)
        and z4_metrics.qubits == (t.bit_length() - 1) + 2
        and z6.metrics.qubits == (z6.t.bit_length() - 1) + 2
    )
    criterion(
        7,
        ok,
        f"MOD_64 metrics {(mod_metrics.width, mod_metrics.qubits, mod_metrics.length)} "
        f"== (128, 7, 64); HSF Z_4 qubits {z4_metrics.qubits} == log2({t}) + 2; "
        f"HSF Z_6 qubits {z6.metrics.qubits} == log2({z6.t}) + 2",
    )


def test_criterion_8_width_table_documents_asymptotics(campaigns):
    entries = [
        (
            campaigns[key].report.function,
            campaigns[key].compilation.program,
            DETERMINISTIC_WIDTH_BOUNDS[key],
        )
        for key in ("mod", "eq", "palindrome", "perm")
    ]
    rows = width_table(entries)
    ok = (
        len(rows) == 4
        and all(isinstance(row["quantum_width"], int) for row in rows)
        and [row["deterministic_obdd_width"] for row in rows]
        == ["Omega(m)", "2^Omega(n)", "2^Omega(n)", "Omega(2^n n^(-5/2))"]
    )
    criterion(
        8,
        ok,
        "asymptotic table bounds are documentation; measured widths "
        + ", ".join(f"{row['function']}={row['quantum_width']}" for row in rows),
    )


def test_criterion_9_property_suite(campaigns):
    unitary_ok = True
    read_once_ok = True
    for c in campaigns.values():
        unitary_ok = unitary_ok and validate(c.compilation.program) == []
        read_once_ok = read_once_ok and is_read_once(c.compilation.program)
    norm_ok = all(c.report.max_norm_drift <= 1e-9 for c in campaigns.values())

    rng = random.Random(13)
    values = np.array([rng.random() for _ in range(512)])
    whole = ClassStats().observe(values)
    merge_ok = True
    for chunk in (1, 5, 37, 512):
        merged = ClassStats()
        for start in range(0, 512, chunk):
            merged = merged.merge(ClassStats().observe(values[start : start + chunk]))
        merge_ok = merge_ok and merged == whole

    ok = unitary_ok and read_once_ok and norm_ok and merge_ok
    criterion(
        9,
        ok,
        f"unitarity(1e-9)={unitary_ok}, read-once={read_once_ok}, "
        f"norm drift <= 1e-9 = {norm_ok}, merge partition-invariant = {merge_ok}",
    )
