"""Sweep campaigns, report aggregation, and the width table."""

from __future__ import annotations

import functools
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd import compiler, verification
from qobdd.compiler import compile_single, evaluate_linear_batch
from qobdd.errors import TooLargeError
from qobdd.goodsets import is_good_for, sample
from qobdd.polynomials import (
    LinearPolynomial,
    eq_polynomial,
    mod_polynomial,
    palindrome_polynomial,
    perm_polynomial,
)
from qobdd.verification import (
    ClassStats,
    NamedOracle,
    _input_walk,
    _nonzero_union,
    DETERMINISTIC_WIDTH_BOUNDS,
    certify_general,
    certify_hsf,
    certify_single,
    input_block,
    named_function,
    realized_residues,
    residue_image,
    sampled_inputs,
    verify,
    width_table,
)
from qobdd.hsf import (
    FiniteGroup,
    HSFInstance,
    cyclic_subgroup,
    hsf_characteristic,
    hsf_eval_batch,
    satisfies_promise_batch,
)
import reference
from reference import all_inputs


def test_all_inputs_enumerates_each_once():
    bits = all_inputs(4)
    assert bits.shape == (16, 4)
    encoded = {int("".join(map(str, row)), 2) for row in bits}
    assert encoded == set(range(16))
    # x_1 is the most significant bit
    assert list(bits[8]) == [1, 0, 0, 0]


def test_all_inputs_guard():
    # The exhaustive walk refuses past EXHAUSTIVE_GUARD before it enumerates.
    with pytest.raises(TooLargeError, match="n <= 24, got 25"):
        _input_walk(25, "exhaustive")


def test_input_block_slices_the_enumeration():
    full = all_inputs(5)
    np.testing.assert_array_equal(input_block(5, 7, 19), full[7:19])


def test_sampled_inputs_deterministic():
    np.testing.assert_array_equal(
        sampled_inputs(6, 50, seed=3), sampled_inputs(6, 50, seed=3)
    )


def test_realized_residues_matches_brute_force():
    # One ascending array of distinct nonzero residues, of one polynomial or
    # two: int64 while evaluate_linear_batch sums in int64, Python integers
    # in an object array past that (3^40 and 2^127 - 1 do not fit int64;
    # the sums of 2^62 + 5 do not).
    bits = all_inputs(6)
    for modulus in (3, 2**12, 3**40, 2**62 + 5, 2**127 - 1):
        rng = random.Random(modulus)
        polynomials = [
            mod_polynomial(6, modulus),
            LinearPolynomial(modulus, 6, tuple(rng.randrange(modulus) for _ in range(7))),
        ]
        wide = (6 + 1) * (modulus - 1) >= 2**62
        for chosen in (polynomials[:1], polynomials):
            residues = realized_residues(chosen, bits)
            expected = {p.evaluate(list(row)) for p in chosen for row in bits} - {0}
            assert residues.tolist() == sorted(expected)
            assert residues.dtype == (object if wide else np.int64)
            assert all(type(r) is int for r in residues) or not wide


def test_class_stats_merge_partition_invariant():
    rng = random.Random(7)
    values = np.array([rng.random() for _ in range(200)])
    whole = ClassStats().observe(values)
    for chunk in (1, 3, 17, 64, 200):
        merged = ClassStats()
        for start in range(0, 200, chunk):
            merged = merged.merge(ClassStats().observe(values[start : start + chunk]))
        assert merged == whole
    # merge works in any association order
    left = ClassStats().observe(values[:50]).merge(ClassStats().observe(values[50:]))
    assert left == whole


def popcount_mod_labels(m):
    """MOD_m as an array labeller: one boolean per row of a bit matrix."""
    return lambda bits: bits.sum(axis=1, dtype=np.int64) % m == 0


def all_ones(bits):
    return np.ones(bits.shape[0], dtype=bool)


def test_verify_chunk_size_does_not_change_outcome(monkeypatch):
    poly = mod_polynomial(8, 3)
    good_set = sample(0.2, 3, seed=2)
    program = compile_single(poly, good_set).program
    reports = []
    for chunk in (16, 100, 1 << 13):
        monkeypatch.setattr(verification, "DEFAULT_CHUNK", chunk)
        reports.append(verify(popcount_mod_labels(3), program, bound=0.2))
    assert all(r.ones.count == reports[0].ones.count for r in reports)
    assert all(r.zeros.count == reports[0].zeros.count for r in reports)
    for r in reports[1:]:
        assert r.ones.min_accept == pytest.approx(reports[0].ones.min_accept, abs=1e-12)
        assert r.zeros.max_accept == pytest.approx(reports[0].zeros.max_accept, abs=1e-12)


def test_verify_vacuous_zero_class():
    zero_poly = LinearPolynomial(modulus=3, arity=3, coefficients=(0, 0, 0, 0))
    program = compile_single(zero_poly, sample(0.5, 3, seed=0)).program
    report = verify(all_ones, program, bound=0.5)
    assert report.passed
    assert report.zeros.count == 0
    assert report.zeros.max_accept is None
    assert report.to_json_dict()["max_accept_on_zeros"] is None


def test_verify_promise_filter_counts():
    poly = mod_polynomial(4, 3)
    good_set = sample(0.2, 3, seed=0)
    program = compile_single(poly, good_set).program
    report = verify(
        popcount_mod_labels(3), program, bound=0.2, promise=lambda bits: bits[:, 0] == 0
    )
    assert report.filtered == 8
    assert report.ones.count + report.zeros.count == 8


def test_verify_reads_integer_labels_as_booleans():
    program = compile_single(mod_polynomial(6, 3), sample(0.2, 3, seed=0)).program
    boolean = verify(
        popcount_mod_labels(3), program, bound=0.2, promise=lambda bits: bits[:, 0] == 1
    )
    integer = verify(
        lambda bits: (bits.sum(axis=1) % 3 == 0).astype(np.int64),
        program,
        bound=0.2,
        promise=lambda bits: bits[:, 0].astype(np.int64),
    )
    assert integer == boolean
    assert (boolean.ones.count, boolean.zeros.count, boolean.filtered) == (11, 21, 32)


def test_verify_exhaustive_guard():
    zero_poly = LinearPolynomial(modulus=3, arity=25, coefficients=(0,) * 26)
    program = compile_single(zero_poly, sample(0.5, 3, seed=0)).program
    with pytest.raises(TooLargeError):
        verify(lambda bits: 1, program, bound=0.5)


def test_verify_sampled_mode():
    poly = mod_polynomial(12, 3)
    good_set = sample(0.2, 3, seed=1)
    program = compile_single(poly, good_set).program
    oracle = popcount_mod_labels(3)
    report = verify(
        oracle, program, bound=0.2, mode="sampled", samples=500, seed=4
    )
    assert report.mode == {"kind": "sampled", "samples": 500, "seed": 4}
    assert report.ones.count + report.zeros.count == 500
    again = verify(
        oracle, program, bound=0.2, mode="sampled", samples=500, seed=4
    )
    assert report == again


def test_certify_single_report_reproducible():
    poly, oracle, name = named_function("eq", 3, None)
    first, _ = certify_single(poly, oracle, 0.2, seed=0, function=name)
    second, _ = certify_single(poly, oracle, 0.2, seed=0, function=name)
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())
    assert first.passed


@pytest.mark.parametrize("goodness", ["realized", "exhaustive"])
def test_report_names_the_good_set_it_certified(goodness):
    # Seed 143's set over Z_3 is not good for residue 1, so sample_good
    # certifies a later seed's set, and the report says which.
    assert not is_good_for(sample(0.5, 3, 143), 1)
    polynomial, oracle, name = named_function("mod", 4, 3)
    report, compilation = certify_single(
        polynomial, oracle, 0.5, seed=143, function=name, goodness=goodness
    )
    payload = report.to_json_dict()
    assert list(payload)[-2:] == ["goodness", "goodset"]
    chosen = payload["goodset"]
    assert chosen["seed"] > 143
    assert chosen["attempts"] == chosen["seed"] - 143 + 1
    assert sample(0.5, 3, chosen["seed"]) == compilation.good_set
    assert report.passed
    # A first seed that passes takes one attempt.
    report, compilation = certify_single(polynomial, oracle, 0.5, seed=chosen["seed"])
    assert report.goodset == chosen | {"attempts": 1}
    assert sample(0.5, 3, chosen["seed"]) == compilation.good_set


def test_certify_hsf_exhaustive_z4():
    # The Z_4/<2> characteristic over every input, without the promise.
    instance = HSFInstance.create(FiniteGroup.cyclic(4), cyclic_subgroup(4, 2))
    report, compilation = certify_general(
        hsf_characteristic(instance), NamedOracle(lambda b: hsf_eval_batch(instance, b)), 0.25, seed=0
    )
    assert report.passed
    assert report.ones.count == 2
    assert report.zeros.count == 14
    assert report.bound == pytest.approx(0.75)
    assert report.max_closed_form_gap <= 1e-6


def test_certify_general_with_per_row_labels_equals_certify_hsf():
    # The same characteristic, labelled row by row through the per-input
    # reference predicate and promise instead of the batch forms.
    instance = HSFInstance.create(FiniteGroup.cyclic(4), cyclic_subgroup(4, 2))
    general, _ = certify_general(
        hsf_characteristic(instance),
        functools.partial(reference.hsf_eval, instance),
        0.25,
        seed=0,
        function="Z_4/<2>",
        promise=functools.partial(reference.satisfies_promise, instance),
    )
    hsf, _ = certify_hsf(instance, 0.25, seed=0)
    assert (general.ones.count, general.zeros.count, general.filtered) == (2, 12, 2)
    assert general.passed
    general_dict, hsf_dict = general.to_json_dict(), hsf.to_json_dict()
    assert general_dict.pop("function") == "Z_4/<2>"
    assert hsf_dict.pop("function") == "HSF(4:2)"
    assert general_dict == hsf_dict


@pytest.mark.parametrize(
    "order, generator, chunks, counts",
    [(4, 2, (1, 3, 16), (2, 12, 2)), (6, 3, (5, 256, 4096), (6, 534, 3556))],
)
def test_certify_hsf_counts_do_not_depend_on_the_chunk_size(
    monkeypatch, order, generator, chunks, counts
):
    instance = HSFInstance.create(FiniteGroup.cyclic(order), cyclic_subgroup(order, generator))
    # Chunks of the promise-free all-equal input (Z_4) and of the invalid
    # leading block 11 (Z_6) keep no input at all.
    emptied = input_block(instance.arity, 0, 1) if order == 4 else input_block(12, 3072, 3328)
    assert not satisfies_promise_batch(instance, emptied).any()
    reports = []
    for chunk in chunks:
        monkeypatch.setattr(verification, "DEFAULT_CHUNK", chunk)
        reports.append(certify_hsf(instance, 0.25, seed=0)[0])
    for report in reports:
        assert (report.ones.count, report.zeros.count, report.filtered) == counts
        assert report.passed
        assert report.ones.min_accept == pytest.approx(reports[0].ones.min_accept, abs=1e-12)
        assert report.zeros.max_accept == pytest.approx(reports[0].zeros.max_accept, abs=1e-12)


def test_sampled_pool_over_the_budget_is_refused_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("drew the sample before checking its size")

    program = compile_single(mod_polynomial(16, 3), sample(0.2, 3, seed=0)).program
    labels = popcount_mod_labels(3)
    # 1,000 samples of 16 bits are 16,000 bytes: refused one byte under that.
    monkeypatch.setattr(compiler, "BUDGET_BYTES", 16_000 - 1)
    with monkeypatch.context() as patched:
        patched.setattr(verification, "sampled_inputs", no_sampling)
        with pytest.raises(TooLargeError, match="budget"):
            verify(labels, program, bound=0.2, mode="sampled", samples=1000)
    monkeypatch.setattr(compiler, "BUDGET_BYTES", 16_000)
    report = verify(labels, program, bound=0.2, mode="sampled", samples=1000)
    assert report.ones.count + report.zeros.count == 1000


def test_width_table_rows():
    poly, _, name = named_function("mod", 8, 16)
    program = compile_single(poly, sample(0.25, 16, seed=0)).program
    rows = width_table([(name, program, DETERMINISTIC_WIDTH_BOUNDS["mod"])])
    assert rows == [
        {
            "function": "MOD_16",
            "quantum_width": program.dimension,
            "qubits": 6,
            "length": 8,
            "deterministic_obdd_width": "Omega(m)",
        }
    ]
    assert width_table([]) == []


def walked_residues(polynomials, chunks) -> np.ndarray:
    """The residues a sampled certification checks: realized_residues of
    each chunk, merged as _certify merges them."""
    return _nonzero_union([realized_residues(polynomials, bits) for bits in chunks])


def imaged_residues(polynomials) -> np.ndarray:
    """The residues an exhaustive certification checks: the merged images."""
    return _nonzero_union([residue_image(p) for p in polynomials])


def test_residue_pass_walks_its_inputs_in_chunks():
    # All 2^20 inputs at once and their int64 copy took 188 MB; one chunk at a
    # time the pass holds a few MB.
    polynomial = mod_polynomial(20, 3)
    tracemalloc.start()
    try:
        residues = walked_residues([polynomial], _input_walk(20, "exhaustive")[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residues.tolist() == [1, 2]
    assert peak < 16 * 2**20


def _draw_polynomials(data) -> list[LinearPolynomial]:
    """One or two polynomials over 1..12 bits.  3^40 takes the object path,
    and so does 2^61 + 1: its sums of n + 1 coefficients could pass 2^62."""
    arity = data.draw(st.integers(min_value=1, max_value=12))
    modulus = data.draw(st.sampled_from([2, 3, 7, 2**12, 2**61 + 1, 3**40]))
    return [
        LinearPolynomial(
            modulus=modulus,
            arity=arity,
            coefficients=tuple(
                data.draw(st.integers(0, modulus - 1)) for _ in range(arity + 1)
            ),
        )
        for _ in range(data.draw(st.integers(1, 2)))
    ]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_chunked_residues_equal_residues_of_all_inputs(data):
    polynomials = _draw_polynomials(data)
    arity = polynomials[0].arity
    chunk_size = data.draw(st.integers(min_value=1, max_value=700))
    with mock.patch.object(verification, "DEFAULT_CHUNK", chunk_size):
        exhaustive = _input_walk(arity, "exhaustive")[1]
        sampled = _input_walk(arity, "sampled", 300, 5)[1]
    assert walked_residues(polynomials, exhaustive).tolist() == realized_residues(
        polynomials, all_inputs(arity)
    ).tolist()
    assert walked_residues(polynomials, sampled).tolist() == realized_residues(
        polynomials, sampled_inputs(arity, 300, 5)
    ).tolist()


@pytest.mark.parametrize(
    "polynomial", [palindrome_polynomial(10), perm_polynomial(3)], ids=["pal10", "perm3"]
)
def test_chunked_residues_of_named_functions(monkeypatch, polynomial):
    monkeypatch.setattr(verification, "DEFAULT_CHUNK", 100)
    chunks = _input_walk(polynomial.arity, "exhaustive")[1]
    assert walked_residues([polynomial], chunks).tolist() == realized_residues(
        [polynomial], all_inputs(polynomial.arity)
    ).tolist()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_residue_images_equal_the_walk_over_every_input(data):
    polynomials = _draw_polynomials(data)
    arity = polynomials[0].arity
    walked = walked_residues(polynomials, _input_walk(arity, "exhaustive")[1])
    imaged = imaged_residues(polynomials)
    assert imaged.dtype == walked.dtype and imaged.tolist() == walked.tolist()
    for polynomial in polynomials:
        image = residue_image(polynomial)
        values = np.unique(evaluate_linear_batch(polynomial, all_inputs(arity)))
        assert image.dtype == values.dtype and image.tolist() == values.tolist()


_HSF_Z8 = hsf_characteristic(
    HSFInstance.create(FiniteGroup.cyclic(8), cyclic_subgroup(8, 4))
).polynomials


@pytest.mark.parametrize(
    "polynomials",
    [
        [perm_polynomial(4)],
        [eq_polynomial(8)],
        [palindrome_polynomial(18)],
        [mod_polynomial(16, 3)],
        [_HSF_Z8[0]],
        [_HSF_Z8[1]],
        list(_HSF_Z8),
    ],
    ids=["perm4", "eq8", "pal18", "mod3-16", "hsf-z8-first", "hsf-z8-second", "hsf-z8"],
)
def test_residue_images_of_named_functions_equal_the_walk(polynomials):
    walked = walked_residues(polynomials, _input_walk(polynomials[0].arity, "exhaustive")[1])
    imaged = imaged_residues(polynomials)
    assert imaged.dtype == walked.dtype and imaged.tolist() == walked.tolist()


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_certify_checks_goodness_on_exactly_the_realized_residues(monkeypatch, mode):
    original, checked = verification.sample_good, []

    def recorded(epsilon, modulus, seed, residues=None):
        checked.append(residues)
        return original(epsilon, modulus, seed, residues=residues)

    monkeypatch.setattr(verification, "sample_good", recorded)
    instance = HSFInstance.create(FiniteGroup.cyclic(4), cyclic_subgroup(4, 2))
    characteristic = hsf_characteristic(instance)
    oracle = NamedOracle(lambda bits: hsf_eval_batch(instance, bits))
    certify_general(characteristic, oracle, 0.25, 3, mode=mode, samples=6)
    bits = all_inputs(4) if mode == "exhaustive" else sampled_inputs(4, 6, 3)
    rows = bits.tolist()
    expected = {p.evaluate(row) for p in characteristic.polynomials for row in rows} - {0}
    (residues,) = checked
    assert residues.tolist() == sorted(expected)


def test_only_sampled_realized_goodness_walks_the_inputs(monkeypatch):
    original = realized_residues

    def no_walk(polynomials, bits):
        raise AssertionError("walked the inputs of an exhaustive certification")

    monkeypatch.setattr(verification, "realized_residues", no_walk)
    poly, oracle, name = named_function("mod", 8, 3)
    report, _ = certify_single(poly, oracle, 0.2, seed=0, function=name)
    assert report.passed and report.goodness == "realized"
    instance = HSFInstance.create(FiniteGroup.cyclic(4), cyclic_subgroup(4, 2))
    report, _ = certify_hsf(instance, 0.25, 0)
    assert report.passed and report.goodness == "realized"

    walked = []

    def counted(polynomials, bits):
        walked.append(bits.shape[0])
        return original(polynomials, bits)

    monkeypatch.setattr(verification, "realized_residues", counted)
    report, _ = certify_single(poly, oracle, 0.2, seed=0, mode="sampled", samples=64)
    assert report.passed and walked == [64]


def test_sliced_closed_form_bounds_a_sampled_certification():
    # A (distinct residues, t) product array and its cosines for 20,000 PERM_5
    # samples take about 48 MB; the closed form holds one slice of at most
    # goodsets._CHUNK_ENTRIES entries of each at a time.
    poly, oracle, name = named_function("perm", 5)
    tracemalloc.start()
    try:
        report, _ = certify_single(poly, oracle, 0.2, 7, function=name, mode="sampled", samples=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.ones.count + report.zeros.count == 20_000
    assert peak < 10 * 2**20


def test_exhaustive_goodness_skips_the_residue_pass(monkeypatch):
    def no_residue_pass(polynomials, bits):
        raise AssertionError("realized residues collected under exhaustive goodness")

    monkeypatch.setattr(verification, "realized_residues", no_residue_pass)
    poly, oracle, name = named_function("mod", 8, 3)
    report, _ = certify_single(poly, oracle, 0.2, seed=0, function=name, goodness="exhaustive")
    assert report.passed and report.goodness == "exhaustive"


def test_exhaustive_goodness_draws_the_sampled_pool_once(monkeypatch):
    # The residue pass is skipped, so only the sweep draws the pool: one
    # 12.8 MB pool and the sweep's chunk buffers, not two pools.
    draws = []

    def counted(*args):
        draws.append(args)
        return sampled_inputs(*args)

    monkeypatch.setattr(verification, "sampled_inputs", counted)
    samples, arity = 200_000, 64
    tracemalloc.start()
    try:
        report, _ = verification._certify(
            mod_polynomial(arity, 3), lambda bits: bits.sum(axis=1) % 3 == 0, 0.9, 0,
            function="", goodness="exhaustive", mode="sampled", samples=samples,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.ones.count + report.zeros.count == samples
    assert draws == [(arity, samples, 0)]
    assert peak < 2 * samples * arity


def test_certify_refuses_an_oversized_pool_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing the sampled pool")

    monkeypatch.setattr(verification, "sampled_inputs", no_draw)
    monkeypatch.setattr(verification, "sample_good", no_draw)
    poly, oracle, _ = named_function("mod", 16, 3)
    # One sample more than compiler.BUDGET_BYTES admits at 16 bytes each.
    samples = compiler.BUDGET_BYTES // 16 + 1
    for goodness in ("exhaustive", "realized"):
        with pytest.raises(TooLargeError, match="samples of 16 bits"):
            certify_single(poly, oracle, 0.2, 0, goodness=goodness, mode="sampled", samples=samples)


def test_certify_checks_the_exhaustive_guard_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a good set past the exhaustive guard")

    monkeypatch.setattr(verification, "sample_good", no_sampling)
    poly, oracle, _ = named_function("mod", 25, 3)
    for goodness in ("exhaustive", "realized"):
        with pytest.raises(TooLargeError):
            certify_single(poly, oracle, 0.2, seed=0, goodness=goodness)
    with pytest.raises(ValueError, match="unknown mode"):
        certify_single(poly, oracle, 0.2, seed=0, mode="bogus")
