"""Groups, cosets, the hidden-subgroup oracle, and its characteristic."""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd.compiler import check_budget
from qobdd.errors import LengthMismatchError, NotNormalError, PromiseViolation, TooLargeError
from qobdd.goodsets import required_size
from qobdd.hsf import (
    CAYLEY_ORDER_LIMIT,
    CYCLIC_ORDER_LIMIT,
    FiniteGroup,
    HSFInstance,
    check_normal_subgroup,
    compile_hsf,
    coset_decomposition,
    cyclic_subgroup,
    decode_input,
    encode_values,
    hsf_characteristic,
    hsf_eval,
    hsf_eval_batch,
    satisfies_promise,
    satisfies_promise_batch,
)
from qobdd.polynomials import Characteristic, LinearPolynomial
from qobdd.programs import accept_probability, is_read_once, metrics
from qobdd.verification import all_inputs


def z4_instance() -> HSFInstance:
    return HSFInstance.create(FiniteGroup.cyclic(4), cyclic_subgroup(4, 2))


def z6_instance() -> HSFInstance:
    return HSFInstance.create(FiniteGroup.cyclic(6), cyclic_subgroup(6, 3))


def symmetric_group_3() -> FiniteGroup:
    elements = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elements)}
    table = [
        [index[tuple(p[q[k]] for k in range(3))] for q in elements] for p in elements
    ]
    return FiniteGroup.from_table(table)


def test_cyclic_group_and_subgroups():
    group = FiniteGroup.cyclic(6)
    assert group.identity == 0
    assert group.multiply(4, 5) == 3
    assert group.inverse(2) == 4
    assert cyclic_subgroup(4, 2) == (0, 2)
    assert cyclic_subgroup(6, 3) == (0, 3)
    assert cyclic_subgroup(6, 5) == (0, 1, 2, 3, 4, 5)


def test_from_table_rejects_non_latin_square():
    with pytest.raises(ValueError):
        FiniteGroup.from_table([[0, 1], [0, 1]])


def test_from_table_rejects_non_associative_loop():
    # A Latin square with two-sided identity 0 but an order-2 element, which
    # no group of order 5 has.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup.from_table(table)


def test_from_table_checks_associativity_past_64_elements():
    # The loop above times Z_13: 65 elements, and the message names the
    # first failing (a, b, c) in lexicographic order.
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    table = [[13 * loop[a // 13][b // 13] + (a + b) % 13 for b in range(65)] for a in range(65)]
    first = next(
        (a, b, c)
        for a, b, c in product(range(65), repeat=3)
        if table[table[a][b]][c] != table[a][table[b][c]]
    )
    with pytest.raises(ValueError, match=re.escape(f"associativity fails at {first}")):
        FiniteGroup.from_table(table)


def test_from_table_refuses_tables_over_the_order_limit():
    order = CAYLEY_ORDER_LIMIT
    table = [[(a + b) % order for b in range(order)] for a in range(order)]
    assert FiniteGroup.from_table(table).identity == 0
    larger = [[(a + b) % (order + 1) for b in range(order + 1)] for a in range(order + 1)]
    with pytest.raises(TooLargeError, match="over the limit"):
        FiniteGroup.from_table(larger)


def test_cyclic_refuses_orders_over_the_limit_before_building_the_table():
    for order in (CYCLIC_ORDER_LIMIT + 1, 10**5, 10**12):
        with pytest.raises(TooLargeError, match="over the limit"):
            FiniteGroup.cyclic(order)
    # The limit refuses no instance that compiles: from order 1477 up, one
    # bit per element gives m >= 2^1477, t = 4096 even as eps -> 1, and the
    # two-polynomial program over the size budget.
    assert required_size(1 - 1e-9, 2**1476) == 2048
    assert required_size(1 - 1e-9, 2**1477) == 4096
    zero = LinearPolynomial(2**1477, 1477, (0,) * 1478)
    with pytest.raises(TooLargeError, match="budget"):
        check_budget(Characteristic(2**1477, 1477, (zero, zero)), 4096)
    assert 1477 <= CYCLIC_ORDER_LIMIT


def test_coset_decompositions():
    assert coset_decomposition(FiniteGroup.cyclic(4), (0, 2)) == ((0, 2), (1, 3))
    assert coset_decomposition(FiniteGroup.cyclic(6), (0, 3)) == (
        (0, 3),
        (1, 4),
        (2, 5),
    )
    whole = coset_decomposition(FiniteGroup.cyclic(4), (0, 1, 2, 3))
    assert whole == ((0, 1, 2, 3),)


def test_non_normal_subgroup_rejected():
    s3 = symmetric_group_3()
    # order-2 subgroup generated by a transposition is not normal in S_3
    swap = None
    for e in range(6):
        if e != s3.identity and s3.multiply(e, e) == s3.identity:
            swap = e
            break
    assert swap is not None
    with pytest.raises(NotNormalError, match="aK != Ka"):
        check_normal_subgroup(s3, (s3.identity, swap))


def test_subgroup_closure_checks():
    group = FiniteGroup.cyclic(6)
    with pytest.raises(NotNormalError, match="identity"):
        check_normal_subgroup(group, (3,))
    with pytest.raises(NotNormalError, match="closed"):
        check_normal_subgroup(group, (0, 1))


def test_alternating_subgroup_of_s3_is_normal():
    s3 = symmetric_group_3()
    rotations = tuple(
        sorted(
            e
            for e in range(6)
            if s3.multiply(e, s3.multiply(e, e)) == s3.identity
        )
    )
    assert len(rotations) == 3
    cosets = coset_decomposition(s3, rotations)
    assert len(cosets) == 2


def test_instance_shape():
    inst = z6_instance()
    assert inst.index == 3
    assert inst.bits_per_value == 2
    assert inst.arity == 12
    assert inst.modulus == 4096
    with pytest.raises(ValueError):
        HSFInstance.create(FiniteGroup.cyclic(4), (0, 1, 2, 3))


def test_decode_and_encode():
    inst = z4_instance()
    assert decode_input(inst, (0, 1, 0, 1)) == (1, 2, 1, 2)
    assert encode_values(inst, (1, 2, 1, 2)) == (0, 1, 0, 1)
    with pytest.raises(LengthMismatchError):
        decode_input(inst, (0, 1))
    z6 = z6_instance()
    # block value 3 encodes 4 > (G:K) = 3
    with pytest.raises(PromiseViolation):
        decode_input(z6, (1, 1) + (0,) * 10)
    for value_map in product(range(1, 4), repeat=6):
        sigma = encode_values(z6, value_map)
        assert decode_input(z6, sigma) == value_map


def test_hsf_eval_examples():
    inst = z4_instance()
    assert hsf_eval(inst, encode_values(inst, (1, 2, 1, 2))) == 1
    assert hsf_eval(inst, encode_values(inst, (2, 1, 2, 1))) == 1
    assert hsf_eval(inst, encode_values(inst, (1, 1, 1, 1))) == 0
    z6 = z6_instance()
    assert hsf_eval(z6, encode_values(z6, (2, 2, 2, 2, 2, 2))) == 0
    assert hsf_eval(z6, encode_values(z6, (1, 2, 3, 1, 2, 3))) == 1
    # invalid decode counts as 0
    assert hsf_eval(z6, (1, 1) + (0,) * 10) == 0


def test_characteristic_hand_values_z4():
    chi = hsf_characteristic(z4_instance())
    g1, g2 = chi.polynomials
    assert chi.modulus == 16
    assert g1.coefficients == (0, 15, 12, 1, 4)
    assert g2.coefficients == (15, 1, 1, 0, 0)
    sigma = (0, 1, 0, 1)
    assert g1.evaluate(sigma) == 0 and g2.evaluate(sigma) == 0
    broken = encode_values(z4_instance(), (1, 2, 2, 2))
    assert g1.evaluate(broken) != 0


def test_characteristic_polynomials_are_linear():
    for inst in (z4_instance(), z6_instance()):
        chi = hsf_characteristic(inst)
        for poly in chi.polynomials:
            assert isinstance(poly, LinearPolynomial)
            assert poly.arity == inst.arity
            assert len(poly.coefficients) == inst.arity + 1


def test_g2_vanishes_when_representatives_permute():
    inst = z6_instance()
    chi = hsf_characteristic(inst)
    g2 = chi.polynomials[1]
    # representatives are elements 0, 1, 2; fill coset partners arbitrarily
    for rep_values in permutations((1, 2, 3)):
        values = [0] * 6
        for coset, value in zip(inst.cosets, rep_values):
            for element in coset:
                values[element] = value
        assert g2.evaluate(encode_values(inst, values)) == 0


def _coset_constant(inst: HSFInstance, sigma) -> bool:
    """Independent check: decode by hand, compare within each coset."""
    w = inst.bits_per_value
    blocks = []
    for e in range(inst.group.order):
        value = 0
        for u in range(w):
            value = (value << 1) | sigma[e * w + u]
        blocks.append(value)
    return all(
        all(blocks[e] == blocks[coset[0]] for e in coset) for coset in inst.cosets
    )


def test_g1_zero_iff_cosets_constant():
    for inst in (z4_instance(), z6_instance()):
        g1 = hsf_characteristic(inst).polynomials[0]
        n = inst.arity
        for v in range(1 << n):
            sigma = tuple((v >> (n - 1 - j)) & 1 for j in range(n))
            assert (g1.evaluate(sigma) == 0) == _coset_constant(inst, sigma), sigma


def test_constant_map_slips_past_the_polynomials_without_the_promise():
    # All-2s on Z_6/{0,3}: cosets are constant (g1 = 0) and the representative
    # sum 2+2+2 happens to hit 1+2+3 (g2 = 0), yet only one distinct value
    # occurs.  The promise filter, not the compiled program, rejects it.
    inst = z6_instance()
    sigma = encode_values(inst, (2, 2, 2, 2, 2, 2))
    assert hsf_eval(inst, sigma) == 0
    assert hsf_characteristic(inst).evaluate(sigma) == (0, 0)
    assert not satisfies_promise(inst, sigma)


def test_characteristic_matches_oracle_under_promise():
    for inst in (z4_instance(), z6_instance()):
        chi = hsf_characteristic(inst)
        n = inst.arity
        for v in range(1 << n):
            sigma = tuple((v >> (n - 1 - j)) & 1 for j in range(n))
            if not satisfies_promise(inst, sigma):
                continue
            vanishes = all(value == 0 for value in chi.evaluate(sigma))
            assert vanishes == (hsf_eval(inst, sigma) == 1), sigma


def test_compile_hsf_shape_and_acceptance():
    inst = z4_instance()
    compilation = compile_hsf(inst, 0.25, seed=0)
    program = compilation.program
    t = compilation.good_set.size
    assert t == required_size(0.25, 16)
    assert program.dimension == 4 * t
    assert metrics(program).qubits == t.bit_length() - 1 + 2
    assert is_read_once(program)
    valid = encode_values(inst, (1, 2, 1, 2))
    assert accept_probability(program, valid) == pytest.approx(1.0, abs=1e-9)


def s3_a3_instance() -> HSFInstance:
    s3 = symmetric_group_3()
    rotations = [e for e in range(6) if s3.multiply(e, s3.multiply(e, e)) == s3.identity]
    return HSFInstance.create(s3, rotations)


LABELLED_INSTANCES = {
    "Z_4/<2>": z4_instance,
    "Z_6/<3>": z6_instance,  # 2-bit blocks encoding 4 > (G:K) = 3 are invalid
    "Z_8/<4>": lambda: HSFInstance.create(FiniteGroup.cyclic(8), cyclic_subgroup(8, 4)),
    "S_3/A_3": s3_a3_instance,
}


@lru_cache(maxsize=None)
def scalar_labels(name: str) -> tuple[HSFInstance, np.ndarray, np.ndarray, np.ndarray]:
    """Every input of the instance with its scalar hsf_eval and satisfies_promise."""
    instance = LABELLED_INSTANCES[name]()
    bits = all_inputs(instance.arity)
    rows = bits.tolist()
    oracle = np.array([hsf_eval(instance, row) for row in rows], dtype=bool)
    promise = np.array([satisfies_promise(instance, row) for row in rows], dtype=bool)
    return instance, bits, oracle, promise


@given(
    st.sampled_from(sorted(LABELLED_INSTANCES)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=24, deadline=None)
def test_batch_labels_equal_the_scalar_labels_on_every_input(name, seed, parts):
    instance, bits, oracle, promise = scalar_labels(name)
    order = np.random.default_rng(seed).permutation(bits.shape[0])
    chunk = -(-bits.shape[0] // parts)
    for start in range(0, bits.shape[0], chunk):
        rows = order[start : start + chunk]
        np.testing.assert_array_equal(hsf_eval_batch(instance, bits[rows]), oracle[rows])
        np.testing.assert_array_equal(
            satisfies_promise_batch(instance, bits[rows]), promise[rows]
        )


def test_batch_labels_count_the_known_instances():
    _, _, oracle, promise = scalar_labels("Z_6/<3>")
    assert (int(oracle.sum()), int((oracle & promise).sum()), int((~promise).sum())) == (
        6,
        6,
        3556,
    )
    instance = z4_instance()
    with pytest.raises(LengthMismatchError):
        hsf_eval_batch(instance, np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(LengthMismatchError):
        satisfies_promise_batch(instance, np.zeros((2, 5), dtype=np.uint8))
    empty = np.zeros((0, instance.arity), dtype=np.uint8)
    assert hsf_eval_batch(instance, empty).shape == (0,)
    assert satisfies_promise_batch(instance, empty).shape == (0,)
