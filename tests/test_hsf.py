"""Groups, cosets, the hidden-subgroup oracle, and its characteristic."""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache, partial
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd import cli
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
from qobdd.programs import accept_probability, metrics
import reference
from reference import all_inputs, is_read_once


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


def cayley_table(elements, product) -> list[list[int]]:
    """The Cayley table of the elements (listed once each) under product."""
    index = {e: i for i, e in enumerate(elements)}
    return [[index[product(a, b)] for b in elements] for a in elements]


def compose(p, q):
    return tuple(p[q[k]] for k in range(len(q)))


def power(p, k):
    result = tuple(range(len(p)))
    for _ in range(k):
        result = compose(result, p)
    return result


def dihedral_4_table() -> list[list[int]]:
    """D_4 as symmetries of a square's vertices 0..3: element i + 4j is r^i s^j
    for the rotation r and a reflection s, so 0 is e, 2 is r^2 and 4 is s."""
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    elements = [compose(power(r, i), power(s, j)) for j in range(2) for i in range(4)]
    return cayley_table(elements, compose)


def quaternion_product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def quaternion_8_table() -> list[list[int]]:
    """Q_8 = {1, i, j, k, -1, -i, -j, -k} as elements 0..7 in that order."""
    units = [tuple(int(u == v) for v in range(4)) for u in range(4)]
    elements = units + [tuple(-x for x in u) for u in units]
    return cayley_table(elements, quaternion_product)


def z2_z4_table() -> list[list[int]]:
    """Z_2 x Z_4: element 4a + b is (a, b)."""
    elements = [(a, b) for a in range(2) for b in range(4)]
    return cayley_table(elements, lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 4))


# Normal subgroups of the tables above, by element index.
NON_CYCLIC_QUOTIENTS = {
    "D_4/Z(D_4)": (dihedral_4_table, (0, 2)),
    "Q_8/{1,-1}": (quaternion_8_table, (0, 4)),
    "Z_2xZ_4/<(0,2)>": (z2_z4_table, (0, 2)),
    "D_4/<r>": (dihedral_4_table, (0, 1, 2, 3)),
    "Q_8/<i>": (quaternion_8_table, (0, 1, 4, 5)),
}


def non_cyclic_instance(name: str) -> HSFInstance:
    table, subgroup = NON_CYCLIC_QUOTIENTS[name]
    return HSFInstance.create(FiniteGroup.from_table(table()), subgroup)


def test_cyclic_group_and_subgroups():
    group = FiniteGroup.cyclic(6)
    assert group.identity == 0
    assert group.cayley[4, 5] == 3
    assert group.cayley[2, 4] == group.identity
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
        if e != s3.identity and s3.cayley[e, e] == s3.identity:
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
            if s3.cayley[e, s3.cayley[e, e]] == s3.identity
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
    # Every input decodes to the per-input reference's values, or raises
    # its error with its message.
    def decoded(decode, bits):
        try:
            return decode(z6, bits)
        except (PromiseViolation, LengthMismatchError) as error:
            return type(error), str(error)

    rows = all_inputs(z6.arity).tolist() + [(0, 1), (0,) * 13]
    assert [decoded(decode_input, row) for row in rows] == [
        decoded(reference.decode_input, row) for row in rows
    ]


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
        bits = all_inputs(inst.arity)
        kept = satisfies_promise_batch(inst, bits)
        for sigma, label in zip(bits[kept].tolist(), hsf_eval_batch(inst, bits[kept])):
            vanishes = all(value == 0 for value in chi.evaluate(sigma))
            assert vanishes == label, sigma


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
    rotations = [e for e in range(6) if s3.cayley[e, s3.cayley[e, e]] == s3.identity]
    return HSFInstance.create(s3, rotations)


LABELLED_INSTANCES = {
    "Z_4/<2>": z4_instance,
    "Z_6/<3>": z6_instance,  # 2-bit blocks encoding 4 > (G:K) = 3 are invalid
    "Z_8/<4>": lambda: HSFInstance.create(FiniteGroup.cyclic(8), cyclic_subgroup(8, 4)),
    "S_3/A_3": s3_a3_instance,
    **{name: partial(non_cyclic_instance, name) for name in NON_CYCLIC_QUOTIENTS},
}


@lru_cache(maxsize=None)
def scalar_labels(name: str) -> tuple[HSFInstance, np.ndarray, np.ndarray, np.ndarray]:
    """Every input of the instance with the per-input reference predicate
    and promise (reference.hsf_eval and reference.satisfies_promise)."""
    instance = LABELLED_INSTANCES[name]()
    bits = all_inputs(instance.arity)
    rows = bits.tolist()
    oracle = np.array([reference.hsf_eval(instance, row) for row in rows], dtype=bool)
    promise = np.array([reference.satisfies_promise(instance, row) for row in rows], dtype=bool)
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


def expected_counts(table, subgroup) -> tuple[int, int, int]:
    """(ones, zeros, filtered) of an exhaustive sweep, from the definitions:
    the ones are the (G:K)! coset-constant bijections onto the values, and an
    input is filtered when a block does not decode or fewer than (G:K)
    distinct values occur."""
    order = len(table)
    index = order // len(subgroup)
    w = (index - 1).bit_length()
    n = order * w
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    blocks = bits.reshape(-1, order, w) @ (1 << np.arange(w - 1, -1, -1))
    distinct = np.array([len(np.unique(row)) for row in blocks])
    kept = (blocks < index).all(axis=1) & (distinct == index)
    ones = math.factorial(index)
    filtered = int((~kept).sum())
    return ones, 2**n - ones - filtered, filtered


@pytest.mark.parametrize("name", sorted(NON_CYCLIC_QUOTIENTS))
def test_non_cyclic_quotients_label_and_certify_through_cayley_files(capsys, tmp_path, name):
    table, subgroup = NON_CYCLIC_QUOTIENTS[name]
    instance, bits, oracle, promise = scalar_labels(name)
    np.testing.assert_array_equal(hsf_eval_batch(instance, bits), oracle)
    np.testing.assert_array_equal(satisfies_promise_batch(instance, bits), promise)
    ones, zeros, filtered = expected_counts(table(), subgroup)
    assert (int(oracle.sum()), int((~promise).sum())) == (ones, filtered)
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"table": table(), "subgroup": list(subgroup)}))
    assert cli.main(["hsf", "--cayley-file", str(path), "--sweep"]) == 0
    report = json.loads(capsys.readouterr().out)
    counts = report["counts"]
    assert (counts["ones"], counts["zeros"], counts["filtered"]) == (ones, zeros, filtered)
    assert report["pass"] is True
    assert report["min_accept_on_ones"] == pytest.approx(1.0, abs=1e-9)
    assert report["max_accept_on_zeros"] < report["bound"]
    assert report["metrics"]["width"] == (512 if instance.index == 4 else 256)


def test_a_reflection_subgroup_of_d4_exits_2_through_a_cayley_file(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"table": dihedral_4_table(), "subgroup": [0, 4]}))
    assert cli.main(["hsf", "--cayley-file", str(path), "--sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "aK != Ka" in captured.err


def reference_cosets(table, elements) -> tuple[tuple[int, ...], ...]:
    """The set-based normality check and coset listing, on a plain table:
    identity, inverses and products within the subset, aK == Ka as sets for
    every a, then the cosets by their minimal element."""
    order = len(table)
    identity = next(e for e in range(order) if list(table[e]) == list(range(order)))
    subgroup = tuple(sorted(set(elements)))
    if identity not in subgroup:
        raise NotNormalError("subgroup does not contain the identity")
    member = set(subgroup)
    for a in subgroup:
        inverse = next(b for b in range(order) if table[a][b] == identity)
        if inverse not in member:
            raise NotNormalError(f"subgroup is not closed under inverse at {a}")
        for b in subgroup:
            if table[a][b] not in member:
                raise NotNormalError(f"subgroup is not closed under product at ({a}, {b})")
    for a in range(order):
        if {table[a][s] for s in subgroup} != {table[s][a] for s in subgroup}:
            raise NotNormalError(f"aK != Ka at a = {a}")
    seen: set[int] = set()
    cosets = []
    for a in range(order):
        if a not in seen:
            coset = tuple(sorted(table[a][s] for s in subgroup))
            cosets.append(coset)
            seen.update(coset)
    return tuple(sorted(cosets, key=lambda c: c[0]))


def relabelled(table, labels) -> list[list[int]]:
    """The same group with element a renamed labels[a]."""
    order = len(table)
    result = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            result[labels[a]][labels[b]] = labels[table[a][b]]
    return result


@pytest.mark.parametrize(
    "table",
    [
        [list(row) for row in symmetric_group_3().cayley.tolist()],
        dihedral_4_table(),
        quaternion_8_table(),
        z2_z4_table(),
        relabelled(dihedral_4_table(), [5, 2, 7, 0, 3, 6, 1, 4]),
    ],
    ids=["S_3", "D_4", "Q_8", "Z_2xZ_4", "D_4-relabelled"],
)
def test_table_checks_agree_with_the_set_based_checks_on_every_subset(table):
    group = FiniteGroup.from_table(table)
    others = [e for e in range(group.order) if e != group.identity]
    verdicts = set()
    for mask in range(2 ** len(others)):
        subset = [group.identity] + [e for u, e in enumerate(others) if mask >> u & 1]
        subset.reverse()
        try:
            expected = reference_cosets(table, subset)
        except NotNormalError as error:
            # The same first a when K is a subgroup but not normal.
            message = re.escape(str(error)) if "aK" in str(error) else "closed"
            with pytest.raises(NotNormalError, match=message):
                coset_decomposition(group, subset)
            verdicts.add(False)
            continue
        assert coset_decomposition(group, subset) == expected
        assert check_normal_subgroup(group, subset) == tuple(sorted(subset))
        if len(expected) > 1:
            assert HSFInstance.create(group, subset).subgroup == tuple(sorted(subset))
        verdicts.add(True)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1.0], [1.0, 0]],
        [[0, 1.5], [1.5, 0]],
        [[False, True], [True, False]],
        [[0, 1], [1]],
        [[0, 2], [2, 0]],
        [[0, -1], [-1, 0]],
    ],
    ids=["float-1.0", "float-1.5", "bool", "ragged", "out-of-range", "negative"],
)
def test_from_table_refuses_tables_that_are_not_integer_latin_squares(table):
    with pytest.raises(ValueError):
        FiniteGroup.from_table(table)


def test_the_cayley_table_is_one_read_only_int64_array():
    for group in (FiniteGroup.cyclic(6), symmetric_group_3()):
        assert group.cayley.dtype == np.int64
        assert group.cayley.shape == (group.order, group.order)
        assert not group.cayley.flags.writeable
    with pytest.raises(ValueError, match="row"):
        FiniteGroup.from_table([[0, 1], [1]])
