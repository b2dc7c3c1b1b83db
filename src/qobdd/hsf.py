"""Hidden Subgroup Function instances and their linear characteristics.

An instance is a finite group G (Cayley table over element indices 0..N-1), a
normal subgroup K, and the derived coset decomposition.  The input string
encodes a map G -> values: one block of w = ceil(log2 (G:K)) bits per group
element, most significant bit first, block value v encoding the value v + 1.
The predicate is 1 when the map is constant on every coset of K and takes
distinct values on distinct cosets.

Two linear polynomials over Z_(2^n) capture the predicate: one telescopes
weighted within-coset differences (zero exactly when every coset is constant,
by a signed-digit argument in base 2^w), the other compares the sum of coset
representatives against 1 + 2 + ... + (G:K).  Their simultaneous zero set
matches the predicate on inputs satisfying the promise that exactly (G:K)
distinct values occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compiler import Compilation, compile_general
from .errors import (
    LengthMismatchError,
    NotNormalError,
    PromiseViolation,
    TooLargeError,
)
from .goodsets import sample
from .polynomials import Characteristic, LinearPolynomial

# The most elements a Cayley table may have: its associativity check takes
# about 0.3 s at 256 elements on a 2-CPU host, and grows with the cube of
# the order.
CAYLEY_ORDER_LIMIT = 256

# The largest cyclic order, checked before the order^2 table is built.  From
# order 1477 up even one bit per element makes m >= 2^1477, so t >= 4096 at
# every eps < 1, and the program's stacks alone (1477 reads of 4t x 4 floats)
# are over compiler.BUDGET_BYTES: the limit refuses no instance that compiles.
CYCLIC_ORDER_LIMIT = 2048


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Group on element indices 0..order-1 via an explicit Cayley table: one
    read-only int64 (order, order) array with cayley[a, b] = ab, which every
    group check reads by lookup."""

    order: int
    cayley: np.ndarray
    identity: int

    def __post_init__(self) -> None:
        self.cayley.flags.writeable = False

    def multiply(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inverse(self, a: int) -> int:
        return int(np.flatnonzero(self.cayley[a] == self.identity)[0])

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]]) -> "FiniteGroup":
        """The group of a Cayley table: a Latin square of integers over
        0..N-1 with a two-sided identity, checked associative with one numpy
        comparison per element.  Raises TooLargeError over
        CAYLEY_ORDER_LIMIT elements and ValueError on a table that is not a
        group's."""
        order = len(table)
        if order < 1:
            raise ValueError("empty Cayley table")
        if order > CAYLEY_ORDER_LIMIT:
            raise TooLargeError(
                f"a Cayley table of {order} elements is over the limit of "
                f"{CAYLEY_ORDER_LIMIT}"
            )
        row_error = "each Cayley row must be a permutation of 0..N-1"
        if any(len(row) != order for row in table):
            raise ValueError(row_error)
        cayley = np.array(table)
        # Not a cast: np.array(..., dtype=int64) would truncate 1.5 to 1.
        if cayley.dtype.kind not in "iu":
            raise ValueError("each Cayley entry must be an integer in 0..N-1")
        full = np.arange(order)
        if (np.sort(cayley, axis=1) != full).any():
            raise ValueError(row_error)
        if (np.sort(cayley, axis=0) != full[:, None]).any():
            raise ValueError("each Cayley column must be a permutation of 0..N-1")
        cayley = cayley.astype(np.int64)
        # e is an identity when its row and its column are both 0..N-1.
        identities = np.flatnonzero(
            (cayley == full).all(axis=1) & (cayley == full[:, None]).all(axis=0)
        )
        if not identities.size:
            raise ValueError("Cayley table has no two-sided identity")
        for a in range(order):
            # (ab)c against a(bc), for every b (rows) and c (columns).
            failures = np.argwhere(cayley[cayley[a]] != cayley[a][cayley])
            if failures.size:
                b, c = failures[0]
                raise ValueError(f"associativity fails at ({a}, {b}, {c})")
        return cls(order=order, cayley=cayley, identity=int(identities[0]))

    @classmethod
    def cyclic(cls, order: int) -> "FiniteGroup":
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if order > CYCLIC_ORDER_LIMIT:
            raise TooLargeError(f"cyclic order {order} is over the limit of {CYCLIC_ORDER_LIMIT}")
        r = np.arange(order, dtype=np.int64)
        table = np.add.outer(r, r)
        table %= order
        return cls(order=order, cayley=table, identity=0)


def cyclic_subgroup(order: int, generator: int) -> tuple[int, ...]:
    """Elements {0, d, 2d, ...} mod order generated by d in the cyclic group:
    the multiples of gcd(d, order)."""
    return tuple(range(0, order, math.gcd(generator, order)))


def check_normal_subgroup(group: FiniteGroup, elements: Sequence[int]) -> tuple[int, ...]:
    """Validate identity, closure and normality by table lookups; return the
    sorted elements.  Closure under products covers inverses: in a finite
    group a nonempty subset closed under products is a subgroup."""
    if any(not (0 <= s < group.order) for s in elements):
        raise NotNormalError("subgroup element out of range")
    member = np.zeros(group.order, dtype=bool)
    member[np.array(elements, dtype=np.int64)] = True
    if not member[group.identity]:
        raise NotNormalError("subgroup does not contain the identity")
    subgroup = np.flatnonzero(member)
    outside = np.argwhere(~member[group.cayley[np.ix_(subgroup, subgroup)]])
    if outside.size:
        a, b = subgroup[outside[0]]
        raise NotNormalError(f"subgroup is not closed under product at ({a}, {b})")
    # aK = Ka exactly when every ak lies in Ka: label each right coset Kx
    # by min(Kx) and compare the labels of ak and a.
    right = group.cayley[subgroup].min(axis=0)
    products = group.cayley.take(subgroup, axis=1)
    escapes = np.flatnonzero((right[products] != right[:, None]).any(axis=1))
    if escapes.size:
        raise NotNormalError(f"aK != Ka at a = {escapes[0]}")
    return tuple(subgroup.tolist())


def coset_decomposition(
    group: FiniteGroup, subgroup: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Cosets of a normal subgroup, ordered by minimal element, ascending within.

    The representative of each coset is its first (minimal) element.
    Each element a is labelled by min(aK); a stable sort on the labels
    lists the cosets in order, each one ascending.
    """
    validated = check_normal_subgroup(group, subgroup)
    labels = group.cayley.take(validated, axis=1).min(axis=1)
    ordered = np.argsort(labels, kind="stable").reshape(-1, len(validated))
    return tuple(map(tuple, ordered.tolist()))


@dataclass(frozen=True)
class HSFInstance:
    """A group, a normal subgroup, and the bit encoding of value maps G -> X."""

    group: FiniteGroup
    subgroup: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]

    @classmethod
    def create(cls, group: FiniteGroup, subgroup: Sequence[int]) -> "HSFInstance":
        cosets = coset_decomposition(group, subgroup)
        if len(cosets) < 2:
            raise ValueError("subgroup index must be >= 2 for a nontrivial instance")
        subgroup = next(coset for coset in cosets if group.identity in coset)
        return cls(group=group, subgroup=subgroup, cosets=cosets)

    @property
    def index(self) -> int:
        """(G:K), the number of cosets."""
        return len(self.cosets)

    @property
    def bits_per_value(self) -> int:
        return (self.index - 1).bit_length()

    @property
    def arity(self) -> int:
        return self.group.order * self.bits_per_value

    @property
    def modulus(self) -> int:
        return 2**self.arity


def decode_input(instance: HSFInstance, bits: Sequence[int]) -> tuple[int, ...]:
    """Per-element values in [1, (G:K)]; PromiseViolation if a block is too large."""
    if len(bits) != instance.arity:
        raise LengthMismatchError(f"expected {instance.arity} bits, got {len(bits)}")
    w = instance.bits_per_value
    values = []
    for element in range(instance.group.order):
        block = 0
        for u in range(w):
            block = (block << 1) | bits[element * w + u]
        value = block + 1
        if value > instance.index:
            raise PromiseViolation(
                f"block for element {element} encodes {value} > {instance.index}"
            )
        values.append(value)
    return tuple(values)


def encode_values(instance: HSFInstance, values: Sequence[int]) -> tuple[int, ...]:
    """Inverse of decode_input for valid value sequences."""
    if len(values) != instance.group.order:
        raise LengthMismatchError(
            f"expected {instance.group.order} values, got {len(values)}"
        )
    w = instance.bits_per_value
    bits = []
    for value in values:
        if not (1 <= value <= instance.index):
            raise PromiseViolation(f"value {value} outside [1, {instance.index}]")
        block = value - 1
        bits.extend((block >> (w - 1 - u)) & 1 for u in range(w))
    return tuple(bits)


def hsf_eval(instance: HSFInstance, bits: Sequence[int]) -> int:
    """1 iff the encoded map is constant on cosets and injective across them."""
    try:
        values = decode_input(instance, bits)
    except PromiseViolation:
        return 0
    coset_values = []
    for coset in instance.cosets:
        first = values[coset[0]]
        if any(values[e] != first for e in coset[1:]):
            return 0
        coset_values.append(first)
    if len(set(coset_values)) != instance.index:
        return 0
    return 1


def _blocks(instance: HSFInstance, bit_matrix: np.ndarray) -> np.ndarray:
    """Each row's block per group element, (rows, order) integers: value - 1."""
    rows, width = bit_matrix.shape
    if width != instance.arity:
        raise LengthMismatchError(f"expected {instance.arity} bits, got {width}")
    w = instance.bits_per_value
    weights = 1 << np.arange(w - 1, -1, -1, dtype=np.int64)
    return bit_matrix.reshape(rows, instance.group.order, w).astype(np.int64) @ weights


def _distinct_counts(values: np.ndarray) -> np.ndarray:
    """The number of distinct entries in each row."""
    ordered = np.sort(values, axis=1)
    return 1 + np.count_nonzero(np.diff(ordered, axis=1), axis=1)


def hsf_eval_batch(instance: HSFInstance, bit_matrix: np.ndarray) -> np.ndarray:
    """hsf_eval on every row: every block decodes, each coset's blocks are
    equal, and the cosets' values are distinct."""
    blocks = _blocks(instance, bit_matrix)
    keep = (blocks < instance.index).all(axis=1)
    for coset in instance.cosets:
        keep &= (blocks[:, coset] == blocks[:, coset[:1]]).all(axis=1)
    representatives = blocks[:, [coset[0] for coset in instance.cosets]]
    return keep & (_distinct_counts(representatives) == instance.index)


def satisfies_promise_batch(instance: HSFInstance, bit_matrix: np.ndarray) -> np.ndarray:
    """satisfies_promise on every row: every block decodes and exactly (G:K)
    distinct values occur."""
    blocks = _blocks(instance, bit_matrix)
    valid = (blocks < instance.index).all(axis=1)
    return valid & (_distinct_counts(blocks) == instance.index)


def hsf_characteristic(instance: HSFInstance) -> Characteristic:
    """The two linear polynomials over Z_(2^n) whose joint zero set is the predicate.

    The first accumulates 2^((|K| a + q) w) * (chi_(a,q) - chi_(a,q-1 mod |K|))
    over cosets a and positions q; the encoding offsets cancel in the
    differences.  The second sums the coset representatives' values minus
    (G:K)((G:K)+1)/2, folding the +1 encoding offsets into the constant term.
    """
    n = instance.arity
    modulus = instance.modulus
    w = instance.bits_per_value
    ksize = len(instance.subgroup)
    r = instance.index

    def add_value_bits(coeffs: list[int], element: int, weight: int) -> None:
        for u in range(w):
            coeffs[element * w + u + 1] += weight * (1 << (w - 1 - u))

    g1_coeffs = [0] * (n + 1)
    for a, coset in enumerate(instance.cosets):
        for q, element in enumerate(coset):
            weight = 1 << ((ksize * a + q) * w)
            previous = coset[(q - 1) % ksize]
            add_value_bits(g1_coeffs, element, weight)
            add_value_bits(g1_coeffs, previous, -weight)
    g1 = LinearPolynomial(
        modulus=modulus, arity=n, coefficients=tuple(c % modulus for c in g1_coeffs)
    )

    g2_coeffs = [0] * (n + 1)
    g2_coeffs[0] = (r - r * (r + 1) // 2) % modulus
    for coset in instance.cosets:
        add_value_bits(g2_coeffs, coset[0], 1)
    g2 = LinearPolynomial(
        modulus=modulus, arity=n, coefficients=tuple(c % modulus for c in g2_coeffs)
    )
    return Characteristic(modulus=modulus, arity=n, polynomials=(g1, g2))


def compile_hsf(instance: HSFInstance, epsilon: float, seed: int) -> Compilation:
    """Sample a parameter set over Z_(2^n) and compile the two-polynomial circuit."""
    characteristic = hsf_characteristic(instance)
    good_set = sample(epsilon, instance.modulus, seed)
    return compile_general(characteristic, good_set)


def satisfies_promise(instance: HSFInstance, bits: Sequence[int]) -> bool:
    """Valid decode with exactly (G:K) distinct values (the standing assumptions)."""
    try:
        values = decode_input(instance, bits)
    except PromiseViolation:
        return False
    return len(set(values)) == instance.index
