"""Linear and multilinear polynomials over Z_m that vanish exactly on f^-1(1).

All scalar arithmetic is plain Python integer arithmetic, so moduli of any
size (2^n, (n+1)^(2n), ...) are exact.  Coefficients are stored as canonical
residues in [0, m).  Variables are 1-indexed: a polynomial of arity n is
evaluated on a bit sequence (sigma_1, ..., sigma_n).

The zero set of a polynomial built here is the set of accepted inputs of the
Boolean function it encodes; the compiler in :mod:`qobdd.compiler` turns that
zero set into the acceptance set of a quantum OBDD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    LengthMismatchError,
    TooLargeError,
    _json_int,
    _json_ints,
    _json_list,
    _load_json,
    _malformed,
)
from .goodsets import _SAMPLE_LIMIT

# The most signed monomials sop_to_polynomial expands, about 20 us each: a
# product with k negated literals gives 2^k, a minterm SOP over 10 variables <= 3^10.
_SOP_EXPANSION_LIMIT = 1 << 16


def _check_bits(bits: Sequence[int], arity: int) -> None:
    if len(bits) != arity:
        raise LengthMismatchError(f"expected {arity} bits, got {len(bits)}")


@dataclass(frozen=True)
class LinearPolynomial:
    """c_0 + c_1 x_1 + ... + c_n x_n over Z_m, coefficients canonical in [0, m)."""

    modulus: int
    arity: int
    coefficients: tuple[int, ...]  # (c_0, c_1, ..., c_n)

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if len(self.coefficients) != self.arity + 1:
            raise ValueError(
                f"need {self.arity + 1} coefficients, got {len(self.coefficients)}"
            )
        object.__setattr__(
            self, "coefficients", tuple(c % self.modulus for c in self.coefficients)
        )

    def evaluate(self, bits: Sequence[int]) -> int:
        """(c_0 + sum over set bits of c_j) mod m."""
        _check_bits(bits, self.arity)
        total = self.coefficients[0]
        for j, bit in enumerate(bits, start=1):
            if bit:
                total += self.coefficients[j]
        return total % self.modulus

    def to_json_dict(self) -> dict:
        return {
            "m": str(self.modulus),
            "n": self.arity,
            "coeffs": [str(c) for c in self.coefficients],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearPolynomial":
        return cls(
            modulus=_json_int(data["m"]),
            arity=_json_int(data["n"]),
            coefficients=_json_ints(data["coeffs"]),
        )


@dataclass(frozen=True)
class MultilinearPolynomial:
    """Sum of coefficient * product-of-variables monomials over Z_m.

    Each monomial is a coefficient and its sorted variable-index tuple; no
    two monomials share a variable set, and the empty tuple is the constant
    term.
    """

    modulus: int
    arity: int
    monomials: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        seen: set[tuple[int, ...]] = set()
        for coeff, variables in self.monomials:
            if tuple(sorted(variables)) != tuple(variables):
                raise ValueError(f"variable set {variables} is not sorted")
            if len(set(variables)) != len(variables):
                raise ValueError(f"variable set {variables} has duplicates")
            if variables in seen:
                raise ValueError(f"duplicate monomial on variables {variables}")
            if any(not (1 <= v <= self.arity) for v in variables):
                raise ValueError(f"variable index out of range in {variables}")
            if not (0 <= coeff < self.modulus):
                raise ValueError(f"coefficient {coeff} not canonical mod {self.modulus}")
            seen.add(variables)

    def evaluate(self, bits: Sequence[int]) -> int:
        _check_bits(bits, self.arity)
        total = 0
        for coeff, variables in self.monomials:
            if all(bits[v - 1] for v in variables):
                total += coeff
        return total % self.modulus

    def is_linear(self) -> bool:
        return all(len(variables) <= 1 for _, variables in self.monomials)

    def to_linear(self) -> LinearPolynomial:
        """Convert a degree-<=1 polynomial to LinearPolynomial form."""
        if not self.is_linear():
            raise ValueError("polynomial has a monomial of degree > 1")
        coeffs = [0] * (self.arity + 1)
        for coeff, variables in self.monomials:
            index = variables[0] if variables else 0
            coeffs[index] = coeff
        return LinearPolynomial(self.modulus, self.arity, tuple(coeffs))


@dataclass(frozen=True)
class Characteristic:
    """A nonempty set of linear polynomials that all vanish exactly on f^-1(1)."""

    modulus: int
    arity: int
    polynomials: tuple[LinearPolynomial, ...]

    def __post_init__(self) -> None:
        if not self.polynomials:
            raise ValueError("characteristic must contain at least one polynomial")
        for poly in self.polynomials:
            if poly.modulus != self.modulus:
                raise ValueError("characteristic polynomials must share the modulus")
            if poly.arity != self.arity:
                raise ValueError("characteristic polynomials must share the arity")

    def __len__(self) -> int:
        return len(self.polynomials)

    def evaluate(self, bits: Sequence[int]) -> tuple[int, ...]:
        return tuple(poly.evaluate(bits) for poly in self.polynomials)

    def to_json_list(self) -> list[dict]:
        return [poly.to_json_dict() for poly in self.polynomials]

    @classmethod
    def from_json_list(cls, data: list[dict]) -> "Characteristic":
        polys = tuple(LinearPolynomial.from_json_dict(entry) for entry in data)
        return cls(modulus=polys[0].modulus, arity=polys[0].arity, polynomials=polys)


@dataclass(frozen=True)
class SOPFormula:
    """Sum-of-products formula; each product is a tuple of signed literals.

    Literal +j is the variable x_j, literal -j its negation.  Products must be
    nonempty, may not repeat a variable, and may not repeat each other (as
    literal sets, so [1, -2] and [-2, 1] are the same product).

    The arity is refused with TooLargeError, before sop_to_polynomial forms
    the modulus 2^n, once good sets over Z_(2^n) need more parameters than
    goodsets.sample draws: t > (2/eps) ln 2^(n+1) > 2 (n + 1) ln 2 at every
    eps < 1, so no formula that could be compiled is refused.
    """

    arity: int
    products: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.arity + 1 >= _SAMPLE_LIMIT / (2 * math.log(2)):
            raise TooLargeError(
                f"an SOP over {self.arity} variables compiles over Z_(2^{self.arity}): its "
                f"good sets need more than 2 (n + 1) ln 2 parameters, over the sampling "
                f"budget of {_SAMPLE_LIMIT}"
            )
        seen: set[frozenset[int]] = set()
        for product in self.products:
            if not product:
                raise ValueError("empty product in SOP formula")
            indices = [abs(lit) for lit in product]
            if any(not (1 <= v <= self.arity) for v in indices):
                raise ValueError(f"literal out of range in {product}")
            if len(set(indices)) != len(indices):
                raise ValueError(f"variable repeated within product {product}")
            literals = frozenset(product)
            if literals in seen:
                raise ValueError(f"product {product} repeats an earlier product")
            seen.add(literals)

    def evaluate(self, bits: Sequence[int]) -> int:
        _check_bits(bits, self.arity)
        for product in self.products:
            if all(
                (bits[lit - 1] == 1) if lit > 0 else (bits[-lit - 1] == 0)
                for lit in product
            ):
                return 1
        return 0


def sop_to_polynomial(sop: SOPFormula) -> MultilinearPolynomial:
    """Characteristic polynomial over Z_(2^n) from an SOP formula for NOT f.

    Each product becomes a product of terms, with negated literals replaced by
    (1 - x_j); the expanded monomials are summed and merged.  The result is 0
    on sigma exactly when every product evaluates to 0, i.e. when f(sigma)=1.
    The guarantee needs the number of simultaneously satisfied products to
    stay below 2^n.  It does: the products sigma satisfies are distinct
    (SOPFormula rejects repeats) nonempty subsets of the n literals true at
    sigma, so at most 2^n - 1 of them hold at once.

    Raises TooLargeError, before expanding anything, when the products
    expand to more than _SOP_EXPANSION_LIMIT signed monomials.
    """
    terms = sum(1 << sum(lit < 0 for lit in product) for product in sop.products)
    if terms > _SOP_EXPANSION_LIMIT:
        raise TooLargeError(
            f"the SOP products expand to {terms} signed monomials, over the "
            f"expansion budget of {_SOP_EXPANSION_LIMIT}"
        )
    modulus = 2**sop.arity
    accumulated: dict[tuple[int, ...], int] = {}
    for product in sop.products:
        positives = tuple(sorted(lit for lit in product if lit > 0))
        negatives = tuple(sorted(-lit for lit in product if lit < 0))
        # Expand prod (1 - x_j) over negated literals into signed subsets.
        for subset_mask in range(1 << len(negatives)):
            subset = tuple(
                negatives[i] for i in range(len(negatives)) if subset_mask >> i & 1
            )
            sign = -1 if len(subset) % 2 else 1
            variables = tuple(sorted(set(positives) | set(subset)))
            accumulated[variables] = (accumulated.get(variables, 0) + sign) % modulus
    monomials = tuple(
        (coeff, variables)
        for variables, coeff in sorted(accumulated.items())
        if coeff != 0
    )
    return MultilinearPolynomial(modulus=modulus, arity=sop.arity, monomials=monomials)


def mod_polynomial(n: int, m: int) -> LinearPolynomial:
    """Zero exactly when the number of ones in the input is 0 mod m."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return LinearPolynomial(modulus=m, arity=n, coefficients=(0,) + (1,) * n)


def eq_polynomial(n: int) -> LinearPolynomial:
    """Zero exactly when two n-bit strings agree; arity 2n, modulus 2^n.

    Variables 1..n are the bits of x, n+1..2n the bits of y; bit i carries
    weight 2^(i-1) with opposite signs for x and y.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    modulus = 2**n
    coeffs = [0] * (2 * n + 1)
    for i in range(1, n + 1):
        coeffs[i] = 2 ** (i - 1) % modulus
        coeffs[n + i] = -(2 ** (i - 1)) % modulus
    return LinearPolynomial(modulus=modulus, arity=2 * n, coefficients=tuple(coeffs))


def palindrome_polynomial(n: int) -> LinearPolynomial:
    """Zero exactly on palindromes of length n; modulus 2^floor(n/2).

    The first half carries weights +2^(i-1), positions i >= ceil(n/2) carry
    -2^(n-i); for odd n the middle coefficient reduces to 0, and for even n
    the overlap at i = n/2 folds both contributions together mod 2^(n/2).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    modulus = 2 ** (n // 2)
    coeffs = [0] * (n + 1)
    for i in range(1, n // 2 + 1):
        coeffs[i] += 2 ** (i - 1)
    for i in range((n + 1) // 2, n + 1):
        coeffs[i] -= 2 ** (n - i)
    return LinearPolynomial(
        modulus=modulus, arity=n, coefficients=tuple(c % modulus for c in coeffs)
    )


def perm_polynomial(n: int) -> LinearPolynomial:
    """Zero exactly on n x n permutation matrices; arity n^2, modulus (n+1)^(2n).

    The input is read row-major: x_(i,j) is variable (i-1)*n + j.  Row i adds
    digit weight (n+1)^(i-1), column j adds (n+1)^(n+j-1), and the constant
    subtracts one unit of every digit, so the polynomial vanishes exactly when
    every row count and every column count equals one.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    base = n + 1
    modulus = base ** (2 * n)
    coeffs = [0] * (n * n + 1)
    coeffs[0] = -sum(base**i for i in range(2 * n)) % modulus
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            coeffs[(i - 1) * n + j] = (base ** (i - 1) + base ** (n + j - 1)) % modulus
    return LinearPolynomial(modulus=modulus, arity=n * n, coefficients=tuple(coeffs))


def load_characteristic(path: str) -> Characteristic:
    """Read a characteristic from JSON: a list of linear polynomial objects."""
    data = _load_json(path)
    with _malformed(f"characteristic file {path}"):
        return Characteristic.from_json_list(data)


def load_sop(path: str) -> SOPFormula:
    """Read an SOP formula from JSON: {"n": arity, "products": [[lit, ...], ...]}."""
    data = _load_json(path)
    with _malformed(f"SOP file {path}"):
        products = tuple(
            tuple(_json_int(lit) for lit in _json_list(p))
            for p in _json_list(data["products"])
        )
        return SOPFormula(arity=_json_int(data["n"]), products=products)
