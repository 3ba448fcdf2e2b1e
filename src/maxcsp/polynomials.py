"""Exact multilinear polynomials over the rationals.

A polynomial is a map from monomials (frozensets of 1-based variable
indices; the empty set is the constant term) to nonzero Fraction
coefficients.  Characteristic polynomials of truth tables are computed by a
subset Moebius transform; an independent expansion of the per-row indicator
products is kept alongside as a verification oracle, and the two must agree.

Sums of composed polynomials are accumulated as ints in one dict by
add_composed and validated once by the constructor, in linear time.

Degree of the zero polynomial is 0 by convention.  Canonical term order is
by degree, then lexicographically on the sorted index tuple.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .constraints import Constraint, ConstraintLanguage
from .errors import CapExceededError, FormatError

Monomial = frozenset

# Characteristic polynomials refuse constraints above this arity.
DEGREE_CAP = 16


def monomial_key(mono: Monomial) -> tuple:
    return (len(mono), tuple(sorted(mono)))


class MultilinearPolynomial:
    """Immutable sparse multilinear polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = frozenset(mono)
            if any(not isinstance(i, int) or i < 1 for i in mono):
                raise FormatError(f"monomial indices must be positive ints: {mono}")
            c = Fraction(coeff)
            if c:
                clean[mono] = clean.get(mono, Fraction(0)) + c
                if not clean[mono]:
                    del clean[mono]
        self._terms = clean

    @property
    def terms(self) -> dict:
        """Read-only view by convention; do not mutate."""
        return self._terms

    def coefficient(self, mono) -> Fraction:
        return self._terms.get(frozenset(mono), Fraction(0))

    @property
    def degree(self) -> int:
        return max((len(m) for m in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def max_index(self) -> int:
        return max((max(m) for m in self._terms if m), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: monomial_key(kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, MultilinearPolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        acc = dict(self._terms)
        for mono, c in other._terms.items():
            acc[mono] = acc.get(mono, Fraction(0)) + c
        return MultilinearPolynomial(acc)

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return self + other.scale(-1)

    def scale(self, alpha) -> "MultilinearPolynomial":
        a = Fraction(alpha)
        return MultilinearPolynomial({m: a * c for m, c in self._terms.items()})

    def evaluate(self, assignment: Sequence[int] | Mapping[int, int]) -> Fraction:
        if isinstance(assignment, Mapping):
            lookup = assignment.__getitem__
            have = set(assignment)
        else:
            lookup = lambda i: assignment[i - 1]
            have = set(range(1, len(assignment) + 1))
        needed = set().union(*self._terms) if self._terms else set()
        missing = needed - have
        if missing:
            raise ValueError(f"assignment missing variables {sorted(missing)}")
        total = Fraction(0)
        for mono, c in self._terms.items():
            if all(lookup(i) for i in mono):
                total += c
        return total

    def substitute_negation(self, i: int) -> "MultilinearPolynomial":
        """Replace x_i by 1 - x_i and re-expand."""
        acc: dict[Monomial, Fraction] = {}

        def bump(m, c):
            acc[m] = acc.get(m, Fraction(0)) + c

        for mono, c in self._terms.items():
            if i in mono:
                bump(mono - {i}, c)
                bump(mono, -c)
            else:
                bump(mono, c)
        return MultilinearPolynomial(acc)

    def __repr__(self):
        if not self._terms:
            return "Poly(0)"
        parts = []
        for mono, c in self.sorted_terms():
            mono_s = "*".join(f"x{i}" for i in sorted(mono)) or "1"
            parts.append(f"{c}*{mono_s}")
        return "Poly(" + " + ".join(parts) + ")"


def add_composed(acc: dict, poly: MultilinearPolynomial, indices: Sequence[int],
                 scale) -> None:
    """acc += scale * poly(x_{indices[0]}, ..., x_{indices[k-1]}) in place,
    collapsing x*x = x; integral coefficients are added as ints."""
    get = acc.get
    for mono, c in poly._terms.items():
        key = frozenset([indices[j - 1] for j in mono])
        acc[key] = get(key, 0) + scale * (c.numerator if c.denominator == 1 else c)


def from_terms(pairs) -> MultilinearPolynomial:
    acc: dict[Monomial, Fraction] = {}
    for mono, c in pairs:
        mono = frozenset(mono)
        acc[mono] = acc.get(mono, Fraction(0)) + Fraction(c)
    return MultilinearPolynomial(acc)


@lru_cache(maxsize=None)
def characteristic_polynomial(f: Constraint) -> MultilinearPolynomial:
    """The unique multilinear polynomial agreeing with f on {0,1}^k.

    Computed by an in-place subset Moebius transform of the truth table;
    coefficients are always integers.
    """
    if f.arity > DEGREE_CAP:
        raise CapExceededError(
            f"{f.name}: arity {f.arity} exceeds characteristic-polynomial cap {DEGREE_CAP}")
    k = f.arity
    coeffs = list(f.table)
    for b in range(k):
        bit = 1 << b
        for mask in range(1 << k):
            if mask & bit:
                coeffs[mask] -= coeffs[mask ^ bit]
    terms = {}
    for mask, c in enumerate(coeffs):
        if c:
            mono = frozenset(i for i in range(1, k + 1) if mask >> (k - i) & 1)
            terms[mono] = Fraction(c)
    return MultilinearPolynomial(terms)


def characteristic_polynomial_by_expansion(f: Constraint) -> MultilinearPolynomial:
    """Verification route: expand the indicator product of every satisfying
    row and sum.  Must agree with the Moebius-transform route exactly."""
    acc: dict[Monomial, Fraction] = {}
    for row in f.satisfying_rows():
        ones = [i for i in range(1, f.arity + 1) if row >> (f.arity - i) & 1]
        zeros = [i for i in range(1, f.arity + 1) if i not in ones]
        for t in range(len(zeros) + 1):
            for extra in itertools.combinations(zeros, t):
                mono = frozenset(ones) | frozenset(extra)
                acc[mono] = acc.get(mono, Fraction(0)) + (-1) ** t
    return MultilinearPolynomial(acc)


def degree_of_constraint(f: Constraint) -> int:
    return characteristic_polynomial(f).degree


def degree_of_language(language: ConstraintLanguage) -> int:
    return max(degree_of_constraint(c) for c in language)


def leading_coefficient(f: Constraint) -> Fraction:
    """Coefficient of the full monomial x_1...x_k; nonzero iff deg(f) = k."""
    return characteristic_polynomial(f).coefficient(range(1, f.arity + 1))


def _elementary_symmetric(k: int, i: int) -> list[Monomial]:
    return [frozenset(c) for c in itertools.combinations(range(1, k + 1), i)]


def symmetric_formula(kind: str, k: int) -> MultilinearPolynomial:
    """Closed-form expansions of the symmetric families in elementary
    symmetric polynomials e_i:

        NAE_k = sum_{i<k} (-1)^(i-1) e_i            for odd k
        NAE_k = sum_{i<k} (-1)^(i-1) e_i - 2 e_k    for even k
        XOR_k = sum_i (-2)^(i-1) e_i
        EX_k  = sum_i i (-1)^(i-1) e_i

    (For even k the top coefficient is -2, not -1: expanding
    1 - [all-zeros] - [all-ones] gives (-1)^(k-1) - 1 at e_k, and the k = 2
    case must reproduce XOR.)
    """
    if k < 1:
        raise FormatError(f"symmetric family needs k >= 1, got {k}")
    acc: dict[Monomial, Fraction] = {}

    def add_e(i: int, coeff) -> None:
        c = Fraction(coeff)
        if not c:
            return
        for mono in _elementary_symmetric(k, i):
            acc[mono] = acc.get(mono, Fraction(0)) + c

    if kind == "NAE":
        for i in range(1, k):
            add_e(i, (-1) ** (i - 1))
        if k % 2 == 0:
            add_e(k, -2)
    elif kind == "XOR":
        for i in range(1, k + 1):
            add_e(i, (-2) ** (i - 1))
    elif kind == "EX":
        for i in range(1, k + 1):
            add_e(i, i * (-1) ** (i - 1))
    else:
        raise FormatError(f"unknown symmetric family {kind!r}")
    return MultilinearPolynomial(acc)
