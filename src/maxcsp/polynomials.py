"""Exact multilinear polynomials.

A polynomial is a map from monomials (frozensets of 1-based variable
indices; the empty set is the constant term) to nonzero coefficients.  The
coefficients are whatever numbers the caller gives: ints for characteristic
polynomials, which the oracle's subset Moebius transform of a 0/1 truth
table (solver.moebius) computes, and for formulas, which are
integer-weighted sums of them; Fractions for a rational target and for its
decompositions.

Sums of composed polynomials are accumulated in one dict by add_composed
and validated once by the constructor, in linear time.

Degree of the zero polynomial is 0 by convention.  Canonical term order is
by degree, then lexicographically on the sorted index tuple.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter
from typing import Mapping, Sequence

from .constraints import Constraint, ConstraintLanguage
from .errors import CapExceededError, FormatError
from .solver import moebius

Monomial = frozenset

# Characteristic polynomials refuse constraints above this arity.
DEGREE_CAP = 16


def monomial_key(mono: Monomial) -> tuple:
    return (len(mono), tuple(sorted(mono)))


class MultilinearPolynomial:
    """Immutable sparse multilinear polynomial; keeps the coefficients it
    is given (ints or Fractions), summing repeated monomials and dropping
    zeros."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        terms = terms or {}
        clean = dict(zip(map(frozenset, terms), terms.values()))
        used = set().union(*clean)
        if (len(clean) < len(terms) or not set(map(type, used)) <= {int}
                or min(used, default=1) < 1):
            clean = {}  # sum repeated monomials, or name the first bad one
            for mono, c in zip(map(frozenset, terms), terms.values()):
                if any(not isinstance(i, int) or i < 1 for i in mono):
                    raise FormatError(f"monomial indices must be positive ints: {mono}")
                clean[mono] = clean.get(mono, 0) + c
        if not all(clean.values()):
            clean = dict(compress(clean.items(), clean.values()))
        self._terms = clean

    @property
    def terms(self) -> dict:
        """Read-only view by convention; do not mutate."""
        return self._terms

    def coefficient(self, mono):
        return self._terms.get(frozenset(mono), 0)

    @property
    def degree(self) -> int:
        return max(map(len, self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def max_index(self) -> int:
        return max((max(m) for m in self._terms if m), default=0)

    def sorted_terms(self) -> list[tuple]:
        return sorted(self._terms.items(), key=lambda kv: monomial_key(kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, MultilinearPolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "Poly(0)"
        parts = []
        for mono, c in self.sorted_terms():
            mono_s = "*".join(f"x{i}" for i in sorted(mono)) or "1"
            parts.append(f"{c}*{mono_s}")
        return "Poly(" + " + ".join(parts) + ")"


def add_composed(acc: dict, poly: MultilinearPolynomial, indices: Sequence[tuple],
                 weights: Sequence) -> None:
    """acc += weights[a] * poly(x_{indices[a][0]}, ...) for each application
    a, in place, collapsing x*x = x: each term is mapped through the index
    columns at once.  An empty group adds nothing."""
    columns = [list(map(itemgetter(j), indices)) for j in range(poly.max_index())]
    get = acc.get
    for mono, c in poly._terms.items():
        keys = map(frozenset, zip(*[columns[j - 1] for j in mono])) if mono else repeat(mono)
        for key, w in zip(keys, weights):
            acc[key] = get(key, 0) + w * c


@lru_cache(maxsize=None)
def characteristic_polynomial(f: Constraint) -> MultilinearPolynomial:
    """The unique multilinear polynomial agreeing with f on {0,1}^k.

    Its integer coefficients are the oracle's subset Moebius transform of
    the truth table.
    """
    if f.arity > DEGREE_CAP:
        raise CapExceededError(
            f"{f.name}: arity {f.arity} exceeds characteristic-polynomial cap {DEGREE_CAP}")
    return MultilinearPolynomial(
        {frozenset(j + 1 for j in positions): c for positions, c in moebius(f.table)})


def degree_of_constraint(f: Constraint) -> int:
    return characteristic_polynomial(f).degree


def degree_of_language(language: ConstraintLanguage) -> int:
    return max(degree_of_constraint(c) for c in language)
