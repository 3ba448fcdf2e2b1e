"""Constructive expressibility: representing low-degree polynomials as
rational combinations of constraints expressible from one constraint with
constants.

Two pieces:

* degree witnesses: for every 1 <= d <= deg(f) a constants-only pattern
  turning f into a d-ary constraint whose characteristic polynomial has
  degree exactly d (nonzero leading coefficient), built by the inductive
  descent: start from a nonzero top-degree monomial with the other
  positions zeroed, then repeatedly either zero out the variable missing
  from a nonzero next-degree monomial or substitute 1 into the last
  position when all next-degree coefficients vanish.  Where the descent
  stops is all that depends on d, so one memoized descent per constraint
  walks from deg(f) down to 1 and yields every witness.

* decompose: peel the target polynomial degree by degree, subtracting
  (alpha_S / beta_d) * P_{f_d} per nonzero top monomial, and emit the final
  constant through a satisfying assignment of f.  The result is a formal
  term-map identity, which is re-checked by full expansion before return.

Tie-breaking is canonical everywhere (monomials scanned degree-descending
then lexicographically; the zero-out branch is tried before substitute-1)
so the output is deterministic and golden-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType

from .constraints import (Constraint, ConstraintLanguage, SubstitutionPattern,
                          apply_pattern, identity_pattern, row_to_bits)
from .errors import MaxCspError, PreconditionError
from .polynomials import (MultilinearPolynomial, add_composed,
                          characteristic_polynomial, degree_of_constraint,
                          monomial_key)


@dataclass(frozen=True)
class DegreeWitness:
    degree: int
    pattern: SubstitutionPattern
    constraint: Constraint
    leading_coefficient: int


@dataclass(frozen=True)
class CombinationTerm:
    pattern: SubstitutionPattern          # constants-only pattern over the base
    constraint: Constraint                # apply_pattern(base, pattern)
    indices: tuple[int, ...]              # variables the term is applied to
    coefficient: Fraction                 # an int once language_denominator scales it


@dataclass(frozen=True)
class LinearCombination:
    base: Constraint
    nvars: int
    terms: tuple[CombinationTerm, ...]

    def expand(self) -> MultilinearPolynomial:
        acc: dict = {}
        for t in self.terms:
            add_composed(acc, characteristic_polynomial(t.constraint), [t.indices],
                         [t.coefficient])
        return MultilinearPolynomial(acc)


@lru_cache(maxsize=None)
def _degree_witnesses(f: Constraint) -> tuple[DegreeWitness, ...]:
    """The degree witnesses of the non-trivial f for d = 1..deg(f), from
    one descent; slots[j] is what f's argument j + 1 reads at each level."""
    deg_f = degree_of_constraint(f)
    # Base level: keep a nonzero top-degree monomial, zero the rest.
    top = sorted((m for m in characteristic_polynomial(f).terms if len(m) == deg_f),
                 key=monomial_key)[0]
    step = {j: new for new, j in enumerate(sorted(top), start=1)}
    slots = tuple(step.get(j, "0") for j in range(1, f.arity + 1))
    witnesses = []
    for level in range(deg_f, 0, -1):
        pattern = SubstitutionPattern(level, slots)
        constraint = apply_pattern(f, pattern)
        cpoly = characteristic_polynomial(constraint)
        lead = cpoly.coefficient(range(1, level + 1))
        if cpoly.degree != level or not lead:
            raise MaxCspError(
                f"witness construction failed for ({f.name}, {level})")
        witnesses.append(DegreeWitness(level, pattern, constraint, lead))
        # Descent: prefer zeroing the variable missing from a nonzero
        # (level-1)-degree monomial; otherwise set the last position to 1.
        lower = sorted((m for m in cpoly.terms if len(m) == level - 1),
                       key=monomial_key)
        if lower:
            missing = (set(range(1, level + 1)) - lower[0]).pop()
            step = {u: "0" if u == missing else u - (u > missing)
                    for u in range(1, level + 1)}
        else:
            step = {level: "1"}
        slots = tuple(step.get(s, s) for s in slots)
    return tuple(reversed(witnesses))


def find_degree_witness(f: Constraint, d: int) -> DegreeWitness:
    """A d-ary constraint expressible by f with constants whose polynomial
    has degree exactly d, for any 1 <= d <= deg(f)."""
    if f.is_trivial():
        raise PreconditionError(f"{f.name} is trivial")
    deg_f = degree_of_constraint(f)
    if not 1 <= d <= deg_f:
        raise PreconditionError(
            f"requested degree {d} outside 1..deg({f.name}) = {deg_f}")
    return _degree_witnesses(f)[d - 1]


def decompose(target: MultilinearPolynomial, f: Constraint) -> LinearCombination:
    """Write the target as sum alpha_i * P_{g_i}(x_{j...}) with every g_i
    expressible by f with constants; a formal identity, verified by full
    expansion before returning."""
    if f.is_trivial():
        raise PreconditionError(f"{f.name} is trivial")
    deg_f = degree_of_constraint(f)
    if target.degree > deg_f:
        raise PreconditionError(
            f"target degree {target.degree} exceeds deg({f.name}) = {deg_f}")
    nvars = target.max_index()

    terms: list[CombinationTerm] = []
    if target == characteristic_polynomial(f):
        # Self-decomposition: one identity term.
        terms.append(CombinationTerm(identity_pattern(f.arity), f,
                                     tuple(range(1, f.arity + 1)), Fraction(1)))
    else:
        # One residual dict, updated in place: a degree-d term reaches only its
        # own top monomial at level d, so no alpha of a level moves another.
        residual = dict(target.terms)
        for d in range(target.degree, 0, -1):
            level = sorted((m for m, c in residual.items() if len(m) == d and c),
                           key=monomial_key)
            if not level:
                continue
            witness = find_degree_witness(f, d)
            poly = characteristic_polynomial(witness.constraint)
            for mono in level:
                alpha = Fraction(residual[mono], witness.leading_coefficient)
                idx = tuple(sorted(mono))
                terms.append(CombinationTerm(witness.pattern, witness.constraint,
                                             idx, alpha))
                add_composed(residual, poly, [idx], [-alpha])
        const = residual.get(frozenset(), 0)
        if const:
            sat = f.satisfying_rows()[0]
            slots = tuple(str(b) for b in row_to_bits(sat, f.arity))
            pattern = SubstitutionPattern(0, slots)
            constraint = apply_pattern(f, pattern)
            terms.append(CombinationTerm(pattern, constraint, (), Fraction(const)))

    combo = LinearCombination(f, nvars, tuple(terms))
    if combo.expand() != target:
        raise MaxCspError(f"decomposition of degree-{target.degree} target "
                          f"over {f.name} failed its identity check")
    return combo


def max_degree_member(language: ConstraintLanguage) -> Constraint:
    """The name-first constraint of maximum degree; must be non-trivial."""
    candidates = language.non_trivial()
    if not candidates:
        raise PreconditionError(f"language {language.name!r} is trivial")
    return max(candidates, key=degree_of_constraint)  # the first of the maxima


@lru_cache(maxsize=None)
def language_denominator(source: ConstraintLanguage, f: Constraint
                         ) -> tuple[int, MappingProxyType]:
    """The common denominator beta and, per source constraint g, the
    combination rescaled to int coefficients representing beta * g.
    Memoized; the mapping is read-only because every caller shares it."""
    combos = {}
    denominators = [1]
    for g in source:
        combo = decompose(characteristic_polynomial(g), f)
        combos[g.name] = combo
        denominators.extend(t.coefficient.denominator for t in combo.terms)
    beta = lcm(*denominators)
    scaled = {}
    for name, combo in combos.items():
        terms = []
        for t in combo.terms:
            c = t.coefficient * beta
            if c.denominator != 1:
                raise MaxCspError("integerized combination has a fraction left")
            terms.append(CombinationTerm(t.pattern, t.constraint, t.indices,
                                         c.numerator))
        scaled[name] = LinearCombination(combo.base, combo.nvars, tuple(terms))
    return beta, MappingProxyType(scaled)
