"""Strict alpha-implementations: verification and bounded search.

An implementation of a target constraint is a collection of unit-weight
applications over primary variables 1..p and auxiliary variables
p+1..p+q such that the maximum number of simultaneously satisfied
applications is exactly alpha when the target holds (for some auxiliary
setting) and at most alpha - 1 otherwise; strict if alpha - 1 is attained
for every unsatisfying primary assignment.

The search trusts nothing: every candidate (the target's own member, each
built-in catalog row, each multiset of applications) goes through the one
exhaustive check over all 2**(p+q) assignments before it is returned.  The
catalog keeps only the XOR gadgets the search alone does not find first, so
emitted gadgets stay as recorded until ROADMAP item 19 re-records them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .constraints import (Constraint, ConstraintLanguage, classify,
                          classify_language, dicut_constraint, ex_constraint,
                          literal_variant, nae_constraint, or_constraint, xor_constraint)
from .errors import CapExceededError, FormatError
from .solver import ORACLE_CAP

DEFAULT_MAX_AUX = 2
DEFAULT_MAX_APPS = 4


@dataclass(frozen=True)
class Implementation:
    target: Constraint
    primary_arity: int
    aux_count: int
    applications: tuple[tuple[Constraint, tuple[int, ...]], ...]
    alpha: int
    strict: bool


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    alpha: int
    strict: bool


def _satisfied_counts(p: int, q: int,
                      applications) -> list[int]:
    """Per primary assignment, the max satisfied count over aux settings."""
    tot = p + q
    per_x_max = [0] * (1 << p)
    for m in range(1 << tot):
        count = 0
        for c, idx in applications:
            r = 0
            for i in idx:
                r = (r << 1) | ((m >> (tot - i)) & 1)
            count += c.table[r]
        x = m >> q
        if count > per_x_max[x]:
            per_x_max[x] = count
    return per_x_max


def verify_implementation(candidate: Implementation) -> VerifyResult:
    """Recompute alpha as the global maximum and check the three
    implementation conditions (plus strictness) exhaustively."""
    p, q = candidate.primary_arity, candidate.aux_count
    if candidate.target.arity != p:
        raise FormatError("primary arity does not match the target's arity")
    tot = p + q
    if tot > ORACLE_CAP:
        raise CapExceededError(f"implementation: {tot} variables exceeds "
                               f"oracle cap {ORACLE_CAP}")
    for c, idx in candidate.applications:
        if len(idx) != c.arity or any(not 1 <= i <= tot for i in idx):
            raise FormatError(f"application {c.name}{idx} out of range 1..{tot}")
    per_x_max = _satisfied_counts(p, q, candidate.applications)
    return VerifyResult(*_implements(candidate.target, per_x_max))


def _implements(target: Constraint, per_x_max: list[int]) -> tuple[bool, int, bool]:
    """(valid, alpha, strict) of the per-primary-assignment maxima: alpha is
    the global maximum, reached exactly where the target holds and missed
    elsewhere; strict when every miss is by exactly one."""
    alpha = max(per_x_max)
    if alpha < 1:
        return False, alpha, False
    strict = True
    for x, best in enumerate(per_x_max):
        if target.table[x]:
            if best != alpha:
                return False, alpha, False
        elif best > alpha - 1:
            return False, alpha, False
        else:
            strict = strict and best == alpha - 1
    return True, alpha, strict


# ---------------------------------------------------------------------------
# Catalog of known implementations, checked like any other candidate.


@lru_cache(maxsize=1)
def catalog() -> tuple:
    """Strict XOR gadgets as (target, aux count, applications) rows, checked
    like any candidate.  A row stays only where the search alone finds another
    first: OR3 at (1, 1, 2) for 3sat, NAE3 at (1, 1, 2), EX3 with no auxiliary,
    and at one auxiliary two EX3 in place of the DICUT pair for ex3's LIT
    closure.  ROADMAP item 19 deletes them and re-records the goldens."""
    xor, or2 = xor_constraint(2), or_constraint(2)
    nae3, ex3, dicut = nae_constraint(3), ex_constraint(3), dicut_constraint()
    return (
        (xor, 0, ((or2, (1, 2)), (literal_variant(or2, {1, 2}), (1, 2)))),
        (xor, 0, ((nae3, (1, 2, 2)),)),
        (xor, 2, ((ex3, (1, 2, 3)), (ex3, (3, 3, 4)))),
        (xor, 0, ((dicut, (1, 2)), (dicut, (2, 1)))),
    )


def _candidates(language: ConstraintLanguage, target: Constraint,
                max_aux: int, max_apps: int):
    """(aux count, applications) candidates in canonical order: the
    target's same-table member under the identity, the catalog rows rebound
    to same-table members of the language, then every multiset of
    applications by aux count and size."""
    direct = language.by_table(target.arity, target.table)
    if direct is not None:
        yield 0, ((direct, tuple(range(1, target.arity + 1))),)
    for row_target, q, apps in catalog():
        if row_target.signature() != target.signature():
            continue
        rebound = tuple((language.by_table(c.arity, c.table), idx)
                        for c, idx in apps)
        if all(c is not None for c, _ in rebound):
            yield q, rebound
    p = target.arity
    members = [c for c in language if c.arity >= 1]
    for q in range(max_aux + 1):
        space = [(c, idx) for c in members
                 for idx in itertools.product(range(1, p + q + 1), repeat=c.arity)]
        for m in range(1, max_apps + 1):
            for combo in itertools.combinations_with_replacement(space, m):
                yield q, combo


@lru_cache(maxsize=None)
def search_implementation(language: ConstraintLanguage, target: Constraint,
                          max_aux: int = DEFAULT_MAX_AUX,
                          max_apps: int = DEFAULT_MAX_APPS) -> Implementation | None:
    """The first candidate within the caps that is a strict implementation
    of target, with target itself as its .target; None when there is none,
    at once when the language is C-closed and the target is not.  Memoized,
    since the answer is a frozen value."""
    if classify_language(language).c_closed and not classify(target).c_closed:
        return None  # a gadget's maxima agree on x and ~x: none can fit
    p = target.arity
    for q, apps in _candidates(language, target, max_aux, max_apps):
        if q <= max_aux and len(apps) <= max_apps:
            valid, alpha, strict = _implements(target, _satisfied_counts(p, q, apps))
            if valid and strict:
                return Implementation(target, p, q, apps, alpha, True)
    return None
