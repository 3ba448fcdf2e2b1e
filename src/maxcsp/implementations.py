"""Strict alpha-implementations: verification and bounded search.

An implementation of a target constraint is a collection of unit-weight
applications over primary variables 1..p and auxiliary variables
p+1..p+q such that the maximum number of simultaneously satisfied
applications is exactly alpha when the target holds (for some auxiliary
setting) and at most alpha - 1 otherwise; strict if alpha - 1 is attained
for every unsatisfying primary assignment.

The searcher trusts nothing: every candidate, including the built-in
catalog entries, goes through the exhaustive verifier over all 2**(p+q)
assignments before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .constraints import (Constraint, ConstraintLanguage, dicut_constraint,
                          ex_constraint, nae_constraint, or_constraint,
                          xor_constraint, T, F, literal_variant)
from .errors import FormatError, MaxCspError

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


def checked_implementation(target: Constraint, primary_arity: int,
                           aux_count: int, applications) -> Implementation:
    """Build an Implementation whose alpha/strict fields come from the
    verifier; raises if the candidate is not a valid implementation."""
    apps = tuple((c, tuple(idx)) for c, idx in applications)
    probe = Implementation(target, primary_arity, aux_count, apps, 1, False)
    res = verify_implementation(probe)
    if not res.valid:
        raise MaxCspError(f"not an implementation of {target.name}: {apps}")
    return Implementation(target, primary_arity, aux_count, apps,
                          res.alpha, res.strict)


def identity_implementation(c: Constraint) -> Implementation:
    return checked_implementation(c, c.arity, 0,
                                  ((c, tuple(range(1, c.arity + 1))),))


# ---------------------------------------------------------------------------
# Catalog of known implementations, re-verified on first use.


@lru_cache(maxsize=1)
def catalog() -> tuple[Implementation, ...]:
    """Known strict implementations of XOR, T, F; each is re-verified here
    before it is ever served."""
    xor = xor_constraint(2)
    or2 = or_constraint(2)
    or2nn = literal_variant(or2, {1, 2})      # ~x OR ~y
    nae3 = nae_constraint(3)
    ex3 = ex_constraint(3)
    dicut = dicut_constraint()
    rows = (  # label, target, primary arity, aux count, applications
        ("xor-from-2sat", xor, 2, 0, [(or2, (1, 2)), (or2nn, (1, 2))]),
        ("xor-from-nae3", xor, 2, 0, [(nae3, (1, 2, 2))]),
        ("xor-from-ex3", xor, 2, 2, [(ex3, (1, 2, 3)), (ex3, (3, 3, 4))]),
        ("xor-from-xor", xor, 2, 0, [(xor, (1, 2))]),
        ("xor-from-dicut", xor, 2, 0, [(dicut, (1, 2)), (dicut, (2, 1))]),
        ("t-from-or2", T, 1, 0, [(or2, (1, 1))]),
        ("t-from-ex3", T, 1, 1, [(ex3, (1, 2, 2))]),
        ("t-from-dicut", T, 1, 1, [(dicut, (1, 2))]),
        ("f-from-or2nn", F, 1, 0, [(or2nn, (1, 1))]),
        ("f-from-ex3", F, 1, 1, [(ex3, (1, 1, 2))]),
        ("f-from-dicut", F, 1, 1, [(dicut, (2, 1))]),
    )
    verified = []
    for label, target, p, q, apps in rows:
        impl = checked_implementation(target, p, q, apps)
        if not impl.strict:
            raise MaxCspError(f"catalog entry {label} is not strict")
        verified.append(impl)
    return tuple(verified)


def _remap_to_language(impl: Implementation,
                       language: ConstraintLanguage) -> Implementation | None:
    """Rebind an implementation's constraints to same-table members of the
    language; None if some table is missing."""
    apps = []
    for c, idx in impl.applications:
        member = language.by_table(c.arity, c.table)
        if member is None:
            return None
        apps.append((member, idx))
    return checked_implementation(impl.target, impl.primary_arity,
                                  impl.aux_count, apps)


def search_implementation(language: ConstraintLanguage, target: Constraint,
                          max_aux: int = DEFAULT_MAX_AUX,
                          max_apps: int = DEFAULT_MAX_APPS,
                          use_catalog: bool = True) -> Implementation | None:
    """First verified strict implementation in canonical enumeration order
    (catalog first, then exhaustive search over application multisets);
    None when the caps are too small.  The identity and catalog answers
    are held to the caps too."""
    direct = language.by_table(target.arity, target.table)
    if direct is not None and max_apps >= 1:
        return identity_implementation(direct)
    if use_catalog:
        for entry in catalog():
            if (entry.target.signature() != target.signature()
                    or entry.aux_count > max_aux
                    or len(entry.applications) > max_apps):
                continue
            remapped = _remap_to_language(entry, language)
            if remapped is not None and remapped.strict:
                return remapped
    p = target.arity
    members = [c for c in language if c.arity >= 1]
    for q in range(max_aux + 1):
        tot = p + q
        space = [(c, idx) for c in members
                 for idx in itertools.product(range(1, tot + 1), repeat=c.arity)]
        for m in range(1, max_apps + 1):
            for combo in itertools.combinations_with_replacement(space, m):
                valid, alpha, strict = _implements(
                    target, _satisfied_counts(p, q, combo))
                if valid and strict:
                    return Implementation(target, p, q, tuple(combo), alpha, True)
    return None
