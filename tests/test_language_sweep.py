"""The dichotomy and the kernel on every small language.

Every non-constant function of arity 1-3 is taken as a one-member
language, together with a seeded sample of arity-4 members and of
languages that mix two or three members of arities 1-3.  For each, the
classifier's flags and verdict are checked against the definitions
evaluated row by row.  For each NP-hard one, the degree is checked
against the members' Moebius degrees, and kernelize runs on small random
instances under both weight ranges: the kernel keeps within the monomial
bound, the oracle gives it the instance's decisions, and its certificate
verifies.
"""

import random
from functools import lru_cache

from maxcsp.constraints import (VERDICT_NP_HARD, VERDICT_POLY, Constraint,
                                ConstraintLanguage, classify_language)
from maxcsp.formulas import random_formula
from maxcsp.polynomials import degree_of_language
from maxcsp.transforms import kernelize, verify_transform

from test_acceptance import _moebius_degree, _two_monotone_tables_by_definition

KERNEL_NVARS, KERNEL_NAPPS, KERNEL_SEEDS = 6, 12, (0, 1)


def _non_constant_tables(arity):
    return [table for packed in range(1, (1 << (1 << arity)) - 1)
            for table in [tuple(packed >> r & 1 for r in range(1 << arity))]]


def _random_table(rng, arity):
    while True:
        table = tuple(rng.randrange(2) for _ in range(1 << arity))
        if len(set(table)) == 2:
            return table


def _languages():
    singles = [(table,) for arity in (1, 2, 3) for table in _non_constant_tables(arity)]
    assert len(singles) == 270
    rng = random.Random("language-sweep")
    arity4 = [(_random_table(rng, 4),) for _ in range(24)]
    mixed = [tuple(_random_table(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 3)))
             for _ in range(40)]
    for i, tables in enumerate(singles + arity4 + mixed):
        members = tuple(Constraint(f"C{j}", len(t).bit_length() - 1, t)
                        for j, t in enumerate(tables))
        yield ConstraintLanguage(f"sweep{i}", members)


@lru_cache(maxsize=None)
def _two_monotone(arity):
    return _two_monotone_tables_by_definition(arity)


def _defined_flags(c):
    full = (1 << c.arity) - 1
    rows = range(1 << c.arity)
    by_ones = {}
    for r in rows:
        by_ones.setdefault(r.bit_count(), set()).add(c.table[r])
    return {"trivial": False, "zero_valid": c.table[0] == 1,
            "one_valid": c.table[full] == 1,
            "two_monotone": c.table in _two_monotone(c.arity),
            "c_closed": all(c.table[r] == c.table[full ^ r] for r in rows),
            "symmetric": all(len(v) == 1 for v in by_ones.values())}


def _check_classification(language):
    report = classify_language(language)
    defined = [_defined_flags(c) for c in language]
    for (name, flags), c, expected in zip(report.per_constraint, language, defined):
        assert name == c.name
        assert {flag: getattr(flags, flag) for flag in expected} == expected, c
    for flag in defined[0]:
        assert getattr(report, flag) == all(d[flag] for d in defined), (language, flag)
    poly = any(all(d[flag] for d in defined)
               for flag in ("zero_valid", "one_valid", "two_monotone"))
    assert report.verdict == (VERDICT_POLY if poly else VERDICT_NP_HARD), language
    return poly


def _check_kernels(language):
    """Kernel runs on the language; returns how many the oracle decided."""
    checked = 0
    for weight_range in ("N", "Z"):
        for seed in KERNEL_SEEDS:
            phi = random_formula(language, KERNEL_NVARS, KERNEL_NAPPS, weight_range,
                                 seed=f"{language.name}-{weight_range}-{seed}")
            result = kernelize(phi, language)
            assert result.report.monomials <= result.report.monomial_bound
            # The equivalence checks compare the oracle's decisions for >=
            # and = on the two formulas, up to the oracle cap.
            checks = {c.name: c.passed for c in
                      verify_transform(phi, result.formula, result.certificate).checks}
            assert False not in checks.values(), (language, checks)
            checked += checks["equivalence-geq"] is checks["equivalence-eq"] is True
    return checked


def test_every_small_language_is_classified_and_kernelized():
    hard = runs = checked = 0
    for language in _languages():
        if _check_classification(language):
            continue
        hard += 1
        degrees = [_moebius_degree(c.arity, c.table) for c in language]
        assert degree_of_language(language) == max(degrees) >= 2, language
        runs += 2 * len(KERNEL_SEEDS)
        checked += _check_kernels(language)
    assert hard == 93
    # The oracle is not vacuous: it reaches almost every kernel.
    assert checked >= 0.9 * runs
