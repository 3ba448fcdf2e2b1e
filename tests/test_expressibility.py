"""Degree witnesses, decompositions, common denominators."""

import itertools
import random
from fractions import Fraction

import pytest

from maxcsp import expressibility
from maxcsp.constraints import (MODE_LIT, MODE_TF, ConstraintLanguage,
                                SubstitutionPattern, apply_pattern, closure,
                                and_constraint, dicut_constraint, ex_constraint,
                                nae_constraint, or_constraint, render_pattern,
                                xor_constraint, T, F)
from maxcsp.errors import PreconditionError
from maxcsp.expressibility import (decompose, find_degree_witness,
                                   language_denominator, max_degree_member)
from maxcsp.languages import CATALOG_LANGUAGE_KEYS, builtin_language
from maxcsp.polynomials import (MultilinearPolynomial, characteristic_polynomial,
                                degree_of_constraint)


def or3_negated():
    return apply_pattern(or_constraint(3),
                         SubstitutionPattern(3, (1, 2, -3)))


def test_witness_nae3_degree2():
    w = find_degree_witness(nae_constraint(3), 2)
    assert render_pattern(w.pattern) == "x1,x2,0"
    assert w.constraint.table == or_constraint(2).table
    assert w.leading_coefficient == -1


def test_witness_nae3_degree1():
    w = find_degree_witness(nae_constraint(3), 1)
    assert w.constraint.arity == 1
    assert characteristic_polynomial(w.constraint).degree == 1
    # NAE3(x,0,0) = x
    assert w.constraint.value([0]) == 0 and w.constraint.value([1]) == 1


def test_witness_xor3_identity():
    w = find_degree_witness(xor_constraint(3), 3)
    assert render_pattern(w.pattern) == "x1,x2,x3"
    assert w.leading_coefficient == 4


def test_witness_out_of_range():
    with pytest.raises(PreconditionError):
        find_degree_witness(nae_constraint(3), 3)  # deg(NAE3) = 2
    with pytest.raises(PreconditionError):
        find_degree_witness(nae_constraint(3), 0)


def test_witness_total_over_catalog():
    # The existence lemma, asserted constructively at every degree.
    catalog = [T, F, or_constraint(2), or_constraint(3), and_constraint(3),
               nae_constraint(3), nae_constraint(4), nae_constraint(5),
               xor_constraint(2), xor_constraint(3), xor_constraint(4),
               ex_constraint(3), ex_constraint(4), dicut_constraint(),
               or3_negated()]
    for f in catalog:
        top = degree_of_constraint(f)
        for d in range(1, top + 1):
            w = find_degree_witness(f, d)
            p = characteristic_polynomial(w.constraint)
            assert p.degree == d
            assert p.coefficient(range(1, d + 1)) == w.leading_coefficient != 0


def test_witnesses_of_one_constraint_come_from_one_descent():
    # Every degree of XOR4 asked for, the lowest first: the descent from
    # degree 4 runs once, and each witness is read off it.
    f = xor_constraint(4)
    expressibility._degree_witnesses.cache_clear()
    witnesses = [find_degree_witness(f, d) for d in (1, 2, 3, 4, 2)]
    assert expressibility._degree_witnesses.cache_info().misses == 1
    assert [w.degree for w in witnesses] == [1, 2, 3, 4, 2]


def test_decompose_paper_target():
    target = characteristic_polynomial(or3_negated())
    combo = decompose(target, ex_constraint(3))
    assert combo.expand() == target
    # every term is a constants-only pattern over EX3: no slot is negated
    assert all(not (isinstance(s, int) and s < 0)
               for t in combo.terms for s in t.pattern.slots)


def test_decompose_self_is_single_identity_term():
    for f in (xor_constraint(2), nae_constraint(3), ex_constraint(3)):
        combo = decompose(characteristic_polynomial(f), f)
        assert len(combo.terms) == 1
        t = combo.terms[0]
        assert t.coefficient == 1
        assert t.indices == tuple(range(1, f.arity + 1))
        assert t.constraint.table == f.table


def test_decompose_constant_uses_satisfying_assignment():
    combo = decompose(MultilinearPolynomial({frozenset(): 1}), or_constraint(2))
    assert len(combo.terms) == 1
    t = combo.terms[0]
    assert t.constraint.arity == 0 and t.constraint.table == (1,)
    assert t.coefficient == 1 and t.indices == ()


def test_decompose_pointwise_consequence():
    # the identity also holds pointwise over {0,1}^l, checked exhaustively
    rng = random.Random(17)
    for f, nvars in [(ex_constraint(3), 4), (xor_constraint(2), 7),
                     (nae_constraint(3), 10)]:
        deg_f = degree_of_constraint(f)
        terms = {}
        for _ in range(12):
            size = rng.randint(0, deg_f)
            mono = frozenset(rng.sample(range(1, nvars + 1), size))
            terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        target = MultilinearPolynomial(terms)
        combo = decompose(target, f)
        assert combo.expand() == target
        for bits in itertools.product((0, 1), repeat=nvars):
            # The combination read through the constraints themselves.
            total = sum(t.coefficient * t.constraint.value([bits[i - 1] for i in t.indices])
                        for t in combo.terms)
            assert total == sum(c for m, c in target.terms.items()
                                if all(bits[i - 1] for i in m))


def test_decompose_term_count_bound():
    rng = random.Random(23)
    f = ex_constraint(3)
    nvars = 6
    from math import comb
    for trial in range(10):
        terms = {frozenset(rng.sample(range(1, nvars + 1), rng.randint(0, 3))):
                 rng.randint(-5, 5) for _ in range(10)}
        target = MultilinearPolynomial(terms)
        combo = decompose(target, f)
        bound = sum(comb(nvars, i) for i in range(target.degree + 1)) + 1
        assert len(combo.terms) <= bound


def test_decompose_degree_excess_rejected():
    with pytest.raises(PreconditionError):
        decompose(characteristic_polynomial(xor_constraint(3)), nae_constraint(3))


def test_language_denominator_or2_over_xor():
    beta, scaled = language_denominator(
        ConstraintLanguage("src", (or_constraint(2),)), xor_constraint(2))
    assert beta == 2
    combo = scaled["OR2"]
    assert all(type(t.coefficient) is int for t in combo.terms)
    # the scaled combination expands to beta * P_OR2
    assert combo.expand() == MultilinearPolynomial(
        {m: 2 * c for m, c in characteristic_polynomial(or_constraint(2)).terms.items()})


def test_language_denominator_identity():
    f = nae_constraint(3)
    beta, _ = language_denominator(ConstraintLanguage("src", (f,)), f)
    assert beta == 1


def test_language_denominator_paper_family():
    beta, _ = language_denominator(
        ConstraintLanguage("src", (or3_negated(),)), ex_constraint(3))
    assert beta == 6


def test_language_denominator_is_memoized_and_read_only():
    source = ConstraintLanguage("src", (or3_negated(),))
    first = language_denominator(source, ex_constraint(3))
    assert language_denominator(source, ex_constraint(3)) is first
    _, combos = first
    with pytest.raises(TypeError):
        combos["OR3"] = None


@pytest.mark.parametrize("key", CATALOG_LANGUAGE_KEYS)
def test_number_types_across_the_catalog(key):
    # Truth tables give int polynomials; only a decomposition divides, into
    # Fractions (never floats), and language_denominator scales back to ints.
    lang = builtin_language(key)
    for member in (*lang, *closure(lang, MODE_TF), *closure(lang, MODE_LIT)):
        assert all(type(c) is int
                   for c in characteristic_polynomial(member).terms.values())
    f = max_degree_member(lang)
    for g in lang:
        combo = decompose(characteristic_polynomial(g), f)
        assert all(type(t.coefficient) in (Fraction, int) for t in combo.terms)
    _, scaled = language_denominator(lang, f)
    assert all(type(t.coefficient) is int
               for combo in scaled.values() for t in combo.terms)
