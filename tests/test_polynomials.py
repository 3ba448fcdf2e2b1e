"""Characteristic polynomials, degrees, symmetric families, serialization."""

import itertools
import random
from fractions import Fraction

import pytest

from maxcsp.constraints import (MODE_LIT, MODE_NEG, MODE_TF, Constraint,
                                ConstraintLanguage, and_constraint, closure,
                                ex_constraint, literal_variant, nae_constraint,
                                or_constraint, recursive_nae, xor_constraint,
                                SubstitutionPattern, apply_pattern)
from maxcsp.errors import CapExceededError
from maxcsp.io_formats import emit_polynomial, parse_polynomial
from maxcsp.polynomials import (MultilinearPolynomial, add_composed,
                                characteristic_polynomial, degree_of_constraint,
                                degree_of_language)


def poly(*pairs):
    return MultilinearPolynomial({frozenset(m): c for m, c in pairs})


def characteristic_polynomial_by_expansion(f):
    """Reference: expand the indicator product of every satisfying row and
    sum; must agree with the Moebius-transform route exactly."""
    acc = {}
    for row in f.satisfying_rows():
        ones = [i for i in range(1, f.arity + 1) if row >> (f.arity - i) & 1]
        zeros = [i for i in range(1, f.arity + 1) if i not in ones]
        for t in range(len(zeros) + 1):
            for extra in itertools.combinations(zeros, t):
                mono = frozenset(ones) | frozenset(extra)
                acc[mono] = acc.get(mono, 0) + (-1) ** t
    return MultilinearPolynomial(acc)


def symmetric_formula(kind, k):
    """Reference: closed-form expansions of the symmetric families in the
    elementary symmetric polynomials e_i:

        NAE_k = sum_{i<k} (-1)^(i-1) e_i            for odd k
        NAE_k = sum_{i<k} (-1)^(i-1) e_i - 2 e_k    for even k
        XOR_k = sum_i (-2)^(i-1) e_i
        EX_k  = sum_i i (-1)^(i-1) e_i

    (For even k the top coefficient is -2, not -1: expanding
    1 - [all-zeros] - [all-ones] gives (-1)^(k-1) - 1 at e_k, and the k = 2
    case must reproduce XOR.)
    """
    if kind == "NAE":
        coeffs = {i: (-1) ** (i - 1) for i in range(1, k)}
        if k % 2 == 0:
            coeffs[k] = -2
    elif kind == "XOR":
        coeffs = {i: (-2) ** (i - 1) for i in range(1, k + 1)}
    else:
        assert kind == "EX"
        coeffs = {i: i * (-1) ** (i - 1) for i in range(1, k + 1)}
    return MultilinearPolynomial({frozenset(m): c for i, c in coeffs.items()
                                  for m in itertools.combinations(range(1, k + 1), i)})


def value(p, bits):
    """p at a 0/1 assignment, bits[i - 1] the value of x_i."""
    return sum(c for mono, c in p.terms.items() if all(bits[i - 1] for i in mono))


def test_or2_golden():
    assert characteristic_polynomial(or_constraint(2)) == poly(
        ([1], 1), ([2], 1), ([1, 2], -1))


def test_nae3_golden():
    assert characteristic_polynomial(nae_constraint(3)) == poly(
        ([1], 1), ([2], 1), ([3], 1), ([1, 2], -1), ([1, 3], -1), ([2, 3], -1))


def test_ex3_golden():
    assert characteristic_polynomial(ex_constraint(3)) == poly(
        ([1], 1), ([2], 1), ([3], 1),
        ([1, 2], -2), ([1, 3], -2), ([2, 3], -2), ([1, 2, 3], 3))


def test_or3_substituted_golden():
    g = apply_pattern(or_constraint(3), SubstitutionPattern(3, (1, 2, -3)))
    assert characteristic_polynomial(g) == poly(
        ([], 1), ([3], -1), ([1, 3], 1), ([2, 3], 1), ([1, 2, 3], -1))


def test_negated_literal_matches_worked_example():
    # replacing x3 by 1 - x3 in P_OR3 gives the substituted polynomial
    p = characteristic_polynomial(literal_variant(or_constraint(3), {3}))
    assert p == poly(([], 1), ([3], -1), ([1, 3], 1), ([2, 3], 1), ([1, 2, 3], -1))


def test_constant_zero_constraint():
    zero = Constraint("z", 2, (0, 0, 0, 0))
    p = characteristic_polynomial(zero)
    assert p.is_zero() and p.degree == 0


def test_agreement_with_truth_table_exhaustive():
    rng = random.Random(3)
    cases = [or_constraint(2), nae_constraint(3), ex_constraint(3),
             xor_constraint(5), nae_constraint(6), and_constraint(4)]
    cases += [Constraint("r", k, tuple(rng.randint(0, 1) for _ in range(1 << k)))
              for k in (1, 2, 3, 4, 5, 6) for _ in range(6)]
    for c in cases:
        p = characteristic_polynomial(c)
        assert all(type(v) is int for v in p.terms.values())
        for row in range(1 << c.arity):
            bits = [(row >> (c.arity - 1 - i)) & 1 for i in range(c.arity)]
            assert value(p, bits) == c.value(bits)


def test_moebius_equals_expansion():
    rng = random.Random(5)
    cases = [nae_constraint(4), ex_constraint(4), xor_constraint(4),
             or_constraint(3)]
    cases += [Constraint("r", k, tuple(rng.randint(0, 1) for _ in range(1 << k)))
              for k in (1, 2, 3, 4, 5, 6) for _ in range(4)]
    for c in cases:
        assert characteristic_polynomial(c) == characteristic_polynomial_by_expansion(c)


def test_add_composed_on_a_group_sums_its_applications():
    # One call on a group against one call per application, and both
    # against the weighted table values at every assignment of x1..x5.
    rng = random.Random(31)
    cases = [(or_constraint(2), [], []),                          # empty group
             (Constraint("one", 0, (1,)), [(), ()], [3, -1]),      # arity 0
             (nae_constraint(3), [(1, 1, 2), (2, 3, 3), (1, 1, 2)], [0, 5, 0]),
             (ex_constraint(3), [(4, 4, 4), (1, 2, 4)], [Fraction(1, 3), Fraction(-7, 2)])]
    for k in (1, 2, 3, 4):
        c = Constraint("r", k, tuple(rng.randint(0, 1) for _ in range(1 << k)))
        indices = [tuple(rng.randint(1, 5) for _ in range(k)) for _ in range(12)]
        cases.append((c, indices, [rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)))
                                   for _ in indices]))
    for c, indices, weights in cases:
        group, apart = {}, {}
        add_composed(group, characteristic_polynomial(c), indices, weights)
        for idx, w in zip(indices, weights):
            add_composed(apart, characteristic_polynomial(c), [idx], [w])
        assert group == apart and (group or not indices)
        for row in range(1 << 5):
            bits = [(row >> (4 - i)) & 1 for i in range(5)]
            assert value(MultilinearPolynomial(group), bits) == sum(
                w * c.value([bits[i - 1] for i in idx]) for idx, w in zip(indices, weights))


def test_arity_cap():
    with pytest.raises(CapExceededError):
        characteristic_polynomial(and_constraint(17))


@pytest.mark.parametrize("kind,builder", [
    ("NAE", nae_constraint), ("XOR", xor_constraint), ("EX", ex_constraint)])
def test_symmetric_formula_matches_tables(kind, builder):
    lo = 2 if kind == "NAE" else 1
    for k in range(lo, 7):
        assert symmetric_formula(kind, k) == characteristic_polynomial(builder(k))


def test_symmetric_formula_goldens():
    assert symmetric_formula("XOR", 2) == poly(([1], 1), ([2], 1), ([1, 2], -2))
    assert symmetric_formula("NAE", 3) == poly(
        ([1], 1), ([2], 1), ([3], 1), ([1, 2], -1), ([1, 3], -1), ([2, 3], -1))
    assert symmetric_formula("EX", 1) == poly(([1], 1))


def test_degree_table():
    for k in range(2, 7):
        assert degree_of_constraint(nae_constraint(k)) == (k - 1 if k % 2 else k)
        assert degree_of_constraint(xor_constraint(k)) == k
        assert degree_of_constraint(ex_constraint(k)) == k
        assert degree_of_constraint(and_constraint(k)) == k


def test_recursive_nae_degree():
    f2 = recursive_nae(2)
    assert f2.arity == 9
    assert degree_of_constraint(f2) == 4


@pytest.mark.parametrize("mode", [MODE_TF, MODE_LIT, MODE_NEG])
@pytest.mark.parametrize("key", ["xor", "nae3", "ex3", "or2", "dicut", "eq"])
def test_closure_preserves_degree(key, mode):
    from maxcsp.languages import builtin_language
    lang = builtin_language(key)
    assert degree_of_language(closure(lang, mode)) == degree_of_language(lang)


def test_closure_preserves_degree_larger_arity():
    for c in (nae_constraint(4), xor_constraint(4)):
        lang = ConstraintLanguage("t", (c,))
        for mode in (MODE_TF, MODE_LIT, MODE_NEG):
            assert degree_of_language(closure(lang, mode)) == degree_of_constraint(c)


def test_serialization_round_trip():
    p = poly(([], Fraction(1, 3)), ([2], -2), ([1, 3], 5))
    text = emit_polynomial(p, 3)
    assert text == "poly 3 3\n1/3 -\n-2 2\n5 1 3\n"
    parsed, nvars = parse_polynomial(text)
    assert parsed == p and nvars == 3
