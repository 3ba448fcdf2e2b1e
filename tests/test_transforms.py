"""Lemma-level transforms, chains, kernelization, the VC gadget."""

import dataclasses
import random
from fractions import Fraction

import pytest

from maxcsp import transforms
from maxcsp.cli import main
from maxcsp.constraints import (MODE_LIT, MODE_NEG, MODE_TF, T, F, and_constraint,
                                classify_language, closure, literal_variant,
                                or_constraint, recover_pattern, row_to_bits,
                                xor_constraint)
from maxcsp.errors import CapExceededError, FormatError, PreconditionError
from maxcsp.expressibility import language_denominator, max_degree_member
from maxcsp.formulas import Formula, random_formula
from maxcsp.implementations import search_implementation
from maxcsp.io_formats import emit_instance, parse_instance, resolve_language_spec
from maxcsp.languages import builtin_language, gamma_d_and, gamma_d_sat
from maxcsp.polynomials import MultilinearPolynomial, characteristic_polynomial
from maxcsp.solver import brute_force, check_equivalence, decide
from maxcsp.transforms import (AFFINE, KIND_ADDITIVE, TransformCertificate,
                               apply_poly, chain, chain_stages,
                               compress_to_polynomial, encoded_bits, exp_cycle,
                               formula_from_polynomial, implement_lit,
                               implement_tf, kernelize, neg_to_base,
                               signed_to_unsigned_neg, unsigned_lit,
                               vc_reduce, verify_transform)

from formula_groups import canonical, from_triples, polynomial_terms, triples

XOR = xor_constraint(2)
XORL = builtin_language("xor")
E2LIN = builtin_language("e2lin")


def assert_equivalent(phi1, phi2, cert=None):
    assert check_equivalence(phi1, None, phi2, None, "geq")
    assert check_equivalence(phi1, None, phi2, None, "eq")
    if cert is not None:
        report = verify_transform(phi1, phi2, cert)
        failed = [c.name for c in report.checks if c.passed is False]
        assert not failed, failed


def poly_value(p, bits):
    """p at a 0/1 assignment, bits[i - 1] the value of x_i."""
    return sum(c for mono, c in p.terms.items() if all(bits[i - 1] for i in mono))


def random_cases(language, count, nvars, napps, weight_range, seed, max_weight=None):
    rng = random.Random(seed)
    cap = max_weight if max_weight is not None else nvars ** 3
    for _ in range(count):
        yield random_formula(language, nvars, napps, weight_range,
                             max_weight=cap, seed=rng.randrange(10 ** 9))


# -- signed reductions ------------------------------------------------------

def test_neg_to_base_golden():
    neq = E2LIN.get("~XOR")
    phi = from_triples(2, ((neq, (1, 2), 4),), "Z", 4)
    phi2, cert = neg_to_base(phi, XORL)
    assert triples(phi2) == [(XOR, (1, 2), -4)]
    assert phi2.threshold == 0
    assert cert.value_map == ("affine", 1, -4)
    assert_equivalent(phi, phi2, cert)


def test_neg_to_base_identity_when_clean():
    phi = from_triples(2, ((XOR, (1, 2), 2),), "Z", 1)
    phi2, cert = neg_to_base(phi, XORL)
    assert triples(phi2) == triples(phi) and phi2.threshold == 1


def test_neg_to_base_mixed_shift():
    neq = E2LIN.get("~XOR")
    phi = from_triples(2, ((XOR, (1, 2), 2), (neq, (1, 2), 3)), "Z", 1)
    phi2, cert = neg_to_base(phi, XORL)
    assert cert.value_map == ("affine", 1, -3)
    assert_equivalent(phi, phi2, cert)


def test_signed_to_unsigned_golden():
    phi = from_triples(2, ((XOR, (1, 2), -4),), "Z", 0)
    phi2, cert = signed_to_unsigned_neg(phi, E2LIN)
    assert phi2.weight_range == "N" and phi2.threshold == 4
    assert [c.table for c in phi2.weights] == [(1, 0, 0, 1)]
    assert_equivalent(phi, phi2, cert)


def test_signed_to_unsigned_identity_and_double_flip():
    phi = from_triples(2, ((XOR, (1, 2), 3),), "Z", 1)
    phi2, _ = signed_to_unsigned_neg(phi, E2LIN)
    assert phi2.threshold == 1 and phi2.total_weight == 3

    neq = E2LIN.get("~XOR")
    phi = from_triples(2, ((XOR, (1, 2), -1), (neq, (1, 2), -1)), "Z", 0)
    phi2, cert = signed_to_unsigned_neg(phi, E2LIN)
    assert phi2.threshold == 2
    assert_equivalent(phi, phi2, cert)


# -- apply_poly --------------------------------------------------------------

def test_apply_poly_or2_over_xor():
    src = builtin_language("or2")
    phi = from_triples(2, ((src.get("OR2"), (1, 2), 1),), "Z", 1)
    phi2, cert = apply_poly(phi, src, XORL)
    assert phi2.threshold == 2 and cert.value_map == ("affine", 2, 0)
    assert phi2.nvars == phi.nvars
    assert_equivalent(phi, phi2, cert)


def test_apply_poly_identity_language():
    nae = builtin_language("nae3")
    phi = from_triples(3, ((nae.get("NAE3"), (1, 2, 3), 5),), "Z", 4)
    phi2, cert = apply_poly(phi, nae, nae)
    assert cert.value_map == ("affine", 1, 0)
    assert triples(phi2) == triples(phi)


def test_apply_poly_degree_violation():
    with pytest.raises(PreconditionError):
        apply_poly(Formula(3, {}, "Z", 0), builtin_language("3sat"), XORL)


@pytest.mark.parametrize("src_key,dst_key", [
    ("2sat", "xor"), ("2sat", "nae3"), ("xor", "ex3"), ("and2", "nae3")])
def test_apply_poly_random_equivalence(src_key, dst_key):
    src, dst = builtin_language(src_key), builtin_language(dst_key)
    for phi in random_cases(src, 25, 6, 8, "Z", seed=f"{src_key}/{dst_key}"):
        phi2, cert = apply_poly(phi, src, dst)
        assert_equivalent(phi, phi2, cert)


# -- implement_tf -------------------------------------------------------------

def test_implement_tf_c_closed_golden():
    tf = closure(XORL, MODE_TF)
    notx = tf.by_table(1, (1, 0))  # XOR(x, 1)
    phi = from_triples(1, ((notx, (1,), 2),), "Z", 2)
    phi2, cert = implement_tf(phi, XORL)
    assert phi2.nvars == 3 and phi2.threshold == 7  # alpha*W + t = 5 + 2
    by_key = {(c.name, i): w for c, i, w in triples(phi2)}
    assert by_key[("XOR", (1, 2))] == 2 and by_key[("XOR", (2, 3))] == 5
    assert_equivalent(phi, phi2, cert)


def test_implement_tf_empty_formula():
    phi = Formula(2, {}, "Z", 0)
    phi2, cert = implement_tf(phi, XORL)
    assert_equivalent(phi, phi2, cert)


def test_implement_tf_degenerate_low_threshold():
    phi = from_triples(2, ((XOR, (1, 2), 1),), "Z", -5)
    phi2, cert = implement_tf(phi, XORL)
    assert phi2.size == 0 and phi2.nvars == 1 and phi2.threshold == -1
    assert_equivalent(phi, phi2, cert)


def test_implement_tf_rejects_valid_languages():
    with pytest.raises(PreconditionError):
        implement_tf(Formula(2, {}, "Z", 0), builtin_language("or2"))


@pytest.mark.parametrize("key", ["xor", "nae3", "ex3", "2sat"])
def test_implement_tf_random_equivalence(key):
    base = builtin_language(key)
    tf = closure(base, MODE_TF)
    for phi in random_cases(tf, 25, 5, 7, "Z", seed=key):
        phi2, cert = implement_tf(phi, base)
        assert_equivalent(phi, phi2, cert)


# -- unsigned_lit -------------------------------------------------------------

def test_unsigned_lit_golden():
    phi = from_triples(2, ((XOR, (1, 2), -3),), "Z", -1)
    phi2, cert = unsigned_lit(phi, XORL)
    assert phi2.threshold == 5 and phi2.weight_range == "N"
    assert all(w >= 0 for _, _, w in triples(phi2))
    assert cert.value_map == ("affine", 1, 6)
    assert_equivalent(phi, phi2, cert)


def test_unsigned_lit_identity_when_nonnegative():
    phi = from_triples(2, ((XOR, (1, 2), 3),), "Z", 1)
    phi2, cert = unsigned_lit(phi, XORL)
    assert triples(phi2) == triples(phi)
    assert phi2.weight_range == "N" and cert.value_map == ("affine", 1, 0)


def test_unsigned_lit_shift_counts_tuples():
    or2 = builtin_language("or2").get("OR2")
    phi = from_triples(3, ((or2, (1, 2), -1), (or2, (2, 3), 4)), "Z", 0)
    phi2, cert = unsigned_lit(phi, builtin_language("or2"))
    # W = 1, two tuples, |OR2| = 3
    assert phi2.threshold == 0 + 1 * 2 * 3
    assert_equivalent(phi, phi2, cert)


@pytest.mark.parametrize("key", ["xor", "nae3", "ex3", "2sat"])
def test_unsigned_lit_random_equivalence(key):
    base = builtin_language(key)
    for phi in random_cases(base, 25, 6, 8, "Z", seed=f"ul/{key}"):
        phi2, cert = unsigned_lit(phi, base)
        assert phi2.weight_range == "N"
        assert_equivalent(phi, phi2, cert)


# -- implement_lit ------------------------------------------------------------

def test_implement_lit_golden():
    lit = closure(XORL, MODE_LIT)
    eqv = lit.by_table(2, (1, 0, 0, 1))  # XOR with one negated slot
    phi = from_triples(2, ((eqv, (1, 2), 1),), "N", 1)
    phi2, cert = implement_lit(phi, XORL)
    assert phi2.nvars == 4 and phi2.threshold == 5  # n*alpha*W + t = 2*1*2 + 1
    assert cert.kind == "linear"
    assert_equivalent(phi, phi2, cert)


def test_implement_lit_without_negations_still_links():
    phi = from_triples(2, ((XOR, (1, 2), 2),), "N", 2)
    phi2, cert = implement_lit(phi, XORL)
    assert phi2.nvars == 4
    assert_equivalent(phi, phi2, cert)


def test_implement_lit_empty():
    phi = Formula(2, {}, "N", 0)
    phi2, cert = implement_lit(phi, XORL)
    assert_equivalent(phi, phi2, cert)


def test_implement_lit_rejects_two_monotone_and_signed():
    with pytest.raises(PreconditionError):
        implement_lit(Formula(2, {}, "N", 0), builtin_language("and2t"))
    with pytest.raises(PreconditionError):
        implement_lit(Formula(2, {}, "Z", 0), XORL)


@pytest.mark.parametrize("key,nvars", [("xor", 7), ("nae3", 7), ("ex3", 4)])
def test_implement_lit_random_equivalence(key, nvars):
    base = builtin_language(key)
    lit = closure(base, MODE_LIT)
    for phi in random_cases(lit, 25, nvars, 8, "N", seed=f"il/{key}"):
        phi2, cert = implement_lit(phi, base)
        assert_equivalent(phi, phi2, cert)


# -- chains -------------------------------------------------------------------

def test_chain_rejects_with_named_condition():
    with pytest.raises(PreconditionError, match="1-valid"):
        chain(Formula(2, {}, "Z", 0), XORL, builtin_language("or2"))
    # {T, F} is 2-monotone yet neither 0-valid nor 1-valid: the additive
    # chain accepts it but the linear one must name the failing condition
    tf = builtin_language("tf")
    with pytest.raises(PreconditionError, match="2-monotone"):
        chain(Formula(2, {}, "Z", 0), tf, tf, "N")


@pytest.mark.parametrize("source,target,mode,condition", [
    (builtin_language("2sat"), "eq", "Z", "0-valid"),
    (gamma_d_and(1), "tf", "N", "2-monotone"),
    (builtin_language("3sat"), "xor", "Z", r"deg\(3sat\)"),
])
def test_chain_refuses_what_its_stages_refuse(source, target, mode, condition):
    # The chain states no precondition of its own: apply-poly refuses a
    # source of higher degree, implement-tf and implement-lit a target that
    # is polynomial-time for their weights.
    phi = random_formula(source, 4, 6, "Z", seed=f"chain/{target}")
    with pytest.raises(PreconditionError, match=condition):
        chain(phi, source, builtin_language(target), mode)


def test_chain_accepts_and2_to_nae3():
    src = builtin_language("and2")
    for phi in random_cases(src, 10, 5, 6, "Z", seed=5):
        out, cert = chain(phi, src, builtin_language("nae3"), "N")
        assert out.weight_range == "N"
        assert_equivalent(phi, out, cert)


def test_chain_additive_certificates_compose():
    src = gamma_d_sat(2)
    phi = next(iter(random_cases(src, 1, 6, 8, "Z", seed=77)))
    stages = chain_stages(phi, src, XORL, "Z")
    # re-verify each stage certificate independently
    cur = phi
    for label, out, cert in stages:
        report = verify_transform(cur, out, cert)
        assert report.all_passed, label
        cur = out
    out, cert = chain(phi, src, XORL, "Z")
    assert cert.kind == "additive"
    assert out.nvars - phi.nvars <= cert.var_bound
    assert_equivalent(phi, out, cert)


@pytest.mark.parametrize("src_key,dst_key", [("2sat", "xor"), ("2sat", "nae3")])
def test_chain_linear_random_equivalence(src_key, dst_key):
    src, dst = builtin_language(src_key), builtin_language(dst_key)
    for phi in random_cases(src, 15, 6, 8, "Z", seed=f"{src_key}/{dst_key}/n"):
        out, cert = chain(phi, src, dst, "N")
        assert out.weight_range == "N" and out.nvars <= 20
        assert_equivalent(phi, out, cert)


# -- chain stages against the list-then-merge construction -------------------
#
# Each stage adds its output terms into one dict keyed by (constraint,
# indices). The references below build the list of every output application
# first and merge it afterwards, with member lookups by linear scan.


def _ref_merge(apps):
    merged = {}
    for c, indices, w in apps:
        key = (c, indices)
        if key in merged:
            merged[key][2] += w
        else:
            merged[key] = [c, indices, w]
    return [(c, i, w) for c, i, w in merged.values()]


def _ref_member(language, c):
    return next(m for m in language if m.signature() == c.signature())


def _ref_gadget(impl, primaries, aux_start, weight):
    mapping = list(primaries) + [aux_start + j
                                 for j in range(1, impl.aux_count + 1)]
    return [(c, tuple(mapping[v - 1] for v in idx), weight)
            for c, idx in impl.applications]


def _ref_apply_poly(phi, source, target):
    beta, combos = language_denominator(source, max_degree_member(target))
    tf = closure(target, MODE_TF)
    apps = [(_ref_member(tf, term.constraint),
             tuple(indices[j - 1] for j in term.indices),
             w * int(term.coefficient))
            for c, indices, w in triples(phi)
            for term in combos[c.name].terms]
    return from_triples(phi.nvars, _ref_merge(apps), "Z", beta * phi.threshold)


def _ref_implement_tf(phi, base):
    n = phi.nvars
    xt, xf = n + 1, n + 2
    apps = []
    for c, indices, w in triples(phi):
        f, pattern = recover_pattern(base, c, MODE_TF)
        apps.append((f, tuple(
            xt if s == "1" else xf if s == "0" else indices[s - 1]
            for s in pattern.slots), w))
    big_w = 2 * sum(abs(w) for _, _, w in triples(phi)) + 1
    pins = ([(XOR, (xt, xf))] if classify_language(base).c_closed
            else [(T, (xt,)), (F, (xf,))])
    aux = alpha = 0
    for target, primaries in pins:
        impl = search_implementation(base, target)
        apps += _ref_gadget(impl, primaries, n + 2 + aux, big_w)
        aux += impl.aux_count
        alpha += impl.alpha
    return from_triples(n + 2 + aux, _ref_merge(apps), "Z",
                        alpha * big_w + phi.threshold)


def _ref_unsigned_lit(phi, base):
    lit = closure(base, MODE_LIT)
    base_apps = _ref_merge(triples(phi))
    big_w = max([-w for _, _, w in base_apps if w < 0] + [0])
    if big_w == 0:
        return from_triples(phi.nvars, base_apps, "N", phi.threshold)
    tuples = {}
    for c, indices, _ in base_apps:
        tuples.setdefault(c, set()).add(indices)
    apps = list(base_apps)
    shift = 0
    for c in sorted(tuples, key=lambda c: c.name):
        shift += big_w * len(tuples[c]) * sum(c.table)
        variants = [_ref_member(lit, literal_variant(c, frozenset(
            i + 1 for i in range(c.arity) if mask >> i & 1)))
            for mask in range(1 << c.arity)]
        apps += [(v, idx, big_w)
                 for idx in sorted(tuples[c]) for v in variants]
    return from_triples(phi.nvars, _ref_merge(apps), "N", phi.threshold + shift)


def _ref_implement_lit(phi, base):
    n = phi.nvars
    apps = []
    for c, indices, w in triples(phi):
        f, pattern = recover_pattern(base, c, MODE_LIT)
        apps.append((f, tuple(
            indices[s - 1] if s > 0 else n + indices[-s - 1]
            for s in pattern.slots), w))
    impl = search_implementation(base, XOR)
    q = impl.aux_count
    big_w = sum(abs(w) for _, _, w in triples(phi)) + 1
    for i in range(1, n + 1):
        apps += _ref_gadget(impl, (i, n + i), 2 * n + (i - 1) * q, big_w)
    return from_triples(n * (2 + q), _ref_merge(apps), "N",
                        n * impl.alpha * big_w + phi.threshold)


REFERENCES = {"apply-poly": _ref_apply_poly, "implement-tf": _ref_implement_tf,
              "unsigned-lit": _ref_unsigned_lit,
              "implement-lit": _ref_implement_lit}


def test_chain_stages_match_list_then_merge_reference():
    and2 = gamma_d_and(2).get("AND2")
    or2 = builtin_language("2sat").get("OR2")
    cases = [
        # d-AND kernels over few variables: many overlapping monomials.
        (phi, gamma_d_and(d), builtin_language(key))
        for d, key in ((2, "2sat"), (3, "3sat"), (2, "nae3lit"))
        for phi in random_cases(gamma_d_and(d), 6, 4, 30, "Z",
                                seed=f"ref/{key}", max_weight=5)
    ] + [
        (phi, builtin_language(src), builtin_language(dst))
        for src, dst in (("2sat", "nae3"), ("xor", "ex3"), ("and2", "nae3"))
        for phi in random_cases(builtin_language(src), 6, 4, 20, "Z",
                                seed=f"ref/{src}/{dst}", max_weight=3)
    ] + [
        # Repeated applications whose weights and images cancel.
        (from_triples(3, ((and2, (1, 2), 2), (and2, (1, 2), -2),
                          (and2, (2, 3), -1)), "Z", 0),
         gamma_d_and(2), builtin_language("2sat")),
    ]
    stages_seen = set()
    zero_weights = 0
    for phi, source, target in cases:
        cur = phi.replace(threshold=0)  # no stage takes its degenerate exit
        for label, out, _ in chain_stages(cur, source, target, "N"):
            languages = (source, target) if label == "apply-poly" else (target,)
            assert canonical(out) == canonical(REFERENCES[label](cur, *languages)), label
            stages_seen.add(label)
            zero_weights += sum(w == 0 for _, _, w in triples(out))
            cur = out
    assert stages_seen == set(REFERENCES)
    assert zero_weights > 0

    # unsigned-lit merges repeated input applications before measuring the
    # most negative weight: here -3 + 1 and -1 + 5.
    base = builtin_language("2sat")
    phi = from_triples(3, ((or2, (1, 2), -3), (or2, (2, 3), -1),
                           (or2, (1, 2), 1), (or2, (2, 3), 5),
                           (or2, (3, 1), 2)), "Z", 1)
    out, cert = unsigned_lit(phi, base)
    assert canonical(out) == canonical(_ref_unsigned_lit(phi, base))
    assert cert.value_map == ("affine", 1, 2 * 3 * 3)
    assert_equivalent(phi, out, cert)


def _shares_no_group(phi, out):
    return not any(g is h for g in out.weights.values() for h in phi.weights.values())


def test_chain_stages_share_no_group_with_their_input(monkeypatch):
    # A stage copies a weight dict it leaves unchanged, then adds gadgets,
    # pins or variants into the copy: the input's own dicts stay as they
    # were, through the stage and through the rest of the chain.
    runs = []
    for name in ("apply_poly", "implement_tf", "unsigned_lit", "implement_lit"):
        def traced(phi, *languages, lemma=getattr(transforms, name)):
            before = canonical(phi)
            out, cert = lemma(phi, *languages)
            assert canonical(phi) == before and _shares_no_group(phi, out)
            runs.append((phi, out, before))
            return out, cert
        monkeypatch.setattr(transforms, name, traced)
    cases = []
    for key in ("2sat", "3sat", "nae3lit"):
        for phi in random_cases(builtin_language(key), 3, 6, 40, "N",
                                seed=f"share/{key}", max_weight=5):
            poly = compress_to_polynomial(phi).polynomial
            cases.append((formula_from_polynomial(poly, phi.nvars, 0),
                          gamma_d_and(poly.degree), builtin_language(key)))
    cases += [(phi.replace(threshold=0), builtin_language("2sat"), builtin_language("nae3"))
              for phi in random_cases(builtin_language("2sat"), 3, 5, 12, "Z",
                                      seed="share/nae3", max_weight=3)]
    for phi, source, target in cases:
        runs.clear()
        stages = chain_stages(phi, source, target, "N")
        assert [out for _, out, _ in runs] == [out for _, out, _ in stages]
        for inp, _, before in runs:
            assert canonical(inp) == before


def test_copied_groups_meet_added_ones_on_a_shared_member():
    # Under the identity a weight dict is copied into a member with no group
    # yet; a rewired group landing on that member, and the XOR pins, are
    # added to it, in either order.  XOR(x, 0) and XOR(x, ~y) are rewired
    # onto XOR; XOR(x1, ~x1) lands on implement-lit's pin XOR(1, 4).
    x_0 = closure(XORL, MODE_TF).by_table(1, (0, 1))
    x_not_y = closure(XORL, MODE_LIT).by_table(2, (1, 0, 0, 1))
    for lemma, other, moved, weight_range in (
            (implement_tf, x_0, {(1,): 2, (3,): -1}, "Z"),
            (implement_lit, x_not_y, {(1, 1): 2, (2, 3): 1}, "N")):
        for first, second in ((XOR, other), (other, XOR)):
            groups = {XOR: {(1, 2): 3, (2, 3): 1}, other: moved}
            phi = Formula(3, {first: groups[first], second: groups[second]},
                          weight_range, 1)
            before = canonical(phi)
            out, cert = lemma(phi, XORL)
            label = lemma.__name__.replace("_", "-")
            assert canonical(out) == canonical(REFERENCES[label](phi, XORL)), label
            assert canonical(phi) == before and _shares_no_group(phi, out)
            assert_equivalent(phi, out, cert)

    # unsigned-lit: OR2's variants OR2 and NAND2 land on groups the input
    # has, its mixed variants on fresh ones, which NAND2's variants then
    # reach; a column group with repeats is merged, a dict copied.
    base = builtin_language("2sat")
    or2, nand2 = base.get("OR2"), base.by_table(2, (1, 1, 1, 0))
    for nand2_group in ({(1, 3): 2, (2, 3): -1}, ([(1, 3), (2, 3), (1, 3)], [2, -1, -4])):
        for first, second in ((or2, nand2), (nand2, or2)):
            groups = {or2: {(1, 2): -3, (2, 3): 1}, nand2: nand2_group}
            phi = Formula(3, {first: groups[first], second: groups[second]}, "Z", 1)
            before = canonical(phi)
            out, cert = unsigned_lit(phi, base)
            assert canonical(out) == canonical(_ref_unsigned_lit(phi, base))
            assert canonical(phi) == before and _shares_no_group(phi, out)
            assert_equivalent(phi, out, cert)


@pytest.mark.parametrize("op,spec,out_spec,text", [
    ("implement-lit", "lit:2sat", "2sat",
     "maxcsp 3 5 N 4\nOR2 2 1 2\nOR2 2 1 2\nOR2|x1,~x2 1 2 3\n"
     "OR2|x1,~x2 3 2 3\nOR2|~x1,~x2 1 1 3\n"),
    ("implement-lit", "lit:xor", "xor",
     "maxcsp 3 5 N 2\nXOR 2 1 2\nXOR 1 1 2\nXOR|x1,~x2 1 1 1\n"
     "XOR|x1,~x2 2 1 1\nXOR|x1,~x2 1 2 3\n"),
    ("unsigned-lit", "2sat", "lit:2sat",
     "maxcsp 3 5 Z 1\nOR2 -3 1 2\nOR2 1 1 2\nOR2|~x1,~x2 -1 2 3\n"
     "OR2|~x1,~x2 5 2 3\nOR2 2 3 1\n"),
])
def test_transform_merges_the_repeated_lines_of_a_parsed_instance(
        op, spec, out_spec, text, tmp_path):
    # A parsed file's groups are columns, one entry per line, merged by _add.
    inst, out = tmp_path / "in.maxcsp", tmp_path / "out.maxcsp"
    inst.write_text(text)
    base = spec.rpartition(":")[2]
    assert main(["transform", "--op", op, "--language", base,
                 "--instance", str(inst), "-o", str(out)]) == 0
    phi, _ = parse_instance(text, resolve_language_spec(spec))
    assert sum(len(set(indices)) for _, indices, _ in phi.groups) < phi.size
    got, _ = parse_instance(out.read_text(), resolve_language_spec(out_spec))
    assert canonical(got) == canonical(REFERENCES[op](phi, builtin_language(base)))


def test_lemmas_keep_the_unmerged_weight_of_an_applications_built_input():
    # Repeats that cancel leave ||phi|| = 7 where the merged instance has 1:
    # implement-tf's W = 2 ||phi|| + 1 and implement-lit's ||phi|| + 1 read 7.
    base = builtin_language("2sat")
    or2, nand2 = base.get("OR2"), base.by_table(2, (1, 1, 1, 0))
    phi = from_triples(3, ((or2, (1, 2), 3), (or2, (1, 2), -3),
                           (nand2, (2, 3), 1)), "Z", 1)
    assert phi.total_weight == 7
    out, cert = implement_tf(phi, base)
    assert canonical(out) == canonical(_ref_implement_tf(phi, base))
    assert_equivalent(phi, out, cert)
    merged = Formula(3, {or2: {(1, 2): 0}, nand2: {(2, 3): 1}}, "Z", 1)
    assert merged.total_weight == 1
    assert canonical(implement_tf(merged, base)[0]) != canonical(out)
    # Under N repeats add up: the duplicate is kept, at ||phi|| = 6.
    phi = from_triples(3, ((or2, (1, 2), 3), (or2, (1, 2), 3),
                           (nand2, (2, 3), 0)), "N", 2)
    assert phi.total_weight == 6 and phi.size == 3
    out, cert = implement_lit(phi, base)
    assert canonical(out) == canonical(_ref_implement_lit(phi, base))
    assert_equivalent(phi, out, cert)


def test_kernelize_builds_applications_for_the_kernel_only():
    lang = builtin_language("3sat")
    phi = random_formula(lang, 20, 500, "N", max_weight=1000, seed="kernel-apps")
    phi = phi.replace(threshold=phi.total_weight // 2)
    res = kernelize(phi, lang)
    kernel = res.formula
    text = emit_instance(kernel, res.certificate)
    bits = encoded_bits(kernel)
    # The compression reads the input's groups, the d-AND formula, the four
    # chain stages and the kernel are built from groups, and the report and
    # the emitter read the kernel's: a formula is its groups.
    assert not hasattr(kernel, "applications") and len(kernel.groups) > 1
    assert all(isinstance(g, dict) for g in kernel.weights.values())
    assert kernel.size > 1000 and bits == res.report.encoded_bits
    reference = from_triples(kernel.nvars, triples(kernel), kernel.weight_range,
                             kernel.threshold)
    assert emit_instance(reference, res.certificate) == text
    assert encoded_bits(reference) == bits


# -- exp cycle ----------------------------------------------------------------

def test_exp_cycle_preserves_decisions_with_additive_growth():
    dsat = gamma_d_sat(2)
    for phi in random_cases(dsat, 8, 6, 8, "Z", seed=123):
        stages = exp_cycle(phi, XORL)
        cur = phi
        for label, out, cert in stages:
            assert cert.kind == "additive"
            assert_equivalent(cur, out, cert)
            cur = out
        assert_equivalent(phi, cur)
        growth = [f.nvars - phi.nvars for _, f, _ in stages]
        assert max(growth) <= 6  # constant, not n-dependent


def test_exp_cycle_needs_degree_two():
    with pytest.raises(PreconditionError):
        exp_cycle(Formula(2, {}, "Z", 0), builtin_language("tf"))  # degree 1


# -- kernelize / compress -----------------------------------------------------

def test_kernelize_max_cut_example():
    phi = from_triples(3, ((XOR, (1, 2), 3), (XOR, (2, 1), 2),
                           (XOR, (1, 3), 1)), "N", 5)
    poly = MultilinearPolynomial(polynomial_terms(phi))
    assert poly == MultilinearPolynomial({
        frozenset([1]): 6, frozenset([2]): 5, frozenset([3]): 1,
        frozenset([1, 2]): -10, frozenset([1, 3]): -2})
    res = kernelize(phi, XORL)
    assert res.formula.weight_range == "N"
    assert_equivalent(phi, res.formula, res.certificate)
    assert brute_force(phi).optimum == 6 and decide(phi)


def test_kernelize_duplicate_heavy_instance():
    one = ((XOR, (1, 2), 1),)
    small = from_triples(3, one * 1, "N", 1)
    big = from_triples(3, tuple((XOR, (1, 2), 1) for _ in range(100)), "N", 1)
    rs, rb = kernelize(small, XORL), kernelize(big, XORL)
    assert rs.formula.size == rb.formula.size
    assert rs.report.monomials == rb.report.monomials
    assert_equivalent(big, rb.formula, rb.certificate)


def test_kernelize_polynomial_time_languages():
    # 0-valid, 1-valid, and 2-monotone languages get solved kernels
    for key, range_ in (("eq", "N"), ("or2", "N"), ("and2t", "N"), ("eq", "Z")):
        lang = builtin_language(key)
        for phi in random_cases(lang, 8, 5, 6, range_, seed=f"{key}/{range_}"):
            res = kernelize(phi, lang)
            assert res.formula.size == 0
            assert_equivalent(phi, res.formula, res.certificate)


@pytest.mark.parametrize("key", ["or2", "eq"])
@pytest.mark.parametrize("weights", ["Z", "N"])
def test_kernelize_solved_past_the_oracle_cap(key, weights):
    # Every value lies in [-||phi||, ||phi||]: a threshold outside is
    # answered at n = 30 without a sweep, and one inside needs the oracle.
    lang = builtin_language(key)
    phi = random_formula(lang, 30, 60, weights, max_weight=9, seed=f"cap/{key}")
    w = phi.total_weight
    for t, t2 in ((w + 1, 1), (-w - 1, -1)):
        res = kernelize(phi.replace(threshold=t), lang)
        assert res.certificate.label == "kernelize-solved"
        kernel = res.formula
        assert (kernel.size, kernel.nvars, kernel.threshold) == (0, 1, t2)
    with pytest.raises(CapExceededError, match="30 variables exceeds cap 24"):
        kernelize(phi.replace(threshold=w // 2), lang)


def test_kernelize_constant_instance():
    # XOR(x, x) is identically 0: the summed polynomial vanishes
    phi = from_triples(2, ((XOR, (1, 1), 7),), "N", 0)
    res = kernelize(phi, XORL)
    assert res.formula.size == 0
    assert_equivalent(phi, res.formula, res.certificate)


def test_compress_single_or2():
    or2 = builtin_language("or2").get("OR2")
    phi = from_triples(2, ((or2, (1, 2), 9),), "N", 4)
    res = compress_to_polynomial(phi)
    assert res.polynomial == MultilinearPolynomial({
        frozenset([1]): 9, frozenset([2]): 9, frozenset([1, 2]): -9})
    assert res.threshold == 4


def test_compress_empty():
    res = compress_to_polynomial(Formula(3, {}, "N", 2))
    assert res.polynomial.is_zero() and res.threshold == 2


def test_compress_preserves_values_pointwise():
    from maxcsp.constraints import row_to_bits
    for phi in random_cases(builtin_language("nae3lit"), 10, 5, 12, "N", seed=41):
        res = compress_to_polynomial(phi)
        assert all(type(c) is int for c in res.polynomial.terms.values())
        shift = phi.threshold - res.threshold
        for row in range(1 << phi.nvars):
            bits = row_to_bits(row, phi.nvars)
            assert poly_value(res.polynomial, bits) + shift == phi.value(bits)


def sampled_assignments(nvars, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randint(0, 1) for _ in range(nvars)) for _ in range(count)]


def test_formula_polynomial_matches_values_and_reference():
    or2, and2 = or_constraint(2), and_constraint(2)
    # XOR + 2 AND2 = x1 + x2: the x1*x2 coefficient cancels to zero, and
    # XOR(x2, x2) collapses to the zero polynomial.
    cancel = from_triples(3, ((XOR, (2, 1), 1), (and2, (1, 2), 2),
                              (XOR, (2, 2), 5), (or2, (3, 3), 0),
                              (or2, (3, 1), -4)), "Z", 0)
    poly = MultilinearPolynomial(polynomial_terms(cancel))
    assert frozenset([1, 2]) not in poly.terms
    assert poly == MultilinearPolynomial({frozenset([1]): -3, frozenset([2]): 1,
                                          frozenset([3]): -4, frozenset([1, 3]): 4})
    cases = [cancel]
    for key in ("3sat", "nae3lit", "ex3"):
        cases += random_cases(builtin_language(key), 4, 7, 30, "Z", seed=len(key),
                              max_weight=5)
    for phi in cases:
        poly = MultilinearPolynomial(polynomial_terms(phi))
        assert all(type(c) is int and c for c in poly.terms.values())
        # Reference: every mapped term added into its own dict.
        reference = {}
        for f, indices, w in triples(phi):
            for mono, c in characteristic_polynomial(f).terms.items():
                key = frozenset(indices[j - 1] for j in mono)
                reference[key] = reference.get(key, 0) + w * c
        assert poly == MultilinearPolynomial(reference)
        for bits in sampled_assignments(phi.nvars, 20, phi.size):
            assert poly_value(poly, bits) == phi.value(bits)


def test_formula_polynomial_at_n80_m8000():
    phi = random_formula(builtin_language("nae3lit"), 80, 8000, "Z", seed=80)
    res = compress_to_polynomial(phi)
    assert res.monomials <= 1 + 80 + 80 * 79 // 2
    shift = phi.threshold - res.threshold
    for bits in sampled_assignments(80, 10, 8000):
        assert poly_value(res.polynomial, bits) + shift == phi.value(bits)


def test_affine_pointwise_with_fractional_map():
    def affine_check(phi1, phi2, a, b):
        cert = TransformCertificate(
            "scale", KIND_ADDITIVE, phi1.nvars, phi2.nvars, phi1.size, phi2.size,
            phi1.total_weight, phi2.total_weight, phi1.threshold,
            phi2.threshold, (AFFINE, a, b), 0, 1, 2, 0)
        checks = verify_transform(phi1, phi2, cert).checks
        return {c.name: c.passed for c in checks}["affine-pointwise"]

    # phi1 = 1 + 2 XOR, phi2 = 1 + 3 XOR = (3/2) phi1 - 1/2.
    def one_plus_xor(xor_weight, t):
        return from_triples(2, ((T, (1,), 1), (F, (1,), 1),
                                (XOR, (1, 2), xor_weight)), "N", t)

    phi1, a = one_plus_xor(2, 3), Fraction(3, 2)
    assert affine_check(phi1, one_plus_xor(3, 4), a, Fraction(-1, 2)) is True
    assert affine_check(phi1, one_plus_xor(3, 4), a, Fraction(-1, 3)) is False
    assert affine_check(phi1, one_plus_xor(4, 4), a, Fraction(-1, 2)) is False

    # Same-n pairs are checked at any n, past the oracle cap as well.
    phi = random_formula(gamma_d_sat(2), 18, 30, "Z", max_weight=20,
                         seed="affine/18")
    phi2, cert = unsigned_lit(phi, gamma_d_sat(2))
    assert phi2.nvars == 18 and cert.value_map[2] != 0
    report = {c.name: c.passed for c in verify_transform(phi, phi2, cert).checks}
    assert report["affine-pointwise"] is True
    shift = cert.value_map[2]
    assert affine_check(phi, phi2, 1, shift + 1) is False
    bumped = from_triples(18, triples(phi2) + [(T, (1,), 1)], "N", phi2.threshold)
    assert affine_check(phi, bumped, 1, shift) is False
    assert verify_transform(phi, phi2, cert, oracle_cap=17).checks[-1].passed is True
    wrong = dataclasses.replace(cert, value_map=(AFFINE, 1, shift + 1))
    assert verify_transform(phi, phi2, wrong, oracle_cap=17).checks[-1].passed is False

    # q*s*||phi2|| = 2**64: an int64 comparison would wrap 2**40 * 2**24
    # and 2**64 to 0 and accept both perturbations below.
    small = from_triples(2, ((XOR, (1, 2), 2 ** 24),), "N", 0)
    big = from_triples(2, ((XOR, (1, 2), 2 ** 64),), "N", 0)
    assert affine_check(small, big, 2 ** 40, 0) is True
    assert affine_check(small, big, 2 ** 40, 2 ** 64) is False
    assert affine_check(small, Formula(2, {}, "N", 0), 2 ** 40, 0) is False


PAST_CAP_OPS = {
    "neg-to-base": ("xor", lambda phi, lang: neg_to_base(phi, lang)),
    "unsign-neg": ("xor", lambda phi, lang: signed_to_unsigned_neg(
        phi, closure(lang, MODE_NEG))),
    "apply-poly": ("2sat", lambda phi, lang: apply_poly(phi, lang,
                                                        builtin_language("nae3"))),
    "unsigned-lit": ("3sat", lambda phi, lang: unsigned_lit(phi, lang)),
}


@pytest.mark.parametrize("op", sorted(PAST_CAP_OPS))
def test_affine_pointwise_checked_past_oracle_cap(op):
    key, run = PAST_CAP_OPS[op]
    lang = builtin_language(key)
    source = closure(lang, MODE_NEG) if op in ("neg-to-base", "unsign-neg") else lang
    phi = random_formula(source, 30, 60, "Z", max_weight=20, seed=f"past-cap/{op}")
    phi2, cert = run(phi, lang)
    assert phi2.nvars == 30 and cert.is_affine()
    _, a, b = cert.value_map
    for bits in sampled_assignments(30, 20, op):
        assert phi2.value(bits) == a * phi.value(bits) + b

    def report(phi2, value_map):
        checks = verify_transform(phi, phi2, dataclasses.replace(
            cert, value_map=value_map)).checks
        return {c.name: c.passed for c in checks if c.name in (
            "equivalence-geq", "equivalence-eq", "affine-pointwise")}

    assert report(phi2, cert.value_map) == {
        "equivalence-geq": None, "equivalence-eq": None, "affine-pointwise": True}
    assert report(phi2, (AFFINE, a + 1, b))["affine-pointwise"] is False
    assert report(phi2, (AFFINE, a, b - 1))["affine-pointwise"] is False
    # Bump an application on distinct variables: XOR(x, x) would not notice.
    apps = triples(phi2)
    i = next(i for i, (c, indices, _) in enumerate(apps)
             if len(set(indices)) == c.arity > 1)
    c, indices, w = apps[i]
    apps[i] = c, indices, w + 1
    bumped = from_triples(30, apps, phi2.weight_range, phi2.threshold)
    assert report(bumped, cert.value_map)["affine-pointwise"] is False


def test_kernel_app_count_bound_holds_with_recorded_constant():
    for seed in (1, 2, 3):
        phi = random_formula(builtin_language("nae3"), 8, 60, "N",
                             max_weight=64, seed=seed)
        phi = phi.replace(threshold=brute_force(phi).optimum)
        res = kernelize(phi, builtin_language("nae3"))
        c = res.report.app_bound_constant
        assert res.formula.size <= c * (res.report.monomial_bound + phi.nvars)


# -- vertex cover -------------------------------------------------------------

def test_vc_reduce_triangle():
    phi = vc_reduce(3, [(1, 2), (2, 3), (1, 3)], 2)
    assert phi.size == 6 and phi.threshold == 19
    assert decide(phi)
    assert not decide(vc_reduce(3, [(1, 2), (2, 3), (1, 3)], 1))


def test_vc_reduce_edgeless():
    phi = vc_reduce(4, [], 0)
    assert phi.threshold == 4 and brute_force(phi).optimum == 4


def test_vc_reduce_validation():
    with pytest.raises(FormatError):
        vc_reduce(3, [(1, 1)], 1)
    with pytest.raises(FormatError):
        vc_reduce(3, [(1, 2), (2, 1)], 1)
    with pytest.raises(FormatError):
        vc_reduce(3, [], 4)
