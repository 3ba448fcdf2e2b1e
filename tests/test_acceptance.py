"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines and timings.
Every expected value here is either a definitional constant, a published
closed form re-verified against truth tables, or a value recomputed by an
independent brute-force check inside the test.
"""

import itertools
import random
import time
from fractions import Fraction

from maxcsp import implementations
from maxcsp.constraints import (Constraint, SubstitutionPattern, apply_pattern,
                                classify, ex_constraint, nae_constraint,
                                or_constraint, recursive_nae, xor_constraint,
                                T, F)
from maxcsp.expressibility import CombinationTerm, LinearCombination, decompose
from maxcsp.formulas import random_formula
from maxcsp.implementations import search_implementation, verify_implementation
from maxcsp.io_formats import resolve_language_spec
from maxcsp.languages import builtin_language, gamma_d_sat
from maxcsp.polynomials import (MultilinearPolynomial, characteristic_polynomial,
                                degree_of_constraint)
from maxcsp.solver import brute_force, decide, decisions
from maxcsp.transforms import (apply_poly, chain, exp_cycle, implement_lit,
                               implement_tf, kernelize, neg_to_base,
                               signed_to_unsigned_neg, unsigned_lit, vc_reduce)


def report(number: int, description: str, budget: float):
    """Context manager printing one PASS/FAIL line with the elapsed time."""

    class _Reporter:
        def __enter__(self):
            self.start = time.time()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.time() - self.start
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number} {status} ({elapsed:.1f}s / "
                  f"budget {budget:.0f}s): {description}")
            if exc_type is None:
                assert elapsed < budget, f"criterion {number} exceeded its budget"

    return _Reporter()


def poly(*pairs):
    return MultilinearPolynomial({frozenset(m): c for m, c in pairs})


def equivalent_decisions(phi1, phi2) -> bool:
    return decisions(phi1) == decisions(phi2)


def test_criterion_1_characteristic_polynomial_goldens():
    with report(1, "characteristic-polynomial goldens", 1.0):
        assert characteristic_polynomial(or_constraint(2)) == poly(
            ([1], 1), ([2], 1), ([1, 2], -1))
        assert characteristic_polynomial(nae_constraint(3)) == poly(
            ([1], 1), ([2], 1), ([3], 1),
            ([1, 2], -1), ([1, 3], -1), ([2, 3], -1))
        assert characteristic_polynomial(ex_constraint(3)) == poly(
            ([1], 1), ([2], 1), ([3], 1),
            ([1, 2], -2), ([1, 3], -2), ([2, 3], -2), ([1, 2, 3], 3))
        substituted = apply_pattern(
            or_constraint(3), SubstitutionPattern(3, (1, 2, -3)))
        assert characteristic_polynomial(substituted) == poly(
            ([], 1), ([3], -1), ([1, 3], 1), ([2, 3], 1), ([1, 2, 3], -1))


def test_criterion_2_degree_table():
    with report(2, "degree table for NAE/XOR/EX families and the recursive "
                   "ternary composition", 10.0):
        for k in range(2, 7):
            assert degree_of_constraint(nae_constraint(k)) == \
                (k - 1 if k % 2 else k)
            assert degree_of_constraint(xor_constraint(k)) == k
            assert degree_of_constraint(ex_constraint(k)) == k
        f2 = recursive_nae(2)
        assert f2.arity == 9 and degree_of_constraint(f2) == 4


def test_criterion_3_decomposition_soundness():
    with report(3, "decomposition identity for the ternary exactly-one base, "
                   "ours and the published coefficient vector", 1.0):
        ex3 = ex_constraint(3)
        target = characteristic_polynomial(apply_pattern(
            or_constraint(3), SubstitutionPattern(3, (1, 2, -3))))
        ours = decompose(target, ex3)
        assert ours.expand() == target

        def term(coeff, slots, indices):
            arity = len(indices)
            pattern = SubstitutionPattern(arity, slots)
            return CombinationTerm(pattern, apply_pattern(ex3, pattern),
                                   indices, Fraction(coeff))

        published = LinearCombination(ex3, 3, (
            term(Fraction(-1, 3), (1, 2, 3), (1, 2, 3)),
            term(Fraction(1, 3), (1, 2, "0"), (1, 2)),
            term(Fraction(-1, 6), (1, 2, "0"), (1, 3)),
            term(Fraction(-1, 6), (1, 2, "0"), (2, 3)),
            term(Fraction(1, 6), (1, "0", "0"), (1,)),
            term(Fraction(1, 6), (1, "0", "0"), (2,)),
            term(Fraction(-1, 3), (1, "0", "0"), (3,)),
            term(Fraction(1), ("1", "0", "0"), ()),
        ))
        assert published.expand() == target


def _moebius_degree(arity, table):
    coeffs = list(table)
    for b in range(arity):
        bit = 1 << b
        for mask in range(1 << arity):
            if mask & bit:
                coeffs[mask] -= coeffs[mask ^ bit]
    return max((mask.bit_count() for mask, c in enumerate(coeffs) if c),
               default=0)


def _two_monotone_tables_by_definition(arity):
    """All 2-monotone truth tables of the given arity, built by evaluating
    the defining DNF shape row by row (independent of the classifier)."""
    tables = set()
    rows = list(itertools.product((0, 1), repeat=arity))
    indices = list(range(arity))
    for psize in range(arity + 1):
        for p in itertools.combinations(indices, psize):
            for qsize in range(arity + 1):
                for q in itertools.combinations(indices, qsize):
                    if not p and not q:
                        continue
                    table = []
                    for bits in rows:
                        pos = bool(p) and all(bits[i] for i in p)
                        neg = bool(q) and all(not bits[i] for i in q)
                        table.append(1 if (pos or neg) else 0)
                    tables.add(tuple(table))
    return tables


def test_criterion_4_dichotomy_classifier_exhaustive():
    with report(4, "classifier agrees with the definition checker on every "
                   "function of arity <= 4", 60.0):
        for arity in range(1, 5):
            rows = list(itertools.product((0, 1), repeat=arity))
            two_monotone = _two_monotone_tables_by_definition(arity)
            full = (1 << arity) - 1
            for packed in range(1 << (1 << arity)):
                table = tuple((packed >> r) & 1 for r in range(1 << arity))
                flags = classify(Constraint("c", arity, table))
                values = set(table)
                assert flags.trivial == (len(values) == 1)
                assert flags.zero_valid == (table[0] == 1)
                assert flags.one_valid == (table[full] == 1)
                assert flags.two_monotone == (table in two_monotone)
                assert flags.c_closed == all(
                    table[r] == table[full ^ r] for r in range(len(table)))
                by_ones = {}
                for r, bits in enumerate(rows):
                    by_ones.setdefault(sum(bits), set()).add(table[r])
                assert flags.symmetric == all(
                    len(v) == 1 for v in by_ones.values())
                # degree 1 forces 2-monotonicity for non-trivial functions
                if not flags.trivial and _moebius_degree(arity, table) == 1:
                    assert flags.two_monotone


ACC5_SINGLE = {
    "neg-to-base": ["xor", "nae3", "ex3"],
    "unsign-neg": ["xor", "nae3", "ex3"],
    "implement-tf": ["xor", "nae3", "ex3", "2sat"],
    "unsigned-lit": ["xor", "nae3", "ex3", "2sat"],
    "implement-lit": [("xor", 7), ("nae3", 7), ("ex3", 4), ("2sat", 7)],
}
ACC5_PAIRS = {
    "apply-poly": [("2sat", "xor"), ("2sat", "nae3"), ("xor", "ex3"),
                   ("and2", "nae3")],
    "chain-z": [("2sat", "xor"), ("2sat", "nae3"), ("xor", "ex3"),
                ("and2", "nae3")],
    "chain-n": [("2sat", "xor"), ("2sat", "nae3"), ("xor", "2sat")],
}
ACC5_COUNT = 200


def _acc5_cases(language, tag, nvars, weight_range="Z", napps=8):
    rng = random.Random(f"acceptance5-{tag}")
    max_weight = nvars ** 3
    for _ in range(ACC5_COUNT):
        yield random_formula(language, nvars, napps, weight_range,
                             max_weight=max_weight,
                             seed=rng.randrange(10 ** 9))


def _acc5_run(op, base_key, nvars):
    base = builtin_language(base_key)
    if op in ("neg-to-base", "unsign-neg"):
        instance_lang = resolve_language_spec(f"neg:{base_key}")
    elif op == "implement-tf":
        instance_lang = resolve_language_spec(f"tf:{base_key}")
    elif op == "implement-lit":
        instance_lang = resolve_language_spec(f"lit:{base_key}")
    else:
        instance_lang = base
    weight_range = "N" if op == "implement-lit" else "Z"
    for phi in _acc5_cases(instance_lang, f"{op}-{base_key}", nvars, weight_range):
        if op == "neg-to-base":
            out, _ = neg_to_base(phi, base)
        elif op == "unsign-neg":
            out, _ = signed_to_unsigned_neg(phi, instance_lang)
        elif op == "implement-tf":
            out, _ = implement_tf(phi, base)
        elif op == "unsigned-lit":
            out, _ = unsigned_lit(phi, base)
        else:
            out, _ = implement_lit(phi, base)
        assert out.nvars <= 20
        assert equivalent_decisions(phi, out)


def _acc5_run_pair(op, src_key, dst_key):
    src = builtin_language(src_key)
    dst = builtin_language(dst_key)
    for phi in _acc5_cases(src, f"{op}-{src_key}-{dst_key}", 6):
        if op == "apply-poly":
            out, _ = apply_poly(phi, src, dst)
        else:
            out, _ = chain(phi, src, dst, "Z" if op == "chain-z" else "N")
        assert out.nvars <= 20
        assert equivalent_decisions(phi, out)


def test_criterion_5_transformation_equivalence():
    desc = ("200 seed-fixed instances per language (pair) for each lemma "
            "transform and both chains, both decision modes")
    with report(5, desc, 600.0):
        for op, keys in ACC5_SINGLE.items():
            for entry in keys:
                key, nvars = entry if isinstance(entry, tuple) else (entry, 7)
                _acc5_run(op, key, nvars)
        for op, pairs in ACC5_PAIRS.items():
            for src_key, dst_key in pairs:
                _acc5_run_pair(op, src_key, dst_key)


def test_criterion_6_kernel_size():
    with report(6, "ternary-NAE-literals kernel: monomial bound, oracle "
                   "equivalence, duplication independence", 60.0):
        lang = builtin_language("nae3lit")
        phi = random_formula(lang, 10, 500, "N", max_weight=1000, seed=2024)
        phi = phi.replace(threshold=brute_force(phi).optimum)
        result = kernelize(phi, lang)
        assert result.report.monomials <= 56  # 1 + 10 + C(10,2)
        assert result.report.monomial_bound == 56
        assert equivalent_decisions(phi, result.formula)

        duplicated = phi.replace(weights={c: (list(indices) * 10, list(weights) * 10)
                                          for c, indices, weights in phi.groups},
                                 threshold=phi.threshold * 10)
        result10 = kernelize(duplicated, lang)
        assert result10.formula.size == result.formula.size
        assert result10.report.monomials == result.report.monomials


def _min_vertex_cover(nv, edges) -> int:
    best = nv
    for mask in range(1 << nv):
        if all((mask >> (u - 1)) & 1 or (mask >> (v - 1)) & 1
               for u, v in edges):
            best = min(best, mask.bit_count())
    return best


def test_criterion_7_vertex_cover_gadget_all_small_graphs():
    with report(7, "gadget decisions match the direct cover checker on all "
                   "graphs with <= 6 vertices, every k", 120.0):
        for nv in range(1, 7):
            pairs = list(itertools.combinations(range(1, nv + 1), 2))
            for picked in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs))
                         if (picked >> i) & 1]
                cover = _min_vertex_cover(nv, edges)
                if nv <= 5:
                    for k in range(nv + 1):
                        phi = vc_reduce(nv, edges, k)
                        assert decide(phi) == (cover <= k)
                else:
                    # one oracle sweep per graph; the per-k formulas differ
                    # only in their threshold, which is asserted
                    base = vc_reduce(nv, edges, 0)
                    optimum = brute_force(base).optimum
                    for k in range(nv + 1):
                        phi = vc_reduce(nv, edges, k)
                        assert phi.weights == base.weights
                        assert (optimum >= phi.threshold) == (cover <= k)


def test_criterion_8_implementation_search(monkeypatch):
    with report(8, "strict XOR implementations for the three hard cores and "
                   "T/F for a non-complement-closed language", 300.0):
        xor = xor_constraint(2)
        for key in ("2sat", "nae3", "ex3"):
            impl = search_implementation(builtin_language(key), xor)
            assert impl is not None and impl.strict
            res = verify_implementation(impl)
            assert res.valid and res.strict and res.alpha == impl.alpha
        for target in (T, F):
            impl = search_implementation(builtin_language("ex3"), target)
            assert impl is not None and impl.strict
            assert verify_implementation(impl).valid
        # raw bounded search (catalog emptied) also succeeds at small caps
        monkeypatch.setattr(implementations, "catalog", lambda: ())
        search_implementation.cache_clear()
        raw = search_implementation(builtin_language("nae3"), xor,
                                    max_aux=1, max_apps=3)
        search_implementation.cache_clear()
        assert raw is not None and verify_implementation(raw).strict


def test_criterion_9_reduction_cycle():
    with report(9, "the degree-2 reduction cycle preserves decisions with "
                   "constant variable growth", 120.0):
        dsat = gamma_d_sat(2)
        xorl = builtin_language("xor")
        rng = random.Random("acceptance9")
        max_growth = 0
        for _ in range(25):
            phi = random_formula(dsat, 6, 8, "Z", max_weight=6 ** 3,
                                 seed=rng.randrange(10 ** 9))
            stages = exp_cycle(phi, xorl)
            cur = phi
            for label, out, cert in stages:
                assert cert.kind == "additive"
                assert equivalent_decisions(cur, out), label
                max_growth = max(max_growth, out.nvars - cur.nvars)
                cur = out
            assert equivalent_decisions(phi, cur)
        assert max_growth <= 4
        print(f"  [cycle] max per-stage variable growth: {max_growth}")
