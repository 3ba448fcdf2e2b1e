"""Formula algebra and the brute-force oracle."""

import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import maxcsp.solver
from maxcsp.certificates import AFFINE, KIND_ADDITIVE, build_certificate
from maxcsp.cli import main
from maxcsp.constraints import (MODE_LIT, MODE_TF, T, F, Constraint, ConstraintLanguage,
                               and_constraint, closure, ex_constraint,
                               nae_constraint, or_constraint, xor_constraint,
                               row_to_bits)
from maxcsp.errors import CapExceededError, FormatError
from maxcsp.formulas import Formula, empty_formula, random_formula
from maxcsp.io_formats import emit_instance
from maxcsp.languages import builtin_language, gamma_d_sat
from maxcsp.solver import (affine_holds, brute_force, check_equivalence, decide,
                           decide_exact, decisions)
from maxcsp.transforms import encoded_bits, neg_to_base, vc_reduce, verify_transform

from formula_groups import canonical, from_triples, polynomial_terms, triples

XOR = xor_constraint(2)
OR2 = or_constraint(2)


def test_formula_counts():
    phi = from_triples(3, ((XOR, (1, 2), 3), (XOR, (1, 3), -2)), "Z", 1)
    assert phi.size == 2 and phi.total_weight == 5


def test_weight_range_enforced():
    with pytest.raises(FormatError):
        from_triples(2, ((XOR, (1, 2), -1),), "N", 0)


def test_index_bounds_enforced():
    with pytest.raises(FormatError):
        from_triples(2, ((XOR, (1, 3), 1),), "N", 0)


def _grouped(apps):
    """apps merged into a dict of groups, {constraint: {indices: weight}}."""
    groups = {}
    for c, indices, w in apps:
        g = groups.setdefault(c, {})
        g[indices] = g.get(indices, 0) + w
    return groups


def test_merge_keys_on_constraint_value():
    # A separately built equal constraint merges; the same table under
    # another name does not, and hashing agrees with equality.
    twin = xor_constraint(2)
    renamed = Constraint("XOR_B", 2, XOR.table)
    assert twin is not XOR and hash(twin) == hash(XOR) and twin == XOR
    groups = _grouped(((XOR, (1, 2), 3), (twin, (1, 2), 2),
                       (renamed, (1, 2), 4)))
    assert list(groups) == [XOR, renamed]
    assert [(c.name, w) for c, _, w in triples(Formula(2, groups, "Z"))] == [
        ("XOR", 5), ("XOR_B", 4)]


def test_sorted_groups_in_canonical_order():
    # Column groups repeat indices (ties go by weight): against a Python-key
    # sort of every entry.
    rng = random.Random(1402)
    for key in ("2sat", "nae3lit", "xor"):
        entries = triples(random_formula(builtin_language(key), 3, 40, "Z", max_weight=3,
                                         seed=rng.randrange(10 ** 9)))
        rng.shuffle(entries)
        expected = sorted(entries, key=lambda e: (e[0].name, *e[1], e[2]))
        phi = from_triples(3, entries, "Z")
        assert emit_instance(phi).splitlines()[1:] == [
            " ".join(map(str, (c.name, w, *indices))) for c, indices, w in expected]
        assert triples(phi) == expected


def test_distinct_constraints_sharing_a_name_are_refused():
    # The name orders the groups and is all a file writes of a constraint,
    # so such a formula could not be read back.
    twin = Constraint("XOR", 2, (1, 0, 0, 1))
    for groups in ({XOR: {(1, 2): 1}, twin: {(1, 2): 2}},
                   {OR2: ([(1, 2)], [1]), XOR: ([], []), twin: ([(2, 1)], [-1])}):
        with pytest.raises(FormatError, match="distinct constraints share the name 'XOR'"):
            Formula(2, groups, "Z")
    assert Formula(2, {XOR: {(1, 2): 1}, xor_constraint(2): {(1, 2): 2}}, "Z").size == 1


def _assert_same_formula(lazy, reference):
    """A dict-built formula against the one built with a column entry per
    application: the same counts, constraints, text, bits and values, yet
    two formulas, as formulas compare by identity."""
    nvars = reference.nvars
    assert (lazy.nvars, lazy.size, lazy.total_weight, lazy.threshold) == \
        (reference.nvars, reference.size, reference.total_weight, reference.threshold)
    assert [c for c, _ in lazy.sorted_groups()] == [c for c, _ in reference.sorted_groups()]
    assert emit_instance(lazy) == emit_instance(reference)
    assert encoded_bits(lazy) == encoded_bits(reference)
    assert canonical(lazy) == canonical(reference) and lazy != reference
    assert repr(lazy) == repr(reference)
    moved = lazy.replace(threshold=3)
    assert moved.weights is lazy.weights
    assert canonical(moved) == canonical(reference.replace(threshold=3))
    for bits in itertools.product((0, 1), repeat=nvars):
        assert lazy.value(bits) == reference.value(bits)


def test_dict_built_formula_equals_applications_built():
    rng = random.Random(1401)
    for key, weight_range in (("2sat", "N"), ("nae3lit", "Z"), ("xor", "Z")):
        # Few variables, many applications: repeats merge, some to weight 0.
        phi = random_formula(builtin_language(key), 5, 40, weight_range,
                             max_weight=4, seed=rng.randrange(10 ** 9))
        groups = _grouped(triples(phi))
        merged = from_triples(5, [(c, i, w) for c, g in groups.items()
                                  for i, w in g.items()], weight_range, phi.threshold)
        lazy = Formula(5, groups, weight_range, phi.threshold)
        assert lazy.size < phi.size
        assert any(0 in g.values() for g in groups.values()) or key == "xor"
        _assert_same_formula(lazy, merged)
        for bits in itertools.product((0, 1), repeat=5):
            assert lazy.value(bits) == phi.value(bits)
        cert = build_certificate("merge", phi, merged, KIND_ADDITIVE,
                                 (AFFINE, 1, 0), var_bound=0, size_factor=1,
                                 weight_factor=1, weight_exponent=0)
        report = verify_transform(phi, lazy, cert)
        assert report == verify_transform(phi, merged, cert) and report.all_passed


def test_grouped_formula_edge_cases():
    twin, nand2 = xor_constraint(2), Constraint("NAND2", 2, (1, 1, 1, 0))
    const = Constraint("ONE", 0, (1,))
    apps = [(XOR, (2, 1), 0), (nand2, (1, 2), 5),
            (twin, (1, 2), 2), (const, (), 4),
            (nand2, (2, 1), -1), (XOR, (1, 2), 1),
            (nand2, (1, 3), 0), (OR2, (3, 3), -2)]
    groups = _grouped(apps)
    # Twins merge into one group; an arity-0 member and zero weights stay.
    assert list(groups) == [XOR, nand2, const, OR2]
    assert groups[XOR] == {(2, 1): 0, (1, 2): 3} and groups[const] == {(): 4}
    lazy = Formula(3, groups, "Z", 1)
    reference = from_triples(3, [(c, i, w) for c, g in groups.items()
                                 for i, w in g.items()], "Z", 1)
    _assert_same_formula(lazy, reference)
    assert [(c.name, i, w) for c, i, w in triples(lazy)] == [
        ("NAND2", (1, 2), 5), ("NAND2", (1, 3), 0), ("NAND2", (2, 1), -1),
        ("ONE", (), 4), ("OR2", (3, 3), -2), ("XOR", (1, 2), 3), ("XOR", (2, 1), 0)]
    assert emit_instance(lazy).splitlines()[1:] == [
        "NAND2 5 1 2", "NAND2 0 1 3", "NAND2 -1 2 1", "ONE 4", "OR2 -2 3 3",
        "XOR 3 1 2", "XOR 0 2 1"]


def test_dict_built_formula_checks_its_weights():
    for groups, weight_range, message in (
            ({XOR: {(1,): 1}}, "Z", "XOR has arity 2"),
            ({XOR: {(1, 2): 1, (1, 3): 1}}, "Z", "index 3 out of range 1..2"),
            ({XOR: {(0, 1): 1}}, "Z", "index 0 out of range"),
            ({XOR: {(1, 2): 2}, OR2: {(1, 2): -1}}, "N", "negative weight -1")):
        with pytest.raises(FormatError, match=message):
            Formula(2, groups, weight_range, 0)
    assert Formula(2, {XOR: {(1, 2): 3}, OR2: {(2, 1): -4}}, "Z").total_weight == 7


def test_brute_force_empty():
    assert brute_force(empty_formula(3)).optimum == 0


def test_brute_force_or2_witness_tie_break():
    phi = from_triples(2, ((OR2, (1, 2), 5),), "N", 0)
    res = brute_force(phi)
    assert res.optimum == 5
    assert res.witness == (0, 1)  # lexicographically smallest maximizer


def test_brute_force_k3_gadget():
    phi = vc_reduce(3, [(1, 2), (2, 3), (1, 3)], 2)
    assert brute_force(phi).optimum == 19


def test_optimum_within_total_weight():
    rng = random.Random(21)
    for _ in range(20):
        phi = random_formula(gamma_d_sat(2), 5, 8, "Z", seed=rng.randrange(10 ** 9))
        opt = brute_force(phi).optimum
        assert -phi.total_weight <= opt <= phi.total_weight


def test_decide_max_cut_triangle():
    apps = tuple((XOR, e, 1) for e in ((1, 2), (2, 3), (1, 3)))
    phi = from_triples(3, apps, "N", 0)
    assert decide(phi, 2) and not decide(phi, 3)
    assert decide(phi, -phi.total_weight - 1)


def test_decide_exact():
    phi = from_triples(2, ((XOR, (1, 2), 2),), "N", 0)
    assert not decide_exact(phi, 1)  # values are 0 or 2
    assert decide_exact(phi, 2) and decide_exact(phi, 0)


def test_check_equivalence_modes():
    phi = from_triples(2, ((XOR, (1, 2), 2),), "N", 2)
    assert check_equivalence(phi, 2, phi, 2, "geq")
    assert check_equivalence(phi, 2, phi, 2, "eq")
    # corrupting the threshold on a tight instance breaks both
    assert not check_equivalence(phi, 2, phi, 3, "geq")
    assert not check_equivalence(phi, 2, phi, 3, "eq")


def test_cap_exceeded():
    phi = empty_formula(30)
    phi = from_triples(30, ((XOR, (1, 2), 1),), "N", 0)
    with pytest.raises(CapExceededError):
        brute_force(phi, cap=24)


def test_every_entry_point_answers_thresholds_out_of_range_past_the_cap():
    # Every value lies in [-||phi||, ||phi||]: no sweep is needed, at any n.
    phi = random_formula(builtin_language("3sat"), 30, 40, "N", seed="range")
    w = phi.total_weight
    assert decide(phi, w + 1) is False and decide(phi, -w - 1) is True
    assert decide_exact(phi, w + 1) is False and decide_exact(phi, -w - 1) is False
    assert decisions(phi, w + 1) == (False, False)
    assert decisions(phi, -w - 1) == (True, False)
    with pytest.raises(CapExceededError):
        decide(phi, w)


def _reference(phi, t):
    """Max of Formula.value over all assignments (ties to the first) and
    whether some assignment is worth exactly t."""
    best = witness = None
    hit = False
    for m in range(1 << phi.nvars):
        bits = row_to_bits(m, phi.nvars)
        v = phi.value(bits)
        if best is None or v > best:
            best, witness = v, bits
        hit = hit or v == t
    return best, witness, hit


def _assert_matches_reference(phi, t):
    best, witness, hit = _reference(phi, t)
    res = brute_force(phi)
    assert (res.optimum, res.witness) == (best, witness)
    assert res.exact == _reference(phi, phi.threshold)[2]
    assert decisions(phi, t) == (best >= t, hit)
    assert decide(phi, t) == (best >= t) and decide_exact(phi, t) == hit


def test_oracle_matches_reference():
    rng = random.Random(31)
    for name in ("2sat", "3sat", "nae3lit", "ex3"):
        lang = builtin_language(name)
        for nvars in (1, 2, 5, 9):
            for weight_range in ("N", "Z"):
                phi = random_formula(lang, nvars, 2 * nvars, weight_range,
                                     seed=rng.randrange(10 ** 9))
                _assert_matches_reference(phi, rng.randint(-8, 8))


def test_oracle_edge_instances():
    big = 1 << 62
    repeated = ((OR2, (3, 1), 4), (OR2, (2, 2), -3),
                (XOR, (3, 3), 7), (F, (2,), -2),
                (Constraint("K", 0, (1,)), (), 2))
    for phi, t in (
            (empty_formula(1), 0),
            (empty_formula(4, threshold=1), 1),
            (from_triples(1, ((T, (1,), -2), (F, (1,), 5)), "Z", 5), 5),
            (from_triples(3, repeated, "Z", 1), 2),
            # ||phi|| >= 2**62: values are exact Python ints
            (from_triples(3, ((XOR, (1, 3), big),
                              (OR2, (3, 2), big + 1),
                              (T, (2,), -3 * big)), "Z", big + 1),
             big + 1)):
        _assert_matches_reference(phi, t)


def test_oracle_blocks_over_top_variables():
    # 22 variables: one block of 2**18 entries per setting of x1..x4.
    # Unit T on x1 and x22, unit F on the rest: the unique maximizer is
    # 1 0...0 1 with value 22.
    apps = [(T, (1,), 1), (T, (22,), 1)]
    apps += [(F, (i,), 1) for i in range(2, 22)]
    phi = from_triples(22, apps, "N", 22)
    res = brute_force(phi)
    assert res.optimum == 22 and res.exact
    assert res.witness == (1,) + (0,) * 20 + (1,)
    assert decisions(phi, 23) == (False, False)
    # Unit F on x1 as well ties x1 = 0 with x1 = 1; the tie goes to the
    # first block.
    tied = from_triples(22, apps + [(F, (1,), 1)], "N", 22)
    res = brute_force(tied)
    assert res.optimum == 22 and res.witness == (0,) * 21 + (1,)


def test_one_sweep_per_formula(monkeypatch, tmp_path, capsys):
    calls = []
    sweep = maxcsp.solver._sweep
    monkeypatch.setattr(maxcsp.solver, "_sweep",
                        lambda *a: calls.append(1) or sweep(*a))
    phi = random_formula(builtin_language("e2lin"), 5, 8, "Z", seed=4)
    phi2, cert = neg_to_base(phi, builtin_language("xor"))
    verify_transform(phi, phi2, cert)
    assert len(calls) == 2
    inst = tmp_path / "in.maxcsp"
    inst.write_text("maxcsp 3 2 N 2\nXOR 1 1 2\nXOR 1 2 3\n")
    assert main(["solve", "--language", "xor", "--instance", str(inst),
                 "--exact"]) == 0
    assert len(calls) == 3
    assert capsys.readouterr().out.endswith("exact yes\n")


def test_affine_verify_builds_each_formula_once(monkeypatch):
    phi = random_formula(builtin_language("e2lin"), 5, 8, "Z", seed=4)
    phi2, cert = neg_to_base(phi, builtin_language("xor"))
    builds = []
    blocks = maxcsp.solver._value_blocks
    monkeypatch.setattr(maxcsp.solver, "_value_blocks",
                        lambda f, cap: builds.append(f) or blocks(f, cap))
    report = verify_transform(phi, phi2, cert)
    assert builds == [phi, phi2]
    assert report.all_passed
    assert [c.name for c in report.checks[-3:]] == [
        "equivalence-geq", "equivalence-eq", "affine-pointwise"]
    # The fused pass still catches a wrong affine map.
    bad = dataclasses.replace(cert, value_map=(cert.value_map[0], cert.value_map[1],
                                               cert.value_map[2] + 1))
    checks = {c.name: c.passed for c in verify_transform(phi, phi2, bad).checks}
    assert checks["affine-pointwise"] is False and checks["equivalence-geq"]


def _broadcast_values(phi):
    """phi's values as the (2,)*n array the broadcasting engine built: each
    application's table, folded onto its distinct variables, added in by
    broadcasting.  Its blocks are this array's 2**_BLOCK_BITS-entry slices."""
    n = phi.nvars
    values = np.zeros((2,) * n, dtype=np.int64)
    for c, indices, w in triples(phi):
        support = sorted(set(indices))
        table = np.zeros((2,) * len(support), dtype=np.int64)
        for bits in itertools.product((0, 1), repeat=len(support)):
            x = dict(zip(support, bits))
            table[bits] = w * c.table[int("".join(str(x[i]) for i in indices) or "0", 2)]
        values += table.reshape([2 if v in support else 1 for v in range(1, n + 1)])
    return values.reshape(-1)


def test_oracle_two_blocks_match_reference():
    # One variable past a block: two blocks, each built from the terms whose
    # x1 part lies inside the block's setting of x1.
    rng = random.Random(2021)
    b = maxcsp.solver._BLOCK_BITS
    n = b + 1
    for name in ("3sat", "nae3lit"):
        phi = random_formula(builtin_language(name), n, 3 * n, "Z",
                             seed=rng.randrange(10 ** 9))
        blocks = list(maxcsp.solver._value_blocks(phi, 24))
        assert [start for start, _ in blocks] == [0, 1 << b]
        for start, flat in blocks:
            for i in rng.sample(range(len(flat)), 40):
                assert flat[i] == phi.value(row_to_bits(start + i, n))
        ref = _broadcast_values(phi)
        assert np.array_equal(np.concatenate([flat for _, flat in blocks]), ref)
        res = brute_force(phi)
        assert res.optimum == ref.max()
        assert res.witness == row_to_bits(int(ref.argmax()), n)
        assert res.exact == bool((ref == phi.threshold).any())


def test_oracle_exact_when_partial_sums_pass_int64():
    # ||phi|| < 2**62, but EX3's x1x2x3 coefficient is 3 * w > 2**63, so the
    # blocks hold Python ints.  A cancelling unary term keeps ||phi|| low.
    w = 3 * (1 << 60) - 5
    phi = from_triples(4, ((ex_constraint(3), (2, 1, 3), w),
                           (T, (1,), 7 - (1 << 60)),
                           (XOR, (3, 4), 3)), "Z", w)
    assert phi.total_weight < 1 << 62 <= phi.total_weight << 3
    (_, flat), = maxcsp.solver._value_blocks(phi, 24)
    assert [int(v) for v in flat] == [phi.value(row_to_bits(m, 4))
                                      for m in range(16)]
    _assert_matches_reference(phi, w)
    _assert_matches_reference(phi, w - (1 << 60) + 7)


def _ex3_at_norm(s, norm):
    """EX3 at weight w = 3s - 5, whose x1x2x3 coefficient 3w the partial sums
    reach, a unary term at 7 - s and an XOR whose weight takes ||phi|| to
    `norm`: 2**kmax * ||phi|| = 8 * norm."""
    w = 3 * s - 5
    return from_triples(4, ((ex_constraint(3), (2, 1, 3), w),
                            (T, (1,), 7 - s),
                            (XOR, (3, 4), norm - 4 * s + 12)), "Z", w)


def test_oracle_block_width_edges():
    # Blocks are int32 while 2**kmax * ||phi|| < 2**30, else int64 (below
    # 2**62).  XOR3's x1x2x3 coefficient is 4 * ||phi|| = 2**29 - 4.
    top = 1 << 30
    for phi, dtype, coeff_max in (
            (_ex3_at_norm(1 << 25, (top >> 3) - 1), np.int32, 9 * (1 << 25) - 15),
            (from_triples(3, ((xor_constraint(3), (3, 1, 2), (top >> 3) - 1),), "Z", 1),
             np.int32, (top >> 1) - 4),
            # ||phi|| < 2**30 = 2**kmax * ||phi||
            (_ex3_at_norm(1 << 25, top >> 3), np.int64, 9 * (1 << 25) - 15),
            # ||phi|| < 2**30, and 3w passes 2**31: an int32 sum would wrap.
            (_ex3_at_norm(1 << 28, top - 9), np.int64, 9 * (1 << 28) - 15)):
        assert (phi.total_weight << 3 < top) == (dtype is np.int32)
        assert phi.total_weight < top
        assert max(map(abs, maxcsp.solver._coefficients(phi)[0].values())) == coeff_max
        (_, flat), = maxcsp.solver._value_blocks(phi, 24)
        assert flat.dtype == dtype
        assert [int(v) for v in flat] == [phi.value(row_to_bits(m, phi.nvars))
                                          for m in range(1 << phi.nvars)]
        _assert_blocks_match_reference(phi)
        for t in (phi.threshold, max(map(int, flat)), int(flat[5]) + 1):
            _assert_matches_reference(phi, t)


def test_oracle_exact_when_terms_of_repeated_arguments_pass_the_bound():
    # XOR4 on x1 four times is 0, so kmax = 1 and 2 * ||phi|| < top; but
    # its terms reach 8 w, past int32 (int64) at top = 2**30 (2**62), and
    # the dtype is picked to hold them.
    for k, top, dtype in ((4, 1 << 30, np.int64), (5, 1 << 30, np.int64),
                          (4, 1 << 62, object)):
        w = (top >> 1) - 1
        phi = from_triples(3, ((xor_constraint(k), (1,) * k, w),), "Z")
        masks, values, kmax = maxcsp.solver._terms(phi)
        assert kmax == 1 and max(map(abs, values)) == w << (k - 1) >= top << 1
        (_, flat), = maxcsp.solver._value_blocks(phi, 24)
        assert flat.dtype == dtype
        assert [int(v) for v in flat] == [phi.value(row_to_bits(m, 3)) for m in range(8)]


def test_int32_blocks_decide_thresholds_past_int32(monkeypatch):
    # |t| > ||phi||: the sweep answers = without comparing t to a block.
    class InRange(np.ndarray):
        def __eq__(self, other):
            info = np.iinfo(self.dtype)
            assert info.min <= other <= info.max
            compared.append(other)
            return np.ndarray.__eq__(self, other)

    compared = []
    blocks = maxcsp.solver._value_blocks
    monkeypatch.setattr(maxcsp.solver, "_value_blocks", lambda phi, cap: (
        (start, flat.view(InRange)) for start, flat in blocks(phi, cap)))
    phi = random_formula(builtin_language("2sat"), 10, 30, "Z", seed=12)
    (_, flat), = blocks(phi, 24)
    assert flat.dtype == np.int32
    optimum = int(flat.max())
    for t in (1 << 31, -(1 << 31), 1 << 40, -(1 << 40), optimum):
        _assert_matches_reference(phi, t)
    assert compared and set(compared) <= {optimum, phi.threshold}
    for t in (1 << 31, 1 << 40):
        assert decisions(phi, -t) == (True, False) and decide(phi, -t)
        assert decisions(phi, t) == (False, False) and not decide(phi, t)
        assert not decide_exact(phi, t) and not decide_exact(phi, -t)


def test_oracle_wide_closure_members():
    # Members of arity 4 and 5 take the Moebius transform past k = 3.
    rng = random.Random(45)
    ex4_lit = closure(ConstraintLanguage("ex4", (ex_constraint(4),)), MODE_LIT)
    nae5 = ConstraintLanguage("nae5", (nae_constraint(5),))
    for lang in (ex4_lit, nae5):
        for nvars in (5, 8):
            for weight_range in ("N", "Z"):
                phi = random_formula(lang, nvars, 2 * nvars, weight_range,
                                     seed=rng.randrange(10 ** 9))
                assert max(c.arity for c in phi.weights) >= 4
                _assert_matches_reference(phi, rng.randint(-8, 8))


def _reference_blocks(phi):
    """phi's value blocks as the one-array build made them: every kept
    coefficient scattered into a zeroed 2**_BLOCK_BITS-entry block, then one
    subset-sum pass per bit over the whole block."""
    n = phi.nvars
    coeffs, kmax = maxcsp.solver._coefficients(phi)
    bound = phi.total_weight << kmax
    dtype = np.int32 if bound < 1 << 30 else np.int64 if bound < 1 << 62 else object
    low = min(n, maxcsp.solver._BLOCK_BITS)
    for p in range(1 << (n - low)):
        values = np.zeros(1 << low, dtype=dtype)
        for mask, c in coeffs.items():
            if not mask >> low & ~p:
                values[mask & (1 << low) - 1] += c
        for b in range(low):
            v = values.reshape(-1, 2, 1 << b)
            v[:, 1, :] += v[:, 0, :]
        yield p << low, values


def _assert_blocks_match_reference(phi):
    blocks = list(maxcsp.solver._value_blocks(phi, 24))
    ref = list(_reference_blocks(phi))
    assert [start for start, _ in blocks] == [start for start, _ in ref]
    for (_, flat), (_, expected) in zip(blocks, ref):
        assert flat.dtype == expected.dtype and flat.shape == expected.shape
        assert np.array_equal(flat, expected)


def _row_heads(phi):
    return {mask >> maxcsp.solver._ROW_BITS
            for mask in maxcsp.solver._coefficients(phi)[0]}


def test_row_blocks_match_reference_around_row_bits():
    rng = random.Random(1108)
    r = maxcsp.solver._ROW_BITS
    for name in ("2sat", "3sat", "nae3lit", "xor"):
        for nvars in (r - 3, r, r + 1, 21):
            for weight_range in ("N", "Z"):
                phi = random_formula(builtin_language(name), nvars, 3 * nvars,
                                     weight_range, seed=rng.randrange(10 ** 9))
                _assert_blocks_match_reference(phi)


def test_row_blocks_empty_single_and_every_row():
    r = maxcsp.solver._ROW_BITS
    n = r + 4
    AND2 = and_constraint(2)
    # No coefficient: no row is held, and every value is 0.
    for nvars in (1, n):
        empty = Formula(nvars, {}, "Z")
        assert not _row_heads(empty)
        _assert_blocks_match_reference(empty)
    # x1 AND x_v for every v in the low bits: every monomial is x1 x_v, in
    # the one row whose head is x1's bit.
    single = from_triples(n, [(AND2, (1, v), v - 3) for v in range(5, n + 1)], "N")
    assert _row_heads(single) == {1 << 3}
    _assert_blocks_match_reference(single)
    # The AND of every nonempty subset of x1..x4, and F on x_n for the
    # constant: the four row bits take every setting.
    apps = [(and_constraint(k), vs, sum(vs)) for k in range(1, 5)
            for vs in itertools.combinations(range(1, 5), k)]
    apps += [(F, (n,), 5), (XOR, (n - 1, n), -2)]
    every = from_triples(n, apps, "Z")
    assert _row_heads(every) == set(range(16))
    _assert_blocks_match_reference(every)


def test_row_blocks_object_dtype():
    rng = random.Random(1109)
    for nvars in (5, maxcsp.solver._ROW_BITS + 1, 13):
        phi = random_formula(builtin_language("3sat"), nvars, 2 * nvars, "Z",
                             max_weight=1 << 61, seed=rng.randrange(10 ** 9))
        (_, flat), = maxcsp.solver._value_blocks(phi, 24)
        assert flat.dtype == object
        _assert_blocks_match_reference(phi)


def test_row_bits_do_not_change_blocks(monkeypatch):
    rng = random.Random(1110)
    phis = [random_formula(builtin_language(name), nvars, 3 * nvars, "Z",
                           seed=rng.randrange(10 ** 9))
            for name, nvars in (("3sat", 6), ("2sat", 12), ("nae3lit", 21))]
    phis.append(random_formula(builtin_language("2sat"), 9, 20, "Z",
                               max_weight=1 << 61, seed=rng.randrange(10 ** 9)))
    for row_bits in (1, 30):
        monkeypatch.setattr(maxcsp.solver, "_ROW_BITS", row_bits)
        for phi in phis:
            _assert_blocks_match_reference(phi)


def test_block_bits_do_not_change_blocks(monkeypatch):
    rng = random.Random(1112)
    phis = [random_formula(builtin_language(name), nvars, 3 * nvars, "Z",
                           seed=rng.randrange(10 ** 9))
            for name, nvars in (("3sat", 6), ("2sat", 12), ("nae3lit", 16),
                                ("3sat", 21))]
    phis.append(random_formula(builtin_language("2sat"), 11, 20, "Z",
                               max_weight=1 << 61, seed=rng.randrange(10 ** 9)))
    AND2 = and_constraint(2)
    # Low applications on x3..x16, and x1 alone and x1 x5: between them, at
    # 9 and 14 block bits, stretches of a block and whole blocks hold no row.
    phis.append(from_triples(16, [(OR2, (v, v + 1), v) for v in range(3, 16)]
                             + [(T, (1,), 7), (AND2, (1, 5), -3)], "Z"))
    # One term, on x1: the blocks with x1 set hold one row, with that term
    # alone, and the others hold none.
    lone = from_triples(16, [(T, (1,), 5)], "N")
    phis.append(lone)
    # Every term holds x1, so every block with x1 clear holds no row.
    wide = from_triples(21, [(AND2, (1, v), v - 9) for v in range(10, 22)]
                        + [(T, (1,), 4)], "Z")
    phis.append(wide)
    for block_bits in (9, 14, 30):
        monkeypatch.setattr(maxcsp.solver, "_BLOCK_BITS", block_bits)
        for phi in phis:
            _assert_blocks_match_reference(phi)
        for f, expected in ((lone, 5), (wide, 4 + sum(range(1, 13)))):
            values = np.concatenate([flat for _, flat in maxcsp.solver._value_blocks(f, 24)])
            assert not values[:1 << (f.nvars - 1)].any() and values.max() == expected


def test_oracle_coefficients_of_repeated_arguments():
    # x * x = x: an application's coefficients land on the OR of its
    # argument bits, so repeated arguments fold.  Masks: x1 = 4, x2 = 2, x3 = 1.
    for app, coeffs, kmax in (
            ((or_constraint(3), (1, 1, 3), 2), {4: 2, 1: 2, 5: -2}, 2),
            ((ex_constraint(3), (2, 2, 2), 5), {}, 1),
            ((nae_constraint(3), (1, 3, 1), 3), {4: 3, 1: 3, 5: -6}, 2),
            ((T, (2,), 7), {2: 7}, 1),
            ((F, (2,), 4), {0: 4, 2: -4}, 1)):
        phi = from_triples(3, (app,), "Z")
        assert maxcsp.solver._coefficients(phi) == (coeffs, kmax)
        assert coeffs == {
            sum(1 << (3 - v) for v in mono): c
            for mono, c in polynomial_terms(phi).items()}
        (_, flat), = maxcsp.solver._value_blocks(phi, 24)
        assert [int(v) for v in flat] == [phi.value(row_to_bits(m, 3)) for m in range(8)]
    both = from_triples(3, ((or_constraint(3), (1, 1, 3), 2),
                            (nae_constraint(3), (1, 3, 1), 3),
                            (F, (2,), 4)), "Z")
    assert maxcsp.solver._coefficients(both) == ({4: 5, 1: 5, 5: -8, 0: 4, 2: -4}, 2)


def test_sweep_past_one_block_holds_one_block():
    # Block p is freed before block p+1 is allocated: a 22-variable int32
    # sweep (sixteen 1 MB blocks) peaks below 6 MB.
    phi = random_formula(builtin_language("3sat"), 22, 220, "N", seed=7)
    tracemalloc.start()
    try:
        res = brute_force(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
    assert res.optimum == phi.value(res.witness)


def test_sweep_holds_blocks_of_one_megabyte():
    # A 20-variable int32 sweep runs in four 2**18-entry blocks of 1 MB.
    phi = random_formula(builtin_language("2sat"), 20, 200, "N", seed=8)
    tracemalloc.start()
    try:
        res = brute_force(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert res.optimum == phi.value(res.witness)


def test_oracle_refuses_masks_past_63_variables(tmp_path, capsys):
    # Masks are int64, and x1's bit at n = 64 is 1 << 63.
    phi = from_triples(64, ((XOR, (1, 64), 1),), "N")
    with pytest.raises(CapExceededError, match="64 variables exceeds the 63-variable mask"):
        next(maxcsp.solver._value_blocks(phi, 70))
    inst = tmp_path / "in.maxcsp"
    inst.write_text(emit_instance(phi))
    assert main(["solve", "--language", "xor", "--instance", str(inst),
                 "--oracle-cap", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: oracle: 64 variables exceeds") and "Traceback" not in err


def test_oracle_terms_sum_to_coefficients():
    # The unsummed terms, summed by mask, are the coefficients, and these
    # are the polynomials' coefficients.
    assert maxcsp.solver.moebius(and_constraint(2).table) == (((0, 1), 1),)
    assert maxcsp.solver.moebius(F.table) == (((), 1), ((0,), -1))
    rng = random.Random(90)
    ex4_tf = closure(ConstraintLanguage("ex4", (ex_constraint(4),)), MODE_TF)
    nullary = [c for c in ex4_tf if c.arity == 0]
    assert {c.table for c in nullary} == {(0,), (1,)}
    phis = [Formula(5, {}, "Z"), Formula(4, {XOR: ([], [])}, "Z"),
            from_triples(3, ((or_constraint(3), (1, 1, 3), 2), (XOR, (2, 2), 0),
                             (nae_constraint(3), (3, 1, 3), 1 << 61),
                             (F, (2,), 0), (T, (3,), -(1 << 62))), "Z")]
    for max_weight in (9, 1 << 61):
        phi = random_formula(ex4_tf, 6, 30, "Z", max_weight=max_weight,
                             seed=rng.randrange(10 ** 9))
        entries = triples(phi) + [(c, (), rng.randint(-9, 9)) for c in nullary]
        entries += [(f, i, 0) for f, i, _ in entries[:3]]
        phis.append(from_triples(6, entries, "Z"))
    for phi in phis:
        masks, values, kmax = maxcsp.solver._terms(phi)
        sums = {}
        for mask, c in zip(masks, values):
            sums[mask] = sums.get(mask, 0) + c
        coeffs = {mask: c for mask, c in sums.items() if c}
        assert maxcsp.solver._coefficients(phi) == (coeffs, kmax)
        n = phi.nvars
        assert {frozenset(v for v in range(1, n + 1) if mask >> (n - v) & 1): c
                for mask, c in coeffs.items()} == polynomial_terms(phi)
        assert kmax == max((len(set(i)) for _, i, _ in triples(phi)), default=0)
        _assert_blocks_match_reference(phi)


def _affine_reference(phi1, phi2, a, b):
    return all(phi2.value(x) == a * phi1.value(x) + b
               for x in itertools.product((0, 1), repeat=phi1.nvars))


def test_affine_holds_matches_pointwise_reference():
    rng = random.Random(88)
    langs = [builtin_language(k) for k in ("xor", "2sat", "3sat", "nae3lit", "ex3")]
    langs.append(closure(ConstraintLanguage("ex4", (ex_constraint(4),)), MODE_LIT))
    checked = {True: 0, False: 0}
    for lang in langs:
        for nvars in (1, 3, 5):
            phi = random_formula(lang, nvars, 2 * nvars + 2, "Z", max_weight=9,
                                 seed=rng.randrange(10 ** 9))
            k, c = rng.choice((-3, -1, 2, 5)), rng.randint(-7, 7)
            # phi2 = k * phi + c, with the constant as T + F on x1 and a
            # cancelling pair of applications that leaves no coefficient.
            entries = triples(phi)
            f0, i0, w0 = entries[0]
            phi2 = from_triples(nvars, [(f, i, k * w) for f, i, w in entries]
                                + [(T, (1,), c), (F, (1,), c), (f0, i0, w0), (f0, i0, -w0)],
                                "Z")
            other = random_formula(lang, nvars, 2 * nvars + 2, "Z", max_weight=9,
                                   seed=rng.randrange(10 ** 9))
            (f0, i0, w0), *rest = triples(phi2)
            bumped = from_triples(nvars, rest + [(f0, i0, w0 + 1)], "Z")
            for f1, f2, a, b in (
                    (phi, phi2, k, c), (phi2, phi, Fraction(1, k), Fraction(-c, k)),
                    (phi, phi2, k + 1, c), (phi, phi2, k, c + Fraction(1, 2)),
                    (phi2, phi, Fraction(1, k), Fraction(1 - c, k)),
                    (phi, bumped, k, c), (phi, other, 1, 0), (phi, phi, 1, 0)):
                expected = _affine_reference(f1, f2, a, b)
                assert affine_holds(f1, f2, a, b) is expected
                checked[expected] += 1
    assert min(checked.values()) >= 3 * len(langs)
    with pytest.raises(ValueError):
        affine_holds(Formula(2, {}), Formula(3, {}), 1, 0)


def test_oracle_coefficients_match_formula_polynomial():
    # Two independent routes to phi's monomial coefficients: the oracle's
    # per-table Moebius coefficients and the characteristic polynomials.
    rng = random.Random(89)
    langs = [builtin_language(k) for k in ("xor", "2sat", "3sat", "nae3lit", "ex3")]
    langs += [closure(ConstraintLanguage("ex4", (ex_constraint(4),)), MODE_LIT),
              ConstraintLanguage("nae5", (nae_constraint(5),))]
    for lang in langs:
        for nvars in (2, 6, 30):
            phi = random_formula(lang, nvars, 3 * nvars, "Z", max_weight=50,
                                 seed=rng.randrange(10 ** 9))
            coeffs, kmax = maxcsp.solver._coefficients(phi)
            assert all(coeffs.values())
            assert {frozenset(v for v in range(1, nvars + 1) if mask >> (nvars - v) & 1): c
                    for mask, c in coeffs.items()} == polynomial_terms(phi)
            assert kmax == max(len(set(i)) for _, i, _ in triples(phi))


def test_oracle_imports_nothing_it_checks():
    # The oracle stays independent of the polynomial machinery it validates.
    allowed = {"maxcsp.constraints": {"row_to_bits"}, "maxcsp.errors": None,
               "maxcsp.formulas": None}
    tree = ast.parse(Path(maxcsp.solver.__file__).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1
            module = f"maxcsp.{node.module}"
            assert module in allowed, module
            names = allowed[module]
            assert names is None or {a.name for a in node.names} <= names
            continue
        modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                   else [node.module])
        for module in modules:
            root = module.split(".")[0]
            assert (root == "numpy" or root in sys.stdlib_module_names
                    or module in allowed), module


def test_cli_kernelize_leaves_numpy_unloaded(tmp_path):
    # Only a sweep imports numpy: a kernelize that runs no oracle starts
    # without it.
    inst = tmp_path / "in.maxcsp"
    inst.write_text("maxcsp 4 3 N 2\n"
                    "OR3 1 1 2 3\nOR3 2 2 3 4\nOR3 1 1 3 4\n")
    code = ("import sys\n"
            "from maxcsp.cli import main\n"
            f"assert main(['kernelize', '--language', '3sat', '--instance', {str(inst)!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    src = str(Path(maxcsp.solver.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_random_formula_deterministic():
    lang = builtin_language("nae3")
    a = random_formula(lang, 6, 10, "Z", seed=99)
    b = random_formula(lang, 6, 10, "Z", seed=99)
    assert canonical(a) == canonical(b) and a != b
    assert canonical(a) != canonical(random_formula(lang, 6, 10, "Z", seed=100))
