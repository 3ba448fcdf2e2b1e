"""Formula algebra and the brute-force oracle."""

import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import maxcsp.solver
from maxcsp.certificates import AFFINE, KIND_ADDITIVE, build_certificate
from maxcsp.cli import main
from maxcsp.constraints import (MODE_LIT, T, F, Constraint, ConstraintLanguage,
                               and_constraint, closure, ex_constraint,
                               nae_constraint, or_constraint, xor_constraint,
                               row_to_bits)
from maxcsp.errors import CapExceededError, FormatError
from maxcsp.formulas import Application, Formula, empty_formula, random_formula
from maxcsp.io_formats import emit_instance
from maxcsp.languages import builtin_language, gamma_d_sat
from maxcsp.solver import (affine_holds, brute_force, check_equivalence, decide,
                           decide_exact, decisions)
from maxcsp.transforms import (encoded_bits, formula_polynomial, neg_to_base,
                               vc_reduce, verify_transform)

XOR = xor_constraint(2)
OR2 = or_constraint(2)


def test_formula_counts():
    phi = Formula(3, (Application(XOR, (1, 2), 3), Application(XOR, (1, 3), -2)),
                  "Z", 1)
    assert phi.size == 2 and phi.total_weight == 5


def test_weight_range_enforced():
    with pytest.raises(FormatError):
        Formula(2, (Application(XOR, (1, 2), -1),), "N", 0)


def test_index_bounds_enforced():
    with pytest.raises(FormatError):
        Formula(2, (Application(XOR, (1, 3), 1),), "N", 0)


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
    groups = _grouped((Application(XOR, (1, 2), 3), Application(twin, (1, 2), 2),
                       Application(renamed, (1, 2), 4)))
    assert list(groups) == [XOR, renamed]
    assert [(x.constraint.name, x.weight)
            for x in Formula(2, groups, "Z").applications] == [("XOR", 5), ("XOR_B", 4)]


def test_sorted_groups_in_canonical_order():
    # Column groups repeat indices (ties go by weight), and the twin shares
    # XOR's name: both against a Python-key sort of every entry.
    rng = random.Random(1402)
    twin = Constraint("XOR", 2, (1, 0, 0, 1))
    for key in ("2sat", "nae3lit", "xor"):
        apps = list(random_formula(builtin_language(key), 3, 40, "Z", max_weight=3,
                                   seed=rng.randrange(10 ** 9)).applications)
        for extra in ([], [Application(twin, (2, 1), -1), Application(twin, (1, 2), 2)]):
            entries = apps + extra
            rng.shuffle(entries)
            expected = sorted(entries, key=lambda a: (a.constraint.name, *a.indices, a.weight))
            phi = Formula(3, entries, "Z")
            assert emit_instance(phi).splitlines()[1:] == [
                " ".join(map(str, (a.constraint.name, a.weight, *a.indices)))
                for a in expected]
            assert phi.applications == tuple(expected)


def _assert_same_formula(lazy, reference):
    """A dict-built formula against the applications-built one; reading
    its counts, constraints, text and encoded bits builds no application."""
    nvars = reference.nvars
    assert (lazy.nvars, lazy.size, lazy.total_weight, lazy.threshold) == \
        (reference.nvars, reference.size, reference.total_weight, reference.threshold)
    assert lazy.constraints_used() == reference.constraints_used()
    assert emit_instance(lazy) == emit_instance(reference)
    assert encoded_bits(lazy) == encoded_bits(reference)
    assert "applications" not in vars(lazy)
    assert lazy == reference and hash(lazy) == hash(reference)
    assert repr(lazy) == repr(reference)
    assert lazy.applications is lazy.applications
    assert lazy.replace(threshold=3) == reference.replace(threshold=3)
    for bits in itertools.product((0, 1), repeat=nvars):
        assert lazy.value(bits) == reference.value(bits)


def test_dict_built_formula_equals_applications_built():
    rng = random.Random(1401)
    for key, weight_range in (("2sat", "N"), ("nae3lit", "Z"), ("xor", "Z")):
        # Few variables, many applications: repeats merge, some to weight 0.
        phi = random_formula(builtin_language(key), 5, 40, weight_range,
                             max_weight=4, seed=rng.randrange(10 ** 9))
        groups = _grouped(phi.applications)
        merged = Formula(5, [Application(c, i, w) for c, g in groups.items()
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
    twin, nand2 = xor_constraint(2), Constraint("XOR", 2, (1, 1, 1, 0))
    const = Constraint("ONE", 0, (1,))
    apps = [Application(XOR, (2, 1), 0), Application(nand2, (1, 2), 5),
            Application(twin, (1, 2), 2), Application(const, (), 4),
            Application(nand2, (2, 1), -1), Application(XOR, (1, 2), 1),
            Application(nand2, (1, 3), 0), Application(OR2, (3, 3), -2)]
    groups = _grouped(apps)
    # Twins merge into one group; an arity-0 member and zero weights stay.
    assert list(groups) == [XOR, nand2, const, OR2]
    assert groups[XOR] == {(2, 1): 0, (1, 2): 3} and groups[const] == {(): 4}
    lazy = Formula(3, groups, "Z", 1)
    reference = Formula(3, [Application(c, i, w) for c, g in groups.items()
                            for i, w in g.items()], "Z", 1)
    _assert_same_formula(lazy, reference)
    # The two XORs interleave in (name, indices, weight) order.
    assert [(a.constraint.table, a.indices, a.weight) for a in lazy.applications] == [
        ((1,), (), 4), ((0, 1, 1, 1), (3, 3), -2), (XOR.table, (1, 2), 3),
        ((1, 1, 1, 0), (1, 2), 5), ((1, 1, 1, 0), (1, 3), 0),
        ((1, 1, 1, 0), (2, 1), -1), (XOR.table, (2, 1), 0)]
    assert emit_instance(lazy).splitlines()[1:4] == ["ONE 4", "OR2 -2 3 3", "XOR 3 1 2"]


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
    phi = Formula(2, (Application(OR2, (1, 2), 5),), "N", 0)
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
    apps = tuple(Application(XOR, e, 1) for e in ((1, 2), (2, 3), (1, 3)))
    phi = Formula(3, apps, "N", 0)
    assert decide(phi, 2) and not decide(phi, 3)
    assert decide(phi, -phi.total_weight - 1)


def test_decide_exact():
    phi = Formula(2, (Application(XOR, (1, 2), 2),), "N", 0)
    assert not decide_exact(phi, 1)  # values are 0 or 2
    assert decide_exact(phi, 2) and decide_exact(phi, 0)


def test_check_equivalence_modes():
    phi = Formula(2, (Application(XOR, (1, 2), 2),), "N", 2)
    assert check_equivalence(phi, 2, phi, 2, "geq")
    assert check_equivalence(phi, 2, phi, 2, "eq")
    # corrupting the threshold on a tight instance breaks both
    assert not check_equivalence(phi, 2, phi, 3, "geq")
    assert not check_equivalence(phi, 2, phi, 3, "eq")


def test_cap_exceeded():
    phi = empty_formula(30)
    phi = Formula(30, (Application(XOR, (1, 2), 1),), "N", 0)
    with pytest.raises(CapExceededError):
        brute_force(phi, cap=24)


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
    repeated = (Application(OR2, (3, 1), 4), Application(OR2, (2, 2), -3),
                Application(XOR, (3, 3), 7), Application(F, (2,), -2),
                Application(Constraint("K", 0, (1,)), (), 2))
    for phi, t in (
            (empty_formula(1), 0),
            (empty_formula(4, threshold=1), 1),
            (Formula(1, (Application(T, (1,), -2), Application(F, (1,), 5)),
                     "Z", 5), 5),
            (Formula(3, repeated, "Z", 1), 2),
            # ||phi|| >= 2**62: values are exact Python ints
            (Formula(3, (Application(XOR, (1, 3), big),
                         Application(OR2, (3, 2), big + 1),
                         Application(T, (2,), -3 * big)), "Z", big + 1),
             big + 1)):
        _assert_matches_reference(phi, t)


def test_oracle_blocks_over_top_variables():
    # 22 variables: two blocks of 2**20 entries per setting of x1, x2.
    # Unit T on x1 and x22, unit F on the rest: the unique maximizer is
    # 1 0...0 1 with value 22.
    apps = [Application(T, (1,), 1), Application(T, (22,), 1)]
    apps += [Application(F, (i,), 1) for i in range(2, 22)]
    phi = Formula(22, tuple(apps), "N", 22)
    res = brute_force(phi)
    assert res.optimum == 22 and res.exact
    assert res.witness == (1,) + (0,) * 20 + (1,)
    assert decisions(phi, 23) == (False, False)
    # Unit F on x1 as well ties x1 = 0 with x1 = 1; the tie goes to the
    # first block.
    tied = phi.replace(applications=phi.applications + (Application(F, (1,), 1),))
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
    broadcasting.  Its blocks are this array's 2**20-entry slices."""
    n = phi.nvars
    values = np.zeros((2,) * n, dtype=np.int64)
    for a in phi.applications:
        support = sorted(set(a.indices))
        table = np.zeros((2,) * len(support), dtype=np.int64)
        for bits in itertools.product((0, 1), repeat=len(support)):
            x = dict(zip(support, bits))
            table[bits] = a.weight * a.constraint.table[
                int("".join(str(x[i]) for i in a.indices) or "0", 2)]
        values += table.reshape([2 if v in support else 1 for v in range(1, n + 1)])
    return values.reshape(-1)


def test_oracle_two_blocks_match_reference():
    # 21 variables: two blocks, each built from the monomials whose x1 part
    # lies inside the block's setting of x1.
    rng = random.Random(2021)
    for name in ("3sat", "nae3lit"):
        phi = random_formula(builtin_language(name), 21, 63, "Z",
                             seed=rng.randrange(10 ** 9))
        blocks = list(maxcsp.solver._value_blocks(phi, 24))
        assert [start for start, _ in blocks] == [0, 1 << 20]
        for start, flat in blocks:
            for i in rng.sample(range(len(flat)), 40):
                assert flat[i] == phi.value(row_to_bits(start + i, 21))
        ref = _broadcast_values(phi)
        assert np.array_equal(np.concatenate([flat for _, flat in blocks]), ref)
        res = brute_force(phi)
        assert res.optimum == ref.max()
        assert res.witness == row_to_bits(int(ref.argmax()), 21)
        assert res.exact == bool((ref == phi.threshold).any())


def test_oracle_exact_when_partial_sums_pass_int64():
    # ||phi|| < 2**62, but EX3's x1x2x3 coefficient is 3 * w > 2**63, so the
    # blocks hold Python ints.  A cancelling unary term keeps ||phi|| low.
    w = 3 * (1 << 60) - 5
    phi = Formula(4, (Application(ex_constraint(3), (2, 1, 3), w),
                      Application(T, (1,), 7 - (1 << 60)),
                      Application(XOR, (3, 4), 3)), "Z", w)
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
    return Formula(4, (Application(ex_constraint(3), (2, 1, 3), w),
                       Application(T, (1,), 7 - s),
                       Application(XOR, (3, 4), norm - 4 * s + 12)), "Z", w)


def test_oracle_block_width_edges():
    # Blocks are int32 while 2**kmax * ||phi|| < 2**30, else int64 (below
    # 2**62).  XOR3's x1x2x3 coefficient is 4 * ||phi|| = 2**29 - 4.
    top = 1 << 30
    for phi, dtype, coeff_max in (
            (_ex3_at_norm(1 << 25, (top >> 3) - 1), np.int32, 9 * (1 << 25) - 15),
            (Formula(3, (Application(xor_constraint(3), (3, 1, 2), (top >> 3) - 1),),
                     "Z", 1), np.int32, (top >> 1) - 4),
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
                assert max(a.constraint.arity for a in phi.applications) >= 4
                _assert_matches_reference(phi, rng.randint(-8, 8))


def _reference_blocks(phi):
    """phi's value blocks as the one-array build made them: every kept
    coefficient scattered into a zeroed 2**20-entry block, then one
    subset-sum pass per bit over the whole block."""
    n = phi.nvars
    coeffs, kmax = maxcsp.solver._coefficients(phi)
    bound = phi.total_weight << kmax
    dtype = np.int32 if bound < 1 << 30 else np.int64 if bound < 1 << 62 else object
    low = min(n, 20)
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
        empty = Formula(nvars, (), "Z")
        assert not _row_heads(empty)
        _assert_blocks_match_reference(empty)
    # x1 AND x_v for every v in the low bits: every monomial is x1 x_v, in
    # the one row whose head is x1's bit.
    single = Formula(n, tuple(Application(AND2, (1, v), v - 3)
                              for v in range(5, n + 1)), "N")
    assert _row_heads(single) == {1 << 3}
    _assert_blocks_match_reference(single)
    # The AND of every nonempty subset of x1..x4, and F on x_n for the
    # constant: the four row bits take every setting.
    apps = [Application(and_constraint(k), vs, sum(vs)) for k in range(1, 5)
            for vs in itertools.combinations(range(1, 5), k)]
    apps += [Application(F, (n,), 5), Application(XOR, (n - 1, n), -2)]
    every = Formula(n, tuple(apps), "Z")
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
            a0 = phi.applications[0]
            phi2 = Formula(nvars, tuple(a._replace(weight=k * a.weight)
                                        for a in phi.applications)
                           + (Application(T, (1,), c), Application(F, (1,), c),
                              a0, a0._replace(weight=-a0.weight)), "Z")
            other = random_formula(lang, nvars, 2 * nvars + 2, "Z", max_weight=9,
                                   seed=rng.randrange(10 ** 9))
            bumped = phi2.replace(applications=phi2.applications[1:] + (
                phi2.applications[0]._replace(
                    weight=phi2.applications[0].weight + 1),))
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
        affine_holds(Formula(2, ()), Formula(3, ()), 1, 0)


def test_oracle_coefficients_match_formula_polynomial():
    # Two independent routes to phi's monomial coefficients: the oracle's
    # folded Moebius tables and the characteristic polynomials.
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
                    for mask, c in coeffs.items()} == formula_polynomial(phi).terms
            assert kmax == max(len(set(a.indices)) for a in phi.applications)


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
    assert a == b
    assert a != random_formula(lang, 6, 10, "Z", seed=100)
