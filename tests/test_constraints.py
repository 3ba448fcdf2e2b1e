"""Truth tables, classification, patterns, closures."""

import functools
import itertools
import random
import time

import pytest

from maxcsp import constraints
from maxcsp.constraints import (CLOSURE_ARITY_CAP, MODE_LIT, MODE_NEG,
                                MODE_TF, TABLE_ARITY_CAP, Constraint,
                                ConstraintLanguage, SubstitutionPattern,
                                apply_pattern, classify, classify_language,
                                closure, identity_pattern, literal_variant,
                                make_constraint, nae_constraint, or_constraint,
                                and_constraint, xor_constraint, ex_constraint,
                                eq_constraint, dicut_constraint, recover_pattern,
                                recursive_nae, standard_constraint, T, F)
from maxcsp.errors import CapExceededError, FormatError, PreconditionError
from maxcsp.languages import CATALOG_LANGUAGE_KEYS, builtin_language


def test_make_constraint_or2():
    c = make_constraint("OR2", 2, {"01", "10", "11"})
    assert c.table == (0, 1, 1, 1)


def test_make_constraint_xor():
    assert make_constraint("XOR", 2, {"01", "10"}).table == (0, 1, 1, 0)


def test_make_constraint_f_is_negation():
    # F(x) = NOT x
    assert make_constraint("F", 1, {"0"}).table == (1, 0)
    assert F.table == (1, 0) and T.table == (0, 1)


def test_make_constraint_duplicate_rows_idempotent():
    a = make_constraint("c", 2, ["01", "01", "11"])
    b = make_constraint("c", 2, ["01", "11"])
    assert a == b


def test_make_constraint_bad_width():
    with pytest.raises(FormatError):
        make_constraint("c", 2, ["011"])
    with pytest.raises(FormatError):
        make_constraint("c", 2, [(0, 1, 1)])


def test_constraint_table_length_checked():
    with pytest.raises(FormatError):
        Constraint("bad", 2, (0, 1, 1))


def test_table_arity_cap_refuses_before_building(monkeypatch):
    # Past the cap no table is built: Constraint never sees such an arity.
    built = []
    monkeypatch.setattr(constraints, "Constraint",
                        lambda name, arity, table: built.append(arity))
    wide = TABLE_ARITY_CAP + 1
    for name in ("OR", "AND", "NAE", "XOR", "EX"):
        with pytest.raises(CapExceededError,
                           match=f"{name}{wide}: arity {wide} exceeds truth-table cap"):
            standard_constraint(f"{name}{wide}")
    with pytest.raises(CapExceededError, match="RNAE3: arity 27 exceeds truth-table cap"):
        standard_constraint("RNAE3")
    # A suffix past the cap's digits is refused before an int is built.
    for name in ("RNAE9999", "OR" + "1" * 5000, "EX" + "0" * 5000 + "100"):
        with pytest.raises(CapExceededError, match="-digit suffix exceeds truth-table cap"):
            standard_constraint(name)
    assert standard_constraint("EX" + "0" * 5000 + "3") == ex_constraint(3)
    with pytest.raises(CapExceededError, match="A: arity 40 exceeds"):
        make_constraint("A", 40, [])
    assert built and max(built) <= TABLE_ARITY_CAP


def test_table_arity_cap_admits_the_cap(monkeypatch):
    monkeypatch.setattr(constraints, "TABLE_ARITY_CAP", 3)
    for build in (or_constraint, and_constraint, nae_constraint, xor_constraint,
                  ex_constraint):
        assert build(3).arity == 3
        with pytest.raises(CapExceededError):
            build(4)
    assert make_constraint("A", 3, ["101"]).table == (0,) * 5 + (1, 0, 0)
    with pytest.raises(CapExceededError):
        make_constraint("A", 4, ["1011"])


def test_classify_xor():
    flags = classify(xor_constraint(2))
    assert not flags.zero_valid and not flags.one_valid
    assert flags.c_closed and flags.symmetric
    assert not flags.two_monotone and not flags.trivial


def test_classify_and2_witness():
    flags = classify(and_constraint(2))
    assert flags.two_monotone
    assert flags.two_monotone_witness == ((1, 2), ())


def test_classify_nae3():
    flags = classify(nae_constraint(3))
    assert flags.c_closed and flags.symmetric
    assert not flags.zero_valid and not flags.one_valid
    assert not flags.two_monotone


def test_classify_eq_needs_overlapping_sets():
    # EQ = (x1 AND x2) OR (~x1 AND ~x2): the two index sets coincide.
    flags = classify(eq_constraint())
    assert flags.two_monotone
    p, q = flags.two_monotone_witness
    assert set(p) & set(q)


def test_classify_trivial_constants():
    ones = Constraint("one", 2, (1, 1, 1, 1))
    zeros = Constraint("zero", 2, (0, 0, 0, 0))
    assert classify(ones).trivial and classify(zeros).trivial
    assert classify(ones).two_monotone
    assert not classify(zeros).two_monotone


def _searched_witness(arity, table):
    """The first (P, Q) in (P mask, Q mask) order, P-only before any Q,
    with f == (AND_P x) OR (AND_Q ~x), found by trying all 4**arity pairs:
    the reference the classifier's direct reading must reproduce."""
    rows = 1 << arity
    fmask = sum(v << r for r, v in enumerate(table))
    pos, neg = _term_row_masks(arity)

    def vars_of(mask):
        return tuple(arity - b for b in range(arity - 1, -1, -1) if mask >> b & 1)

    for pmask in range(rows):
        base = pos[pmask] if pmask else 0
        if pmask and base == fmask:
            return (vars_of(pmask), ())
        for qmask in range(1, rows):
            if base | neg[qmask] == fmask:
                return (vars_of(pmask), vars_of(qmask))
    return None


@functools.lru_cache(maxsize=None)
def _term_row_masks(arity):
    """For each mask m, the rows containing m and the rows missing m, each
    as a bit set over the rows."""
    rows = range(1 << arity)
    return ([sum(1 << r for r in rows if r & m == m) for m in rows],
            [sum(1 << r for r in rows if not r & m) for m in rows])


def _symmetric_by_popcount(table):
    """The reference for the symmetric flag: the set of values at each row
    weight, each of which must hold one value."""
    by_popcount = {}
    for r, v in enumerate(table):
        by_popcount.setdefault(bin(r).count("1"), set()).add(v)
    return all(len(vals) == 1 for vals in by_popcount.values())


def _random_index_set(rng, arity):
    """An index mask that is empty, a single bit or uniform, a third each,
    so absent terms and the single-bit cases of the reading come up often."""
    kind = rng.randrange(3)
    return (0, 1 << rng.randrange(arity), rng.randrange(1 << arity))[kind]


def test_two_monotone_reading_matches_the_pair_search(monkeypatch):
    # Half the tables are (AND_P x) OR (AND_Q ~x) by construction; the other
    # half flip one row of such a table or are uniform, a quarter each.
    rng = random.Random("two-monotone-reading")
    cases = []
    for arity, count in ((5, 300), (6, 250), (7, 200), (8, 150), (9, 70), (10, 30)):
        for i in range(count):
            p = q = 0
            while not p | q:
                p, q = _random_index_set(rng, arity), _random_index_set(rng, arity)
            table = [int(bool(p) and r & p == p or bool(q) and not r & q)
                     for r in range(1 << arity)]
            if i % 4 == 1:
                table[rng.randrange(1 << arity)] ^= 1
            elif i % 4 == 3:
                table = [rng.randrange(2) for _ in table]
            cases.append(Constraint("c", arity, tuple(table)))
    assert len(cases) >= 1000
    read = [classify(c) for c in cases]
    assert all(flags.two_monotone for flags in read[::2])
    symmetric = [_symmetric_by_popcount(c.table) for c in cases]
    assert [flags.symmetric for flags in read] == symmetric and any(symmetric)
    monkeypatch.setattr(constraints, "_two_monotone_witness", _searched_witness)
    assert [classify(c) for c in cases] == read


def test_two_monotone_reading_agrees_on_every_small_table():
    # The symmetric flag is checked against its reference on the same walk.
    for arity in range(5):
        for packed in range(1 << (1 << arity)):
            table = tuple((packed >> r) & 1 for r in range(1 << arity))
            assert (constraints._two_monotone_witness(arity, table)
                    == _searched_witness(arity, table))
            assert (classify(Constraint("c", arity, table)).symmetric
                    == _symmetric_by_popcount(table))


def test_classify_16_ary_members_without_a_pair_search():
    rng = random.Random(16)
    members = (and_constraint(16), or_constraint(16), nae_constraint(16),
               Constraint("R16", 16, tuple(rng.randrange(2) for _ in range(1 << 16))))
    for c in members:
        start = time.perf_counter()
        flags = classify(c)
        assert time.perf_counter() - start < 1.0, c.name
        assert flags.two_monotone == (c.name == "AND16")
    assert classify(members[0]).two_monotone_witness == (tuple(range(1, 17)), ())


def test_classify_symmetric_invariant_under_permutation():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 4)
        table = tuple(rng.randint(0, 1) for _ in range(1 << k))
        c = Constraint("c", k, table)
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        permuted = apply_pattern(c, SubstitutionPattern(k, tuple(perm)))
        assert classify(c).symmetric == classify(permuted).symmetric


def test_c_closed_matches_negation():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 4)
        c = Constraint("c", k, tuple(rng.randint(0, 1) for _ in range(1 << k)))
        assert classify(c).c_closed == classify(c.negation()).c_closed


def test_classify_language_verdicts():
    assert classify_language(builtin_language("xor")).verdict == "np_hard"
    and2t = builtin_language("and2t")
    rep = classify_language(and2t)
    assert rep.verdict == "poly_time_solvable" and rep.two_monotone
    or2 = builtin_language("or2")
    rep = classify_language(or2)
    assert rep.verdict == "poly_time_solvable" and rep.one_valid
    trivial = ConstraintLanguage("triv", (Constraint("one", 1, (1, 1)),))
    assert classify_language(trivial).verdict == "poly_time_solvable"


def test_classify_language_is_memoized():
    xor = builtin_language("xor")
    assert classify_language(xor) is classify_language(builtin_language("xor"))


def test_language_lookups_by_name_and_table():
    # Two members share a table: the first in name order answers by_table.
    lang = ConstraintLanguage("dup", (Constraint("ZOR", 2, (0, 1, 1, 1)),
                                      Constraint("OR2", 2, (0, 1, 1, 1)),
                                      Constraint("AOR", 2, (0, 1, 1, 1)),
                                      xor_constraint(2)))
    assert lang.by_table(2, (0, 1, 1, 1)).name == "AOR"
    assert lang.by_table(2, (0, 1, 1, 0)) == xor_constraint(2)
    assert lang.by_table(2, (1, 0, 0, 0)) is None
    assert lang.by_table(1, (0, 1)) is None
    assert lang.get("OR2").name == "OR2"
    with pytest.raises(KeyError, match="no constraint named 'NOPE' in language 'dup'"):
        lang.get("NOPE")


def test_apply_pattern_nae3_to_or2():
    g = apply_pattern(nae_constraint(3),
                      SubstitutionPattern(2, (1, 2, "0")))
    assert g.table == or_constraint(2).table


def test_apply_pattern_or3_negated_slot():
    g = apply_pattern(or_constraint(3),
                      SubstitutionPattern(3, (1, 2, -3)))
    # x1 OR x2 OR ~x3 fails only at (0, 0, 1)
    assert g.table == (1, 0, 1, 1, 1, 1, 1, 1)


def test_apply_pattern_identity():
    c = nae_constraint(3)
    g = apply_pattern(c, SubstitutionPattern(3, (1, 2, 3)))
    assert g.table == c.table


def test_apply_pattern_errors():
    with pytest.raises(FormatError):
        SubstitutionPattern(2, (1, 3))  # variable beyond arity
    with pytest.raises(FormatError):
        apply_pattern(or_constraint(2), SubstitutionPattern(2, (1, 2, 1)))


def test_closure_neg_adds_complement():
    lang = closure(builtin_language("xor"), MODE_NEG)
    tables = {c.table for c in lang}
    assert (0, 1, 1, 0) in tables and (1, 0, 0, 1) in tables
    assert len(lang.constraints) == 2


def test_closure_lit_or2():
    lang = closure(builtin_language("or2"), MODE_LIT)
    tables = {c.table for c in lang if c.arity == 2}
    assert {(0, 1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0)} <= tables
    # identification gives the unary members of Gamma_2-SAT
    assert T.table in {c.table for c in lang if c.arity == 1}


def test_closure_tf_contains_trivial_constants():
    lang = closure(builtin_language("or2"), MODE_TF)
    assert any(c.arity == 0 for c in lang)


@pytest.mark.parametrize("mode", [MODE_TF, MODE_LIT, MODE_NEG])
@pytest.mark.parametrize("key", ["xor", "nae3", "ex3", "or2", "dicut"])
def test_closure_idempotent(key, mode):
    once = closure(builtin_language(key), mode)
    twice = closure(once, mode)
    assert once.signatures() == twice.signatures()


@pytest.mark.parametrize("mode", [MODE_TF, MODE_LIT, MODE_NEG])
def test_closure_keeps_members_with_equal_tables(mode):
    xor = xor_constraint(2)
    dup = ConstraintLanguage("dup", (Constraint("B", 2, xor.table),
                                     Constraint("A", 2, xor.table)))
    once = closure(dup, mode)
    assert once.get("A").table == once.get("B").table == xor.table
    assert once.by_table(2, xor.table).name == "A"
    single = closure(ConstraintLanguage("dup", (dup.get("A"),)), mode)
    assert once.signatures() == single.signatures()
    assert {c.name for c in once} == {c.name for c in single} | {"B"}
    assert recover_pattern(dup, once.get("B"), mode) == (
        dup.get("A"), identity_pattern(2))


def test_closure_arity_cap():
    big = ConstraintLanguage("big", (nae_constraint(9),))
    with pytest.raises(CapExceededError):
        closure(big, MODE_TF)


@pytest.mark.parametrize("key", ["2sat", "3sat", "nae3lit"])
def test_closure_builds_only_kept_members(key, monkeypatch):
    # Every other pattern is compared by its table alone.
    lang = builtin_language(key)
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_pattern(*args)
    constraints._sources.cache_clear()
    closure.cache_clear()
    monkeypatch.setattr(constraints, "apply_pattern", counting)
    members = closure(lang, MODE_TF)
    assert len(calls) == len(members.constraints) - len(lang.constraints) > 0


def test_literal_variant_count_invariant():
    # For every assignment, the number of S with f^S(x) = 1 is |f|.
    catalog = [T, F, xor_constraint(2), nae_constraint(3), ex_constraint(3),
               or_constraint(2), or_constraint(3), and_constraint(2),
               dicut_constraint(), nae_constraint(4), xor_constraint(4),
               ex_constraint(5), nae_constraint(6)]
    for c in catalog:
        k = c.arity
        variants = [literal_variant(c, frozenset(s))
                    for r in range(k + 1)
                    for s in itertools.combinations(range(1, k + 1), r)]
        for row in range(1 << k):
            bits = [(row >> (k - 1 - i)) & 1 for i in range(k)]
            assert sum(v.value(bits) for v in variants) == c.satisfying_count()


def test_recover_pattern_reads_the_closure_sources(monkeypatch):
    lang = ConstraintLanguage("ex4", (ex_constraint(4),))
    members = closure(lang, MODE_LIT).constraints
    recover_pattern.cache_clear()

    def no_search(*args):
        raise AssertionError("recover_pattern applied a pattern")
    monkeypatch.setattr(constraints, "apply_pattern", no_search)
    for member in members:
        assert recover_pattern(lang, member, MODE_LIT)[0] == lang.get("EX4")


def _first_pattern(language, target, mode):
    """Reference for recover_pattern: the first member by name with target's
    table under the identity, else the first surjective slot tuple over the
    name-sorted members, in itertools.product order."""
    d = target.arity
    for f in sorted(language, key=lambda c: c.name):
        if f.table == target.table:
            return f, identity_pattern(d)
    variables = list(range(1, d + 1))
    if mode == MODE_TF:
        alphabet = variables + ["0", "1"]
    else:
        alphabet = variables + [-i for i in variables]
    for f in sorted(language, key=lambda c: c.name):
        for slots in itertools.product(alphabet, repeat=f.arity):
            if {abs(s) for s in slots if isinstance(s, int)} != set(variables):
                continue
            pattern = SubstitutionPattern(d, slots)
            if apply_pattern(f, pattern).table == target.table:
                return f, pattern
    return None


def test_recover_pattern_round_trip():
    lang = builtin_language("ex3")
    base = lang.get("EX3")
    for slots in [(1, 2, "0"), ("1", "0", 1), (1, 1, 2), ("0", "0", "1")]:
        arity = max((s for s in slots if isinstance(s, int)), default=0)
        target = apply_pattern(base, SubstitutionPattern(arity, slots))
        f, pat = recover_pattern(lang, target, MODE_TF)
        assert apply_pattern(f, pat).table == target.table
    # Every closure member resolves to the reference's first match.
    languages = [builtin_language(k) for k in CATALOG_LANGUAGE_KEYS]
    languages.append(ConstraintLanguage("ex4", (ex_constraint(4),)))
    for lang in languages:
        for mode in (MODE_TF, MODE_LIT):
            for member in closure(lang, mode):
                found = recover_pattern(lang, member, mode)
                assert found == _first_pattern(lang, member, mode)
                assert apply_pattern(*found).table == member.table
    # Past the closure cap only direct members resolve; no pattern search.
    wide = ConstraintLanguage("wide", (recursive_nae(2), xor_constraint(2)))
    assert recover_pattern(wide, wide.get("RNAE2"), MODE_TF) == (
        wide.get("RNAE2"), identity_pattern(9))
    with pytest.raises(CapExceededError, match=f"cap {CLOSURE_ARITY_CAP}"):
        recover_pattern(wide, T, MODE_TF)
    with pytest.raises(PreconditionError, match="not expressible"):
        recover_pattern(builtin_language("xor"), or_constraint(2), MODE_LIT)
