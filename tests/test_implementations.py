"""Implementation verification, search, catalog."""

import pytest

from maxcsp import implementations
from maxcsp.errors import CapExceededError
from maxcsp.constraints import (MODE_LIT, MODE_TF, ConstraintLanguage,
                                classify_language, closure, dicut_constraint,
                                ex_constraint, literal_variant, nae_constraint,
                                or_constraint, xor_constraint, T, F)
from maxcsp.implementations import (Implementation, catalog,
                                    search_implementation,
                                    verify_implementation)
from maxcsp.io_formats import emit_implementation, parse_implementation
from maxcsp.languages import NP_HARD_LANGUAGE_KEYS, builtin_language

XOR = xor_constraint(2)


def _reference_catalog():
    """The eleven catalog rows before the seven that the search finds by
    itself were deleted: the reference the trimmed catalog must answer as."""
    or2 = or_constraint(2)
    or2nn = literal_variant(or2, {1, 2})      # ~x OR ~y
    nae3, ex3, dicut = nae_constraint(3), ex_constraint(3), dicut_constraint()
    return (
        (XOR, 0, ((or2, (1, 2)), (or2nn, (1, 2)))),
        (XOR, 0, ((nae3, (1, 2, 2)),)),
        (XOR, 2, ((ex3, (1, 2, 3)), (ex3, (3, 3, 4)))),
        (XOR, 0, ((XOR, (1, 2)),)),
        (XOR, 0, ((dicut, (1, 2)), (dicut, (2, 1)))),
        (T, 0, ((or2, (1, 1)),)),
        (T, 1, ((ex3, (1, 2, 2)),)),
        (T, 1, ((dicut, (1, 2)),)),
        (F, 0, ((or2nn, (1, 1)),)),
        (F, 1, ((ex3, (1, 1, 2)),)),
        (F, 1, ((dicut, (2, 1)),)),
    )


REFERENCE_CATALOG = _reference_catalog()


def test_verify_refuses_more_variables_than_the_oracle_cap():
    # The check runs over 2**(p+q) assignments: past the cap it is refused
    # before any of them is evaluated.
    impl = Implementation(XOR, 2, 30, ((XOR, (1, 2)),), None, None)
    with pytest.raises(CapExceededError, match="32 variables exceeds oracle cap 24"):
        verify_implementation(impl)


def test_verify_xor_from_or_pair():
    or2 = or_constraint(2)
    or2nn = literal_variant(or2, {1, 2})
    res = verify_implementation(
        Implementation(XOR, 2, 0, ((or2, (1, 2)), (or2nn, (1, 2))), None, None))
    assert res.valid and res.alpha == 2 and res.strict


def test_verify_self_implementation():
    impl = search_implementation(ConstraintLanguage("t", (T,)), T)
    assert impl.applications == ((T, (1,)),) and impl.aux_count == 0
    assert impl.alpha == 1 and impl.strict


def test_verify_rejects_single_or():
    # only {x OR y}: condition 3 fails at x = y = 1
    probe = Implementation(XOR, 2, 0, ((or_constraint(2), (1, 2)),), 1, False)
    res = verify_implementation(probe)
    assert not res.valid


def test_search_2sat_finds_two_application_implementation():
    impl = search_implementation(builtin_language("2sat"), XOR)
    assert impl is not None and impl.alpha == 2 and impl.aux_count == 0
    assert len(impl.applications) == 2
    assert verify_implementation(impl).valid


def test_search_xor_self():
    impl = search_implementation(builtin_language("xor"), XOR)
    assert impl.alpha == 1 and len(impl.applications) == 1


def test_search_nae3_within_spec_caps_without_catalog(monkeypatch):
    # The raw bounded search, with the catalog emptied; the memo is cleared
    # on both sides so no answer crosses the patch.
    monkeypatch.setattr(implementations, "catalog", lambda: ())
    search_implementation.cache_clear()
    impl = search_implementation(builtin_language("nae3"), XOR,
                                 max_aux=1, max_apps=3)
    search_implementation.cache_clear()
    assert impl is not None and impl.strict
    res = verify_implementation(impl)
    assert res.valid and res.alpha == impl.alpha


def test_search_not_found_is_a_value():
    # {XOR} is C-closed, so T has no implementation at any cap
    assert search_implementation(builtin_language("xor"), T,
                                 max_aux=1, max_apps=2) is None


@pytest.mark.parametrize("key", ["xor", "e2lin", "nae3", "nae3lit"])
def test_c_closed_language_answers_a_non_c_closed_target_without_a_candidate(
        key, monkeypatch):
    # Each gadget over a C-closed language has the same maxima on x and ~x,
    # so T and F are not-found before any candidate is checked (nae3lit T
    # at the default caps would walk millions of multisets).
    def no_candidate(*args):
        raise AssertionError("a candidate was checked")

    search_implementation.cache_clear()
    monkeypatch.setattr(implementations, "_satisfied_counts", no_candidate)
    for target in (T, F):
        assert search_implementation(builtin_language(key), target) is None


def test_catalog_all_verified_strict():
    # The reference rows, so that the deleted gadgets stay verified too.
    assert set(catalog()) <= set(REFERENCE_CATALOG)
    for target, q, apps in REFERENCE_CATALOG:
        res = verify_implementation(
            Implementation(target, target.arity, q, apps, None, None))
        assert res.valid and res.strict


@pytest.mark.parametrize("caps", [{}, {"max_aux": 1, "max_apps": 2}])
def test_trimmed_catalog_answers_as_the_reference(caps, monkeypatch):
    # Each NP-hard catalog language and its TF and LIT closures, searched
    # for XOR, T and F with the trimmed catalog and with the reference rows
    # patched in; the memo is cleared on both sides of the patch.
    assert len(catalog()) == 4
    bases = [builtin_language(key) for key in NP_HARD_LANGUAGE_KEYS]
    languages = [lang for base in bases
                 for lang in (base, closure(base, MODE_TF), closure(base, MODE_LIT))]
    cases = [(lang, target) for lang in languages for target in (XOR, T, F)]
    search_implementation.cache_clear()
    trimmed = [search_implementation(lang, target, **caps) for lang, target in cases]
    monkeypatch.setattr(implementations, "catalog", lambda: REFERENCE_CATALOG)
    search_implementation.cache_clear()
    reference = [search_implementation(lang, target, **caps) for lang, target in cases]
    search_implementation.cache_clear()
    assert trimmed == reference
    assert all(impl is not None for impl in trimmed[::3])


@pytest.mark.parametrize("key", NP_HARD_LANGUAGE_KEYS)
def test_np_hard_languages_strictly_implement_xor(key):
    # the constructive content of the hardness lemma, at desk scale
    lang = builtin_language(key)
    impl = search_implementation(lang, XOR)
    assert impl is not None and impl.strict
    assert verify_implementation(impl).valid
    lang_tables = {c.signature() for c in lang}
    assert all(c.signature() in lang_tables for c, _ in impl.applications)


@pytest.mark.parametrize("key", ["2sat", "3sat", "ex3", "dicut"])
def test_non_c_closed_languages_implement_t_and_f(key):
    lang = builtin_language(key)
    report = classify_language(lang)
    assert not (report.zero_valid or report.one_valid or report.c_closed)
    for target in (T, F):
        impl = search_implementation(lang, target)
        assert impl is not None and impl.strict


def test_implementation_round_trip():
    lang = builtin_language("nae3")
    impl = search_implementation(lang, XOR)
    text = emit_implementation(impl)
    parsed = parse_implementation(text, lang, XOR)
    assert parsed.applications == impl.applications
    res = verify_implementation(parsed)
    assert res.valid and res.alpha == impl.alpha and res.strict == impl.strict
