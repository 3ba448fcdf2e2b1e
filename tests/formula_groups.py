"""Test fixtures: a Formula from (constraint, indices, weight) triples, and
a formula's triples read back in canonical order."""

from maxcsp.formulas import Formula
from maxcsp.transforms import compress_to_polynomial


def from_triples(nvars, triples, weight_range="N", threshold=0):
    """The Formula whose column groups hold the triples, one entry each."""
    groups = {}
    for c, indices, w in triples:
        column = groups.setdefault(c, ([], []))
        column[0].append(indices)
        column[1].append(w)
    return Formula(nvars, groups, weight_range, threshold)


def triples(phi):
    """phi's (constraint, indices, weight) triples by name, indices, weight."""
    return [(c, i, w) for c, pairs in phi.sorted_groups() for i, w in pairs]


def canonical(phi):
    """What tells two formulas apart: nvars, weight range, threshold and
    the triples."""
    return phi.nvars, phi.weight_range, phi.threshold, triples(phi)


def polynomial_terms(phi):
    """phi's monomial coefficients, the constant under frozenset(), as the
    compression gives them: its threshold is phi's less the constant."""
    compact = compress_to_polynomial(phi)
    const = phi.threshold - compact.threshold
    return {**compact.polynomial.terms, **({frozenset(): const} if const else {})}
