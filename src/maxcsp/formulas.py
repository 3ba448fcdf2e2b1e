"""Weighted constraint systems (formulas).

A formula is a multiset of weighted constraint applications over variables
1..nvars, tagged with a weight range ("Z" or "N") and a decision threshold.
It is its constraint groups: one group per constraint, either an index
column and a weight column, one entry per application, as the parser and
the random generator write them, or the {indices: weight} dict a reduction
adds its output weights into, which merges repeated (constraint, indices)
pairs; nothing else merges them.  Distinct constraints may not share a
name, so the name orders the groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dataclass_replace
from itertools import chain
from typing import Sequence

from .constraints import ConstraintLanguage, bits_to_row
from .errors import FormatError

RANGE_Z = "Z"
RANGE_N = "N"


@dataclass(frozen=True, eq=False)
class Formula:
    """`weights` is a constraint -> group dict, kept by the formula (do not
    change it), where a group is an {indices: weight} dict or a pair of
    (indices, weights) columns.  Formulas compare by identity."""
    nvars: int
    weights: dict = field(repr=False)
    weight_range: str = RANGE_N
    threshold: int = 0
    # |phi|, the number of applications, and ||phi||, the sum of absolute
    # weights: counted once by __post_init__.
    size: int = field(init=False, repr=False)
    total_weight: int = field(init=False, repr=False)
    # (constraint, indices, weights) triples, one per group, in no set order.
    groups: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.nvars < 1:
            raise FormatError("formula needs at least one variable")
        if self.weight_range not in (RANGE_Z, RANGE_N):
            raise FormatError(f"weight range must be Z or N, got {self.weight_range!r}")
        names = [c.name for c in self.weights]
        if len(set(names)) < len(names):
            shared = min(name for name in names if names.count(name) > 1)
            raise FormatError(f"distinct constraints share the name {shared!r}")
        groups = tuple((c, g.keys(), g.values()) if isinstance(g, dict) else (c, *g)
                       for c, g in self.weights.items())
        vars(self).update(groups=groups, size=sum(len(g[2]) for g in groups),
                          total_weight=_checked(groups, self.nvars, self.weight_range == RANGE_N))

    def sorted_groups(self):
        """(constraint, (indices, weight) pairs, to be read once) per group:
        by name, then by indices and weight."""
        return [(c, zip(keys := sorted(g), map(g.__getitem__, keys)) if isinstance(g, dict)
                 else sorted(zip(*g))) for c, g in sorted(self.weights.items(),
                                                          key=lambda cg: cg[0].name)]

    def value(self, bits: Sequence[int]) -> int:
        """phi(x): total weight of applications satisfied by the assignment."""
        if len(bits) != self.nvars:
            raise FormatError(f"assignment has {len(bits)} bits, need {self.nvars}")
        return sum(w * c.table[bits_to_row([bits[i - 1] for i in idx])]
                   for c, indices, weights in self.groups
                   for idx, w in zip(indices, weights))

    replace = dataclass_replace


def _checked(groups: tuple, n: int, nonneg: bool) -> int:
    """The sum of |weight| over the groups, checked for a wrong arity, an
    index outside 1..n and, under N, a negative weight: one pass in C per
    check, the arity per group; _name_fault names a fault."""
    weights = [g[2] for g in groups]
    used = set(chain.from_iterable(chain.from_iterable(g[1] for g in groups)))
    if (any(set(map(len, indices)) - {c.arity} for c, indices, _ in groups)
            or used and not 1 <= min(used) <= max(used) <= n
            or nonneg and min(chain.from_iterable(weights), default=0) < 0):
        _name_fault(groups, n, nonneg)
    return sum(map(abs, chain.from_iterable(weights)))


def _name_fault(groups: tuple, n: int, nonneg: bool) -> None:
    """Refuse the first faulty entry by name, indices and weight."""
    entries = ((c, i, w) for c, indices, weights in groups for i, w in zip(indices, weights))
    for c, indices, w in sorted(entries, key=lambda e: (e[0].name, *e[1:])):
        if len(indices) != c.arity:
            raise FormatError(f"{c.name} has arity {c.arity}, got indices {indices}")
        for i in indices:
            if not 1 <= i <= n:
                raise FormatError(
                    f"index {i} out of range 1..{n} in application of {c.name}")
        if nonneg and w < 0:
            raise FormatError(
                f"weight range violation: negative weight {w} "
                f"under N for {c.name}{indices}")


def empty_formula(nvars: int = 1, weight_range: str = RANGE_N,
                  threshold: int = 0) -> Formula:
    return Formula(nvars, {}, weight_range, threshold)


def random_formula(language: ConstraintLanguage, nvars: int, napps: int,
                   weight_range: str = RANGE_N, max_weight: int = 8,
                   seed: int | random.Random = 0,
                   threshold: int | None = None) -> Formula:
    """Seed-parameterized random instance generator used by the test suite.

    Constraints are drawn uniformly from the language (arity-0 members are
    skipped), indices uniformly with repetition, weights uniformly from
    [0, max_weight] under N and [-max_weight, max_weight] under Z.  When no
    threshold is given, one is drawn from [-||phi||-1, ||phi||+1] so yes and
    no instances both occur.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    members = [c for c in language if c.arity >= 1]
    if not members:
        raise FormatError(f"language {language.name!r} has no applicable constraints")
    groups: dict = {}
    for _ in range(napps):
        c = rng.choice(members)
        indices, weights = groups.setdefault(c, ([], []))
        indices.append(tuple(rng.randint(1, nvars) for _ in range(c.arity)))
        if weight_range == RANGE_N:
            weights.append(rng.randint(0, max_weight))
        else:
            weights.append(rng.randint(-max_weight, max_weight))
    phi = Formula(nvars, groups, weight_range, 0)
    if threshold is None:
        bound = phi.total_weight + 1
        threshold = rng.randint(-bound, bound)
    return phi.replace(threshold=threshold)
