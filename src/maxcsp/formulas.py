"""Weighted constraint systems (formulas).

A formula is a multiset of weighted constraint applications over variables
1..nvars, tagged with a weight range ("Z" or "N") and a decision threshold.
It keeps them in one group per constraint: an index column and a weight
column, one entry per application, as the parser writes them, or the
{indices: weight} dict a reduction adds its output weights into, which
merges repeated (constraint, indices) pairs; nothing else merges them.  The
applications, in canonical (name, indices, weight) order, are built only
when first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dataclass_replace
from itertools import chain
from typing import NamedTuple, Sequence

from .constraints import Constraint, ConstraintLanguage, bits_to_row
from .errors import FormatError

RANGE_Z = "Z"
RANGE_N = "N"


class Application(NamedTuple):
    constraint: Constraint
    indices: tuple[int, ...]
    weight: int


@dataclass(frozen=True)
class Formula:
    """`applications` is a constraint -> group dict, kept by the formula (do
    not change it), where a group is an {indices: weight} dict or a pair of
    (indices, weights) columns; or a sequence of Applications."""
    nvars: int
    applications: tuple[Application, ...]
    weight_range: str = RANGE_N
    threshold: int = 0
    # |phi|, the number of applications, and ||phi||, the sum of absolute
    # weights: counted once by __post_init__.
    size: int = field(init=False, repr=False, compare=False)
    total_weight: int = field(init=False, repr=False, compare=False)
    # (constraint, indices, weights) triples, one per group, in no set order.
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nvars < 1:
            raise FormatError("formula needs at least one variable")
        if self.weight_range not in (RANGE_Z, RANGE_N):
            raise FormatError(f"weight range must be Z or N, got {self.weight_range!r}")
        apps = vars(self).pop("applications")  # see __getattr__
        if not isinstance(apps, dict):
            entries, apps = apps, {}
            for c, indices, w in entries:
                apps.setdefault(c, ([], []))[0].append(indices)
                apps[c][1].append(w)
        groups = tuple((c, g.keys(), g.values()) if isinstance(g, dict) else (c, *g)
                       for c, g in apps.items())
        vars(self).update(_weights=apps, groups=groups, size=sum(len(g[2]) for g in groups),
                          total_weight=_checked(groups, self.nvars, self.weight_range == RANGE_N))

    def __getattr__(self, name):
        # Normal lookup misses `applications` until they are first read:
        # build them once, here.
        if name != "applications":
            raise AttributeError(name)
        new = tuple.__new__  # not the NamedTuple's __new__, which is Python code
        object.__setattr__(self, name, tuple(
            new(Application, (c, i, w)) for c, pairs in self.sorted_groups() for i, w in pairs))
        return self.applications

    def sorted_groups(self):
        """(constraint, (indices, weight) pairs, to be read once) per group,
        in the order of `applications`: by name, indices, weight."""
        groups = sorted(self._weights.items(), key=lambda cg: cg[0].name)
        if len({c.name for c, _ in groups}) < len(groups):
            # Distinct constraints that share a name: one group per application.
            return [(c, [(i, w)]) for c, i, w in _sorted_entries(self.groups)]
        return [(c, zip(keys := sorted(g), map(g.__getitem__, keys)) if isinstance(g, dict)
                 else sorted(zip(*g))) for c, g in groups]

    def value(self, bits: Sequence[int]) -> int:
        """phi(x): total weight of applications satisfied by the assignment."""
        if len(bits) != self.nvars:
            raise FormatError(f"assignment has {len(bits)} bits, need {self.nvars}")
        return sum(w * c.table[bits_to_row([bits[i - 1] for i in idx])]
                   for c, indices, weights in self.groups
                   for idx, w in zip(indices, weights))

    def constraints_used(self) -> tuple[Constraint, ...]:
        seen: dict[str, Constraint] = {}
        for c, _, _ in self.groups:
            seen.setdefault(c.name, c)
        return tuple(seen[k] for k in sorted(seen))

    def replace(self, **kwargs) -> "Formula":
        return dataclass_replace(self, **{"applications": self._weights, **kwargs})


def _sorted_entries(groups) -> list:
    """Every (constraint, indices, weight) entry, by name, indices, weight."""
    return sorted(((c, i, w) for c, indices, weights in groups
                   for i, w in zip(indices, weights)), key=lambda e: (e[0].name, *e[1:]))


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
    for c, indices, w in _sorted_entries(groups):
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
    return Formula(nvars, (), weight_range, threshold)


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
    apps = []
    for _ in range(napps):
        c = rng.choice(members)
        idx = tuple(rng.randint(1, nvars) for _ in range(c.arity))
        if weight_range == RANGE_N:
            w = rng.randint(0, max_weight)
        else:
            w = rng.randint(-max_weight, max_weight)
        apps.append(Application(c, idx, w))
    phi = Formula(nvars, tuple(apps), weight_range, 0)
    if threshold is None:
        bound = phi.total_weight + 1
        threshold = rng.randint(-bound, bound)
    return phi.replace(threshold=threshold)
