"""Weighted constraint systems (formulas).

A formula is a set of weighted constraint applications over variables
1..nvars, tagged with a weight range ("Z" or "N") and a decision threshold.
Applications are kept in canonical (name, indices, weight) order; duplicate
(constraint, tuple) pairs are merged only on request, never implicitly: the
reductions add their output weights into {constraint: {indices: weight}}
groups, and a formula built from them checks each group at once but builds
its sorted applications only when they are first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dataclass_replace
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple, Sequence

from .constraints import Constraint, ConstraintLanguage, bits_to_row
from .errors import FormatError

RANGE_Z = "Z"
RANGE_N = "N"

_SORT_KEY = attrgetter("constraint.name", "indices", "weight")


class Application(NamedTuple):
    constraint: Constraint
    indices: tuple[int, ...]
    weight: int


@dataclass(frozen=True)
class Formula:
    """`applications` is a sequence of Applications or a constraint ->
    {indices: weight} dict of groups, which the formula keeps: do not
    change it."""
    nvars: int
    applications: tuple[Application, ...]
    weight_range: str = RANGE_N
    threshold: int = 0
    # |phi|, the number of applications, and ||phi||, the sum of absolute
    # weights: counted once by __post_init__.
    size: int = field(init=False, repr=False, compare=False)
    total_weight: int = field(init=False, repr=False, compare=False)
    # (constraint, indices, weights) triples, in no set order: the groups of
    # a dict-built formula, else the runs of one constraint in the sorted apps.
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nvars < 1:
            raise FormatError("formula needs at least one variable")
        if self.weight_range not in (RANGE_Z, RANGE_N):
            raise FormatError(f"weight range must be Z or N, got {self.weight_range!r}")
        apps, n, nonneg = self.applications, self.nvars, self.weight_range == RANGE_N
        if isinstance(apps, dict):
            object.__delattr__(self, "applications")  # see __getattr__
            groups = tuple((c, g.keys(), g.values()) for c, g in apps.items())
            total = sum(_checked_group(c, g, n, nonneg) for c, g in apps.items())
        else:
            object.__setattr__(self, "applications", tuple(sorted(apps, key=_SORT_KEY)))
            groups, total = _runs(self.applications, n, nonneg)
        object.__setattr__(self, "_weights", apps if isinstance(apps, dict) else None)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "size", sum(len(g[2]) for g in groups))
        object.__setattr__(self, "total_weight", total)

    def __getattr__(self, name):
        # Normal lookup misses `applications` only on a dict-built formula
        # that has not been read yet: build them once, here.
        if name != "applications":
            raise AttributeError(name)
        new = tuple.__new__  # not the NamedTuple's __new__, which is Python code
        object.__setattr__(self, name, tuple(
            new(Application, (c, i, w)) for c, indices, weights in self.sorted_groups()
            for i, w in zip(indices, weights)))
        return self.applications

    def sorted_groups(self):
        """`groups` in the order of `applications`: by name, then indices."""
        if self._weights is None:
            return self.groups
        groups = sorted(self._weights.items(), key=lambda cg: cg[0].name)
        if len({c.name for c, _ in groups}) < len(groups):
            # Distinct constraints share a name: one group per application.
            return [(a[0], [a[1]], [a[2]]) for a in sorted(
                (Application(c, i, w) for c, g in groups for i, w in g.items()), key=_SORT_KEY)]
        return [(c, (keys := sorted(g)), list(map(g.__getitem__, keys))) for c, g in groups]

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
        return dataclass_replace(self, **kwargs)


def _runs(entries, n: int, nonneg: bool) -> tuple:
    """Sorted (constraint, indices, weight) entries in runs of one constraint,
    and the sum of |weight|, refusing at its first entry a wrong arity, an
    index outside 1..n or, under N, a negative weight.  Runs hold lists:
    CPython keeps freed tuples of under 20 items, of every length, for reuse."""
    runs, total = [], 0
    for c, indices, w in entries:
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
        total += abs(w)
        if runs and runs[-1][0] is c:
            runs[-1][1].append(indices)
            runs[-1][2].append(w)
        else:
            runs.append((c, [indices], [w]))
    return tuple(runs), total


def _checked_group(c: Constraint, group: dict, n: int, nonneg: bool) -> int:
    """The sum of |weight| over one group, each of _runs' checks one pass in
    C; _runs names the first fault."""
    used = set(chain.from_iterable(group))
    if (set(map(len, group)) - {c.arity} or used and not 1 <= min(used) <= max(used) <= n
            or nonneg and min(group.values(), default=0) < 0):
        _runs(zip(repeat(c), group, group.values()), n, nonneg)
    return sum(map(abs, group.values()))


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
