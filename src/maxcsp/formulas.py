"""Weighted constraint systems (formulas).

A formula is a set of weighted constraint applications over variables
1..nvars, tagged with a weight range ("Z" or "N") and a decision threshold.
Applications are kept in canonical sorted order; duplicate (constraint,
tuple) pairs are merged only on request, never implicitly: the reductions
add their output weights into one dict keyed by (constraint, indices), and
a formula built from that dict checks it at once but builds its sorted
applications only when they are first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dataclass_replace
from operator import attrgetter
from typing import NamedTuple, Sequence

from .constraints import Constraint, ConstraintLanguage
from .errors import FormatError

RANGE_Z = "Z"
RANGE_N = "N"

_SORT_KEY = attrgetter("constraint.name", "indices", "weight")


class Application(NamedTuple):
    constraint: Constraint
    indices: tuple[int, ...]
    weight: int

    def satisfied_by(self, bits: Sequence[int]) -> int:
        row = 0
        for i in self.indices:
            row = (row << 1) | bits[i - 1]
        return self.constraint.table[row]


@dataclass(frozen=True)
class Formula:
    """`applications` is a sequence of Applications or a (constraint,
    indices) -> weight dict, which the formula keeps: do not change it."""
    nvars: int
    applications: tuple[Application, ...]
    weight_range: str = RANGE_N
    threshold: int = 0
    # ||phi||: the sum of absolute weights, added up once by __post_init__.
    total_weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nvars < 1:
            raise FormatError("formula needs at least one variable")
        if self.weight_range not in (RANGE_Z, RANGE_N):
            raise FormatError(f"weight range must be Z or N, got {self.weight_range!r}")
        apps = self.applications
        object.__setattr__(self, "_weights", apps if isinstance(apps, dict) else None)
        n, nonneg = self.nvars, self.weight_range == RANGE_N
        total = 0
        for c, indices, w in self.entries():
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
        if self._weights is None:
            object.__setattr__(self, "applications", tuple(sorted(apps, key=_SORT_KEY)))
        else:
            object.__delattr__(self, "applications")  # see __getattr__
        object.__setattr__(self, "total_weight", total)

    def __getattr__(self, name):
        # Normal lookup misses `applications` only on a dict-built formula
        # that has not been read yet: build them once, here.
        if name != "applications":
            raise AttributeError(name)
        object.__setattr__(self, name, applications_from_weights(self._weights))
        return self.applications

    def entries(self):
        """Every application as (constraint, indices, weight), read from the
        weight dict of a dict-built formula without building its applications."""
        if self._weights is None:
            return self.applications
        return ((c, indices, w) for (c, indices), w in self._weights.items())

    @property
    def size(self) -> int:
        """|phi|: number of applications."""
        return len(self.applications if self._weights is None else self._weights)

    def value(self, bits: Sequence[int]) -> int:
        """phi(x): total weight of applications satisfied by the assignment."""
        if len(bits) != self.nvars:
            raise FormatError(f"assignment has {len(bits)} bits, need {self.nvars}")
        return sum(a.weight for a in self.applications if a.satisfied_by(bits))

    def constraints_used(self) -> tuple[Constraint, ...]:
        seen: dict[str, Constraint] = {}
        for c, _, _ in self.entries():
            seen.setdefault(c.name, c)
        return tuple(seen[k] for k in sorted(seen))

    def replace(self, **kwargs) -> "Formula":
        return dataclass_replace(self, **kwargs)


def applications_from_weights(weights: dict) -> tuple[Application, ...]:
    """The sorted applications of a (constraint, indices) -> weight dict."""
    return tuple(sorted([Application(c, indices, w)
                         for (c, indices), w in weights.items()], key=_SORT_KEY))


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
