"""Weighted constraint systems (formulas).

A formula is a set of weighted constraint applications over variables
1..nvars, tagged with a weight range ("Z" or "N") and a decision threshold.
Applications are kept in canonical sorted order; duplicate (constraint,
tuple) pairs are merged only on request, never implicitly: the reductions
add their output weights into one dict keyed by (constraint, indices), and
applications_from_weights builds each application once from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dataclass_replace
from operator import attrgetter
from typing import Sequence

from .constraints import Constraint, ConstraintLanguage
from .errors import FormatError

RANGE_Z = "Z"
RANGE_N = "N"

_SORT_KEY = attrgetter("constraint.name", "indices", "weight")


@dataclass(frozen=True)
class Application:
    constraint: Constraint
    indices: tuple[int, ...]
    weight: int

    def __post_init__(self):
        if len(self.indices) != self.constraint.arity:
            raise FormatError(
                f"{self.constraint.name} has arity {self.constraint.arity}, "
                f"got indices {self.indices}")

    def satisfied_by(self, bits: Sequence[int]) -> int:
        row = 0
        for i in self.indices:
            row = (row << 1) | bits[i - 1]
        return self.constraint.table[row]


@dataclass(frozen=True)
class Formula:
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
        total = 0
        for app in self.applications:
            for i in app.indices:
                if not 1 <= i <= self.nvars:
                    raise FormatError(
                        f"index {i} out of range 1..{self.nvars} "
                        f"in application of {app.constraint.name}")
            if self.weight_range == RANGE_N and app.weight < 0:
                raise FormatError(
                    f"weight range violation: negative weight {app.weight} "
                    f"under N for {app.constraint.name}{app.indices}")
            total += abs(app.weight)
        object.__setattr__(self, "applications",
                           tuple(sorted(self.applications, key=_SORT_KEY)))
        object.__setattr__(self, "total_weight", total)

    @property
    def size(self) -> int:
        """|phi|: number of applications."""
        return len(self.applications)

    def value(self, bits: Sequence[int]) -> int:
        """phi(x): total weight of applications satisfied by the assignment."""
        if len(bits) != self.nvars:
            raise FormatError(f"assignment has {len(bits)} bits, need {self.nvars}")
        return sum(a.weight for a in self.applications if a.satisfied_by(bits))

    def constraints_used(self) -> tuple[Constraint, ...]:
        seen: dict[str, Constraint] = {}
        for a in self.applications:
            seen.setdefault(a.constraint.name, a.constraint)
        return tuple(seen[k] for k in sorted(seen))

    def replace(self, **kwargs) -> "Formula":
        return dataclass_replace(self, **kwargs)


def applications_from_weights(weights: dict) -> tuple[Application, ...]:
    """One application per (constraint, indices) key, in key order, with
    the summed weight (0 kept)."""
    return tuple(Application(c, indices, w)
                 for (c, indices), w in weights.items())


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
