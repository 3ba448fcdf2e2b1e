"""Exact exponential-time reference solver.

This is the ground-truth oracle for every transformation check: it
evaluates the formula on all 2**n assignments as the weighted sum of
satisfied applications, straight from the truth tables.  It never goes
through the polynomial machinery it is used to validate.

One engine does every sweep, and the affine check of two formulas walks
their value blocks side by side.  Each application's table is folded onto its
sorted distinct variables (which absorbs repeated and unsorted indices),
the folded tables are summed per variable set, and each sum is added into
a (2,)*n value array by broadcasting.  Past 20 variables the array is
built in blocks of 2**20 entries, one per setting of the top variables.
Values are int64 below ||phi|| = 2**62 and exact Python ints from there.
The witness tie-break is the lexicographically smallest maximizer
(assignment bits read x1 first, which matches ascending numeric order of
the assignment index), the first index argmax finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constraints import row_to_bits
from .errors import CapExceededError
from .formulas import Formula

ORACLE_CAP = 24
_BLOCK_BITS = 20


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: tuple[int, ...]
    exact: bool  # some assignment has phi(x) = phi.threshold exactly

    def decision(self, t: int) -> bool:
        return self.optimum >= t


def _value_blocks(phi: Formula, cap: int):
    """phi's value on every assignment, in assignment-index order: yields
    (index of the first entry, flat block of at most 2**20 values)."""
    n = phi.nvars
    if n > cap:
        raise CapExceededError(f"oracle: {n} variables exceeds cap {cap}")
    dtype = object if phi.total_weight >= 1 << 62 else np.int64

    sums: dict[tuple[int, ...], list[int]] = {}
    for a in phi.applications:
        support = tuple(sorted(set(a.indices)))
        k = len(support)
        shifts = [k - 1 - support.index(i) for i in a.indices]
        acc = sums.setdefault(support, [0] * (1 << k))
        for s in range(1 << k):
            r = 0
            for sh in shifts:
                r = (r << 1) | ((s >> sh) & 1)
            if a.constraint.table[r]:
                acc[s] += a.weight

    # One block per setting p of the top variables x1..x_top; within a
    # block, axis j is variable top+1+j.
    low = min(n, _BLOCK_BITS)
    top = n - low
    tables = []
    for support, acc in sums.items():
        shape = [1] * low
        for v in support:
            if v > top:
                shape[v - top - 1] = 2
        tables.append(([top - v for v in support if v <= top], shape,
                       np.array(acc, dtype=dtype).reshape((2,) * len(support))))
    for p in range(1 << top):
        values = np.zeros((2,) * low, dtype=dtype)
        for top_shifts, shape, table in tables:
            fixed = tuple((p >> s) & 1 for s in top_shifts)
            values += table[fixed + (...,)].reshape(shape)
        yield p << low, values.reshape(-1)


def _sweep(phi: Formula, t_exact: int | None, cap: int) -> tuple[int, int, bool]:
    """(optimum, index of the first maximizer, whether some assignment is
    worth t_exact); the last is False when t_exact is None."""
    check_exact = t_exact is not None and abs(t_exact) <= phi.total_weight
    best = best_idx = None
    exact_hit = False
    for start, flat in _value_blocks(phi, cap):
        i = int(flat.argmax())
        if best is None or flat[i] > best:
            best, best_idx = int(flat[i]), start + i
        exact_hit = exact_hit or (check_exact and bool((flat == t_exact).any()))
    return best, best_idx, exact_hit


def affine_holds(phi1: Formula, phi2: Formula, a, b,
                 cap: int = ORACLE_CAP) -> bool:
    """Is phi2(x) = a * phi1(x) + b on every assignment (same variables)?
    With a = p/q and b = r/s this is q*s*phi2 == p*s*phi1 + r*q, compared
    in int64 when no term can reach 2**62 and in exact Python ints
    otherwise."""
    if phi1.nvars != phi2.nvars:
        raise ValueError("a pointwise relation needs the same variables")
    (p, q), (r, s) = Fraction(a).as_integer_ratio(), Fraction(b).as_integer_ratio()
    wide = max(q * s * max(phi2.total_weight, 1),
               abs(p) * s * max(phi1.total_weight, 1) + abs(r) * q) >= 1 << 62
    for (_, v1), (_, v2) in zip(_value_blocks(phi1, cap), _value_blocks(phi2, cap)):
        if wide:
            v1, v2 = v1.astype(object), v2.astype(object)
        if not np.array_equal(q * s * v2, p * s * v1 + r * q):
            return False
    return True


def brute_force(phi: Formula, cap: int = ORACLE_CAP) -> SolveResult:
    """Exhaustive optimum with deterministic (lex-smallest) witness, and the
    exact (=) answer for phi's own threshold, from one sweep."""
    optimum, index, exact = _sweep(phi, phi.threshold, cap)
    return SolveResult(optimum, row_to_bits(index, phi.nvars), exact)


def decisions(phi: Formula, t: int | None = None,
              cap: int = ORACLE_CAP) -> tuple[bool, bool]:
    """Both decision modes from one enumeration: (exists phi(x) >= t,
    exists phi(x) = t)."""
    t = phi.threshold if t is None else t
    optimum, _, exact = _sweep(phi, t, cap)
    return optimum >= t, exact


def decide(phi: Formula, t: int | None = None, cap: int = ORACLE_CAP) -> bool:
    """Is there an assignment with phi(x) >= t?"""
    t = phi.threshold if t is None else t
    return _sweep(phi, None, cap)[0] >= t


def decide_exact(phi: Formula, t: int | None = None, cap: int = ORACLE_CAP) -> bool:
    """Is there an assignment with phi(x) = t exactly?"""
    t = phi.threshold if t is None else t
    if abs(t) > phi.total_weight:
        return False
    return _sweep(phi, t, cap)[2]


def check_equivalence(phi1: Formula, t1: int | None, phi2: Formula,
                      t2: int | None, mode: str = "geq",
                      cap: int = ORACLE_CAP) -> bool:
    """Do the two thresholded instances agree, as in the transformation
    conditions: mode "geq" compares the >= decisions, "eq" the = decisions."""
    if mode not in ("geq", "eq"):
        raise ValueError(f"unknown equivalence mode {mode!r}")
    i = 0 if mode == "geq" else 1
    return decisions(phi1, t1, cap)[i] == decisions(phi2, t2, cap)[i]
