"""Exact exponential-time reference solver.

This is the ground-truth oracle for every transformation check: it
evaluates the formula on all 2**n assignments as the weighted sum of
satisfied applications, straight from the truth tables.  It derives its own
monomial coefficients and shares no code with the polynomial machinery it
is used to validate.

Each application's table is folded onto its sorted distinct variables and
the folded tables are summed per variable set; a Moebius transform in
Python ints (k * 2**k additions for k variables) gives each sum's monomial
coefficients.  They are scattered into a zeroed array at the index whose
bits are the monomial's variables (x1 is the top bit), and one in-place
subset-sum pass per variable gives every value: n * 2**(n-1) additions.
Past 20 variables each block of 2**20 entries, one per setting p of the top
variables, takes the monomials whose top variables lie inside p.  Partial
sums are coefficients of restrictions, at most 2**kmax * ||phi|| for the
largest variable set kmax: int64 below 2**62 of that, Python ints above.  A
same-n affine check builds each formula's blocks once, and one pass
compares them and feeds both formulas' decisions.  The witness is the
lexicographically smallest maximizer, the first index argmax finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _moebius_steps(k: int) -> tuple[tuple[int, int], ...]:
    # The in-place Moebius transform on k bits: acc[s] -= acc[s minus one bit].
    return tuple((s, s ^ 1 << j) for j in range(k) for s in range(1 << k) if s >> j & 1)


def _value_blocks(phi: Formula, cap: int):
    """phi's value on every assignment, in assignment-index order: yields
    (index of the first entry, flat block of at most 2**20 values)."""
    n = phi.nvars
    if n > cap:
        raise CapExceededError(f"oracle: {n} variables exceeds cap {cap}")
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

    coeffs: dict[int, int] = {}
    for support, acc in sums.items():
        for s, t in _moebius_steps(len(support)):
            acc[s] -= acc[t]
        masks = [0]
        for v in reversed(support):
            masks += [m | 1 << (n - v) for m in masks]
        for mask, c in zip(masks, acc):
            if c:
                coeffs[mask] = coeffs.get(mask, 0) + c
    kmax = max(map(len, sums), default=0)
    dtype = object if phi.total_weight << kmax >= 1 << 62 else np.int64

    low = min(n, _BLOCK_BITS)
    for p in range(1 << (n - low)):
        values = np.zeros(1 << low, dtype=dtype)
        for mask, c in coeffs.items():
            if not mask >> low & ~p:
                values[mask & (1 << low) - 1] += c
        for b in range(low):
            v = values.reshape(-1, 2, 1 << b)
            v[:, 1, :] += v[:, 0, :]
        yield p << low, values


def _scan(phi: Formula, t_exact: int | None, blocks):
    """Per value block: (index of its first maximizer, its maximum, whether
    some entry is worth t_exact, False when t_exact is None)."""
    check_exact = t_exact is not None and abs(t_exact) <= phi.total_weight
    for start, flat in blocks:
        i = int(flat.argmax())
        yield start + i, int(flat[i]), check_exact and bool((flat == t_exact).any())


def _sweep(phi: Formula, t_exact: int | None, cap: int,
           scans=None) -> tuple[int, int, bool]:
    """(optimum, index of the first maximizer, whether some assignment is
    worth t_exact) from phi's value blocks, or from `scans` taken from them."""
    scans = list(_scan(phi, t_exact, _value_blocks(phi, cap)) if scans is None else scans)
    best = max(value for _, value, _ in scans)
    return (best, next(i for i, value, _ in scans if value == best),
            any(hit for _, _, hit in scans))


def affine_decisions(phi1: Formula, phi2: Formula, a, b, cap: int = ORACLE_CAP):
    """(`decisions` of phi1, `decisions` of phi2, whether phi2(x) = a *
    phi1(x) + b on every assignment), from one build of each formula's
    blocks.  With a = p/q and b = r/s that is q*s*phi2 == p*s*phi1 + r*q,
    compared in int64 when no term can reach 2**62, else in Python ints."""
    if phi1.nvars != phi2.nvars:
        raise ValueError("a pointwise relation needs the same variables")
    (p, q), (r, s) = Fraction(a).as_integer_ratio(), Fraction(b).as_integer_ratio()
    wide = max(q * s * max(phi2.total_weight, 1),
               abs(p) * s * max(phi1.total_weight, 1) + abs(r) * q) >= 1 << 62
    scans2, holds = [], []

    def paired_blocks():  # phi1's blocks; phi2's are scanned and compared
        for (start, v1), (_, v2) in zip(_value_blocks(phi1, cap),
                                        _value_blocks(phi2, cap)):
            scans2.extend(_scan(phi2, phi2.threshold, [(start, v2)]))
            w1, w2 = (v1.astype(object), v2.astype(object)) if wide else (v1, v2)
            holds.append(np.array_equal(q * s * w2, p * s * w1 + r * q))
            yield start, v1

    first = decisions(phi1, None, cap, _scan(phi1, phi1.threshold, paired_blocks()))
    return first, decisions(phi2, None, cap, scans2), all(holds)


def brute_force(phi: Formula, cap: int = ORACLE_CAP) -> SolveResult:
    """Exhaustive optimum with deterministic (lex-smallest) witness, and the
    exact (=) answer for phi's own threshold, from one sweep."""
    optimum, index, exact = _sweep(phi, phi.threshold, cap)
    return SolveResult(optimum, row_to_bits(index, phi.nvars), exact)


def decisions(phi: Formula, t: int | None = None, cap: int = ORACLE_CAP,
              scans=None) -> tuple[bool, bool]:
    """Both decision modes from one enumeration: (exists phi(x) >= t,
    exists phi(x) = t).  `scans` is as for `_sweep`, taken at t."""
    t = phi.threshold if t is None else t
    optimum, _, exact = _sweep(phi, t, cap, scans)
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
