"""Exact exponential-time reference solver.

This is the ground-truth oracle for every transformation check: it
evaluates the formula on all 2**n assignments as the weighted sum of
satisfied applications, straight from the truth tables.  It derives its own
monomial coefficients and shares no code with the polynomial machinery it
is used to validate.

Each application's table, read through the map from its arguments to its
sorted distinct variables, has its Moebius coefficients taken in Python
ints (k * 2**k additions for k variables) once per (table, map); weighted
and summed, they are phi's monomial coefficients, keyed by the mask whose
bits are the monomial's variables (x1 is the top bit).  One in-place
subset-sum pass per variable turns them into every value: at most
n * 2**(n-1) additions.  Past 20 variables each block of 2**20 entries, one
per setting p of the top variables, takes the monomials whose top variables
lie inside p.  The passes for the block's low 8 bits run on a compact array
of the rows of 2**8 entries that hold a coefficient; those rows go into a
zeroed block, and the passes for the other bits run over the whole block.
At n <= 8 the block is one row, built in place.  The passes commute, and a
row with no coefficient stays zero under the low ones, so the block is the
one that all passes over the whole block give.  numpy is imported by a
sweep only, so the CLI starts without it.  Partial sums are coefficients of
restrictions, at most 2**kmax * ||phi|| for the largest variable set kmax:
int32 below 2**30 (4 MB blocks), int64 below 2**62, Python ints above.
A function on {0,1}^n has exactly one multilinear polynomial, so
phi2 = a * phi1 + b holds on every assignment exactly when the coefficients
satisfy it: affine_holds compares them, with no cap.  The witness is the
lexicographically smallest maximizer, the first index argmax finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .constraints import row_to_bits
from .errors import CapExceededError
from .formulas import Formula

ORACLE_CAP = 24
_BLOCK_BITS = 20
_ROW_BITS = 8


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: tuple[int, ...]
    exact: bool  # some assignment has phi(x) = phi.threshold exactly


@lru_cache(maxsize=None)
def _folded_moebius(table: tuple[int, ...], shifts: tuple[int, ...]) -> tuple:
    """The nonzero Moebius coefficients (s, c) of `table` read with argument
    j taken from bit shifts[j] of s, over every setting s of the bits."""
    k = len(set(shifts))
    acc = []
    for s in range(1 << k):
        r = 0
        for sh in shifts:
            r = (r << 1) | ((s >> sh) & 1)
        acc.append(table[r])
    for j in range(k):
        for s in range(1 << k):
            if s >> j & 1:
                acc[s] -= acc[s ^ 1 << j]
    return tuple((s, c) for s, c in enumerate(acc) if c)


_built: list = []  # (phi, _coefficients(phi)) for the last two formulas


def _coefficients(phi: Formula) -> tuple[dict[int, int], int]:
    """({mask: c}, kmax): phi's nonzero monomial coefficients and the size
    of its largest variable set, at any n.  The last two formulas stay
    cached by identity: a verify builds each once and hashes neither."""
    for built in _built:
        if built[0] is phi:
            return built[1]
    n = phi.nvars
    coeffs: dict[int, int] = {}
    kmax = 0
    layouts = {}  # indices: (masks, shifts), built once per call
    for c, indices, weights in phi.groups:
        for idx, w in zip(indices, weights):
            layout = layouts.get(idx)
            if layout is None:
                support = sorted(set(idx))
                k = len(support)
                kmax = max(kmax, k)
                masks = [0]  # masks[s]: the variables of the support bits set in s
                for v in reversed(support):
                    masks += [m | 1 << (n - v) for m in masks]
                shifts = tuple(k - 1 - support.index(i) for i in idx)
                layout = layouts[idx] = masks, shifts
            masks, shifts = layout
            for s, co in _folded_moebius(c.table, shifts):
                coeffs[masks[s]] = coeffs.get(masks[s], 0) + w * co
    _built[:] = (phi, ({mask: c for mask, c in coeffs.items() if c}, kmax)), *_built[:1]
    return _built[0][1]


def _subset_sums(values, bits) -> None:
    """In place, for each bit b: add each entry of the flat array whose
    index has bit b clear into the entry with that bit set."""
    for b in bits:
        v = values.reshape(-1, 2, 1 << b)
        v[:, 1, :] += v[:, 0, :]


def _value_blocks(phi: Formula, cap: int):
    """phi's value on every assignment, in assignment-index order: yields
    (index of the first entry, flat block of at most 2**20 values)."""
    n = phi.nvars
    if n > cap:
        raise CapExceededError(f"oracle: {n} variables exceeds cap {cap}")
    import numpy as np  # only a sweep needs it: the CLI starts without it

    coeffs, kmax = _coefficients(phi)
    bound = phi.total_weight << kmax
    dtype = np.int32 if bound < 1 << 30 else np.int64 if bound < 1 << 62 else object

    low = min(n, _BLOCK_BITS)
    rb = min(low, _ROW_BITS)
    for p in range(1 << (n - low)):
        kept = [(mask & (1 << low) - 1, c) for mask, c in coeffs.items()
                if not mask >> low & ~p]
        # The rows of 2**rb entries holding a coefficient, by head m >> rb.
        heads = sorted({m >> rb for m, _ in kept}) if low > rb else [0]
        row = {h: i for i, h in enumerate(heads)}
        rows = np.zeros(len(heads) << rb, dtype=dtype)
        for m, c in kept:
            rows[row[m >> rb] << rb | m & (1 << rb) - 1] += c
        _subset_sums(rows, range(rb))
        if low > rb:  # else the block is its one row (n <= 8), built in place
            values = np.zeros(1 << low, dtype=dtype)
            values.reshape(-1, 1 << rb)[heads] = rows.reshape(-1, 1 << rb)
            _subset_sums(values, range(rb, low))
            rows = values
        yield p << low, rows


def _sweep(phi: Formula, t_exact: int | None, cap: int) -> tuple[int, int, bool]:
    """(optimum, index of the first maximizer, whether some assignment is
    worth t_exact, False when t_exact is None) from phi's value blocks."""
    check_exact = t_exact is not None and abs(t_exact) <= phi.total_weight
    best, index, hit = None, None, False
    for start, flat in _value_blocks(phi, cap):
        i = int(flat.argmax())
        if best is None or flat[i] > best:
            best, index = int(flat[i]), start + i
        hit = hit or check_exact and bool((flat == t_exact).any())
    return best, index, hit


def affine_holds(phi1: Formula, phi2: Formula, a, b) -> bool:
    """Does phi2(x) = a * phi1(x) + b hold on every assignment?  Each side
    has one multilinear polynomial, so with a = p/q and b = r/s this is
    q*s*c2 == p*s*c1 (+ r*q on the constant) for every monomial's
    coefficients c1, c2, compared in Python ints at any n."""
    if phi1.nvars != phi2.nvars:
        raise ValueError("a pointwise relation needs the same variables")
    (p, q), (r, s) = Fraction(a).as_integer_ratio(), Fraction(b).as_integer_ratio()
    rhs = {mask: p * s * c for mask, c in _coefficients(phi1)[0].items()}
    rhs[0] = rhs.get(0, 0) + r * q
    return ({mask: q * s * c for mask, c in _coefficients(phi2)[0].items()}
            == {mask: c for mask, c in rhs.items() if c})


def brute_force(phi: Formula, cap: int = ORACLE_CAP) -> SolveResult:
    """Exhaustive optimum with deterministic (lex-smallest) witness, and the
    exact (=) answer for phi's own threshold, from one sweep."""
    optimum, index, exact = _sweep(phi, phi.threshold, cap)
    return SolveResult(optimum, row_to_bits(index, phi.nvars), exact)


def decisions(phi: Formula, t: int | None = None,
              cap: int = ORACLE_CAP) -> tuple[bool, bool]:
    """(exists phi(x) >= t, exists phi(x) = t), from one enumeration."""
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
