"""Exact exponential-time reference solver.

This is the ground-truth oracle for every transformation check: it
evaluates the formula on all 2**n assignments as the weighted sum of
satisfied applications, straight from the truth tables.  It imports
nothing from the polynomial machinery it is used to validate: that
machinery takes a table's coefficients from moebius below, and the tests
check the oracle against Formula.value.

Each table's Moebius coefficients are taken once, in Python ints.  An
application puts the coefficient over its argument set J on the mask that
ORs the bits of J's variables (x1 is the top bit): by x * x = x that is the
table's polynomial read at the arguments, so repeated arguments fold by
themselves.  These weighted terms, summed by mask, are phi's monomial
coefficients; one in-place subset-sum pass per variable turns those into
every value: at most n * 2**(n-1) additions.  Each block of 2**18 entries
(1 MB of int32, in cache), one per setting p of the top variables, sums
the terms whose top variables lie inside p into a compact array whose
columns are the rows of 2**rb entries that hold a term, runs the passes
for the low rb bits there, puts the rows into a zeroed block and runs the
other passes over it; at n <= 8 the block is its one row.  numpy runs a
pass as one loop per run of 2**b entries, slow on short runs, so rows of
2**max(8, low - 8) entries leave the block at most 8 bits.  The passes
commute, and a row with no term stays zero under them, so the block is
the one that all passes over the whole block give.  numpy is imported by a
sweep only.  Partial sums are coefficients of restrictions, at most
2**kmax * ||phi|| for the largest variable set kmax: int32 below 2**30,
int64 below 2**62, Python ints above.
A function on {0,1}^n has exactly one multilinear polynomial, so
phi2 = a * phi1 + b holds on every assignment exactly when the coefficients
satisfy it: affine_holds compares them, with no cap.  The witness is the
lexicographically smallest maximizer, the first index argmax finds.
Every value lies in [-||phi||, ||phi||], so _answer, the one routine
behind decisions, decide and decide_exact, answers a threshold outside that
range without a sweep, at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import or_

from .constraints import row_to_bits
from .errors import CapExceededError
from .formulas import Formula

ORACLE_CAP = 24
_BLOCK_BITS = 18
_ROW_BITS = 8


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: tuple[int, ...]
    exact: bool  # some assignment has phi(x) = phi.threshold exactly


@lru_cache(maxsize=None)
def moebius(table: tuple[int, ...]) -> tuple:
    """The nonzero Moebius coefficients (positions, c) of `table`: c is the
    coefficient of the monomial over the arguments at those 0-based
    positions, first argument first."""
    acc = list(table)
    k = len(acc).bit_length() - 1
    for j in range(k):
        for s in range(1 << k):
            if s >> j & 1:
                acc[s] -= acc[s ^ 1 << j]
    return tuple((tuple(j for j in range(k) if s >> (k - 1 - j) & 1), c)
                 for s, c in enumerate(acc) if c)


@lru_cache(maxsize=2)
def _terms(phi: Formula) -> tuple[list[int], list[int], int]:
    """(masks, values, kmax): one (mask, w * c) pair per application and
    nonzero Moebius coefficient c of its table, unsummed, and the size of
    its largest variable set, at any n.  The last two formulas stay cached,
    by identity since a Formula hashes so: a verify builds each once."""
    top = 1 << phi.nvars
    masks, values, kmax = [], [], 0
    for c, indices, weights in phi.groups:
        if not weights:
            continue
        if c.arity > kmax:
            kmax = max(kmax, *map(len, map(set, indices)))
        cols = [list(map(top.__rshift__, col)) for col in zip(*indices)]  # x_i: 1 << (n - i)
        for positions, co in moebius(c.table):
            masks += (reduce(partial(map, or_), map(cols.__getitem__, positions))
                      if positions else repeat(0, len(weights)))
            values += map(co.__mul__, weights)
    return masks, values, kmax


def _coefficients(phi: Formula) -> tuple[dict[int, int], int]:
    """({mask: c}, kmax): phi's nonzero monomial coefficients, the sums of
    its terms, and the size of its largest variable set, at any n."""
    masks, values, kmax = _terms(phi)
    coeffs = dict.fromkeys(masks, 0)
    for mask, c in zip(masks, values):
        coeffs[mask] += c
    return {mask: c for mask, c in coeffs.items() if c}, kmax


def _subset_sums(values, bits) -> None:
    """In place, for each bit b: add each entry (row, for a 2-D array) of
    `values` whose index has bit b clear into the one with that bit set."""
    for b in bits:
        v = values.reshape(len(values) >> (b + 1), 2, 1 << b, *values.shape[1:])
        v[:, 1] += v[:, 0]


def _value_blocks(phi: Formula, cap: int):
    """phi's value on every assignment, in assignment-index order: yields
    (index of the first entry, flat block of at most 2**18 values).  Every
    coefficient, and every partial sum in the passes (a coefficient of a
    restriction), is at most ||phi|| * 2**(kmax-1) (||phi|| at kmax = 0),
    and a term w * c at most |w| * 2**max(0, arity-1): the dtype holds both.
    Only where an application repeats arguments can a sum of terms pass it:
    int32 and int64 sums wrap modulo 2**32 and 2**64, so the coefficient it
    ends at is still exact."""
    n = phi.nvars
    if n > cap:
        raise CapExceededError(f"oracle: {n} variables exceeds cap {cap}")
    if n > 63:
        raise CapExceededError(f"oracle: {n} variables exceeds the 63-variable mask width")
    import numpy as np  # only a sweep needs it: the CLI starts without it

    masks, values, kmax = _terms(phi)
    bound = phi.total_weight << max([kmax, *(c.arity - 1 for c, _, _ in phi.groups)])
    dtype = np.int32 if bound < 1 << 30 else np.int64 if bound < 1 << 62 else object
    masks, values = np.array(masks, dtype=np.int64), np.array(values, dtype=dtype)
    low = min(n, _BLOCK_BITS)
    rb = min(low, max(_ROW_BITS, low - _ROW_BITS))
    for p in range(1 << (n - low)):
        m, v = masks, values
        if n > low:  # the terms whose top variables lie inside p
            keep = (masks >> low & ~p) == 0
            m, v = masks[keep] & (1 << low) - 1, values[keep]
        block = np.zeros(1 << low, dtype=dtype)
        if low > rb:
            # The rows of 2**rb entries holding a term, by head m >> rb, held
            # as columns so that the low passes run along long inner axes.
            heads = m >> rb
            present = np.zeros(1 << (low - rb), dtype=bool)
            present[heads] = True
            held = np.flatnonzero(present)
            rows = np.zeros((1 << rb, len(held)), dtype=dtype)
            np.add.at(rows, (m & (1 << rb) - 1, np.searchsorted(held, heads)), v)
            _subset_sums(rows, range(rb))
            block.reshape(-1, 1 << rb)[held] = rows.T
            _subset_sums(block, range(rb, low))
        else:  # n <= 8: the block is its one row
            np.add.at(block, m, v)
            _subset_sums(block, range(low))
        yield p << low, block
        rows = block = None  # free block p before block p+1 is made


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
        del flat  # else it holds block p while block p+1 is made
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


def _answer(phi: Formula, t: int | None, cap: int, exact: bool) -> tuple[bool, bool]:
    """(exists phi(x) >= t, exists phi(x) = t) for t, phi's threshold when
    None, from one sweep or none; the = answer is False unless `exact`."""
    t = phi.threshold if t is None else t
    if abs(t) > phi.total_weight:
        return t < 0, False
    optimum, _, hit = _sweep(phi, t if exact else None, cap)
    return optimum >= t, hit


def decisions(phi: Formula, t: int | None = None,
              cap: int = ORACLE_CAP) -> tuple[bool, bool]:
    """(exists phi(x) >= t, exists phi(x) = t)."""
    return _answer(phi, t, cap, True)


def decide(phi: Formula, t: int | None = None, cap: int = ORACLE_CAP) -> bool:
    """Is there an assignment with phi(x) >= t?"""
    return _answer(phi, t, cap, False)[0]


def decide_exact(phi: Formula, t: int | None = None, cap: int = ORACLE_CAP) -> bool:
    """Is there an assignment with phi(x) = t exactly?"""
    return _answer(phi, t, cap, True)[1]


def check_equivalence(phi1: Formula, t1: int | None, phi2: Formula,
                      t2: int | None, mode: str = "geq",
                      cap: int = ORACLE_CAP) -> bool:
    """Do the two thresholded instances agree, as in the transformation
    conditions: mode "geq" compares the >= decisions, "eq" the = decisions."""
    if mode not in ("geq", "eq"):
        raise ValueError(f"unknown equivalence mode {mode!r}")
    i = 0 if mode == "geq" else 1
    return _answer(phi1, t1, cap, i == 1)[i] == _answer(phi2, t2, cap, i == 1)[i]
