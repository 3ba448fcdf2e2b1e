"""Boolean constraints as truth tables, languages, classification, closures.

Truth-table convention used everywhere in this package: the table of a k-ary
constraint has 2**k entries, indexed by the assignment read as a k-bit
integer with variable 1 in the most significant position.  OR2 therefore has
table (0, 1, 1, 1) for the rows 00, 01, 10, 11.

Substitution slots are encoded as: positive int i = variable x_i, negative
int -i = negated variable, the one-character strings "0"/"1" = constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CapExceededError, FormatError, PreconditionError

# Closures, and the member sources that recover_pattern reads, refuse
# member constraints above this arity: the pattern space is exponential in
# the arity and nothing downstream needs closures of large constraints.
CLOSURE_ARITY_CAP = 8
# No truth table above this arity is built: a table has 2**arity entries, so
# a name such as OR99, or a language file's `constraint A 40`, is refused
# before its table is allocated.
TABLE_ARITY_CAP = 20

VERDICT_POLY = "poly_time_solvable"
VERDICT_NP_HARD = "np_hard"
# The flags classify reports, and the dichotomy's polynomial-time conditions
# among them, each with the name messages give it.
FLAGS = ("trivial", "zero_valid", "one_valid", "two_monotone", "c_closed", "symmetric")
POLY_CONDITIONS = (("trivial", "trivial"), ("zero_valid", "0-valid"),
                   ("one_valid", "1-valid"), ("two_monotone", "2-monotone"))


def bits_to_row(bits: Sequence[int]) -> int:
    row = 0
    for b in bits:
        if b not in (0, 1):
            raise FormatError(f"assignment bit must be 0 or 1, got {b!r}")
        row = (row << 1) | b
    return row


def row_to_bits(row: int, arity: int) -> tuple[int, ...]:
    return tuple((row >> (arity - 1 - i)) & 1 for i in range(arity))


@dataclass(frozen=True)
class Constraint:
    """A Boolean function of fixed arity stored as a full truth table."""

    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise FormatError(f"negative arity {self.arity}")
        if not self.name or any(c.isspace() for c in self.name):
            raise FormatError(f"constraint name must be a non-empty token: {self.name!r}")
        if len(self.table) != 1 << self.arity:
            raise FormatError(
                f"{self.name}: table length {len(self.table)} != 2**{self.arity}")
        if any(v not in (0, 1) for v in self.table):
            raise FormatError(f"{self.name}: table entries must be 0/1")
        object.__setattr__(self, "_hash", hash((self.name, self.arity, self.table)))

    def __hash__(self):
        return self._hash

    def value(self, bits: Sequence[int]) -> int:
        if len(bits) != self.arity:
            raise FormatError(
                f"{self.name}: expected {self.arity} arguments, got {len(bits)}")
        return self.table[bits_to_row(bits)]

    def satisfying_count(self) -> int:
        """|f| = number of satisfying rows."""
        return sum(self.table)

    def satisfying_rows(self) -> list[int]:
        return [r for r, v in enumerate(self.table) if v]

    def is_trivial(self) -> bool:
        return all(v == self.table[0] for v in self.table)

    def negation(self) -> "Constraint":
        return Constraint(f"~{self.name}", self.arity,
                          tuple(1 - v for v in self.table))

    def signature(self) -> tuple[int, tuple[int, ...]]:
        return (self.arity, self.table)


def _rows(name: str, arity: int) -> range:
    """The row indices of `name`'s table, refused above TABLE_ARITY_CAP."""
    if arity > TABLE_ARITY_CAP:
        raise CapExceededError(
            f"{name}: arity {arity} exceeds truth-table cap {TABLE_ARITY_CAP}")
    return range(1 << arity)


def make_constraint(name: str, arity: int, satisfying_rows: Iterable[str]) -> Constraint:
    """Build a constraint from its satisfying assignments, given as bit
    strings ("01").  Duplicates are idempotent; a row that is not a bit
    string of the constraint's arity is a format error.
    """
    table = [0] * len(_rows(name, arity))
    for row in satisfying_rows:
        if (not isinstance(row, str) or len(row) != arity
                or any(c not in "01" for c in row)):
            raise FormatError(f"{name}: bad row {row!r} for arity {arity}")
        table[int(row, 2) if arity else 0] = 1
    return Constraint(name, arity, tuple(table))


@dataclass(frozen=True)
class ConstraintLanguage:
    """A finite, non-empty set of named constraints."""

    name: str
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if not self.constraints:
            raise FormatError(f"language {self.name!r} is empty")
        names = [c.name for c in self.constraints]
        if len(set(names)) != len(names):
            raise FormatError(f"language {self.name!r} has duplicate constraint names")
        object.__setattr__(self, "constraints",
                           tuple(sorted(self.constraints, key=lambda c: c.name)))
        object.__setattr__(self, "_hash", hash((self.name, self.constraints)))
        object.__setattr__(self, "_by_name", {c.name: c for c in self.constraints})
        # Filled in reverse, so each table maps to its first member by name.
        object.__setattr__(self, "_by_table", {
            c.signature(): c for c in reversed(self.constraints)})

    def __hash__(self):
        return self._hash

    def __iter__(self):
        return iter(self.constraints)

    def get(self, name: str) -> Constraint:
        if name not in self._by_name:
            raise KeyError(f"no constraint named {name!r} in language {self.name!r}")
        return self._by_name[name]

    def by_table(self, arity: int, table: tuple[int, ...]) -> Constraint | None:
        return self._by_table.get((arity, tuple(table)))

    def signatures(self) -> frozenset:
        return frozenset(self._by_table)

    def non_trivial(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if not c.is_trivial())


# ---------------------------------------------------------------------------
# Substitution patterns


@dataclass(frozen=True)
class SubstitutionPattern:
    """Slots substituted into a constraint to express a lower-arity one.

    ``slots`` has one entry per argument of the base constraint; each slot
    refers to one of the ``target_arity`` fresh variables (possibly negated)
    or to a constant.
    """

    target_arity: int
    slots: tuple

    def __post_init__(self):
        if self.target_arity < 0:
            raise FormatError("pattern target arity must be >= 0")
        for s in self.slots:
            if isinstance(s, str):
                if s not in ("0", "1"):
                    raise FormatError(f"bad constant slot {s!r}")
            elif isinstance(s, int) and s != 0:
                if abs(s) > self.target_arity:
                    raise FormatError(
                        f"slot {s} references variable beyond arity {self.target_arity}")
            else:
                raise FormatError(f"bad slot {s!r}")


def render_slot(slot) -> str:
    if isinstance(slot, str):
        return slot
    return f"x{slot}" if slot > 0 else f"~x{-slot}"


def parse_slot(text: str):
    if text in ("0", "1"):
        return text
    neg = text.startswith("~")
    body = text[1:] if neg else text
    if not body.startswith("x") or not body[1:].isdigit():
        raise FormatError(f"bad slot token {text!r}")
    i = int(body[1:])
    if i < 1:
        raise FormatError(f"bad slot token {text!r}")
    return -i if neg else i


def render_pattern(p: SubstitutionPattern) -> str:
    return ",".join(render_slot(s) for s in p.slots) if p.slots else "-"


def parse_pattern(text: str, target_arity: int) -> SubstitutionPattern:
    slots = () if text == "-" else tuple(parse_slot(t) for t in text.split(","))
    return SubstitutionPattern(target_arity, slots)


def identity_pattern(arity: int) -> SubstitutionPattern:
    return SubstitutionPattern(arity, tuple(range(1, arity + 1)))


def _substitute(table: tuple[int, ...], slots: tuple, d: int) -> tuple[int, ...]:
    """The d-ary table that ``table`` gives when read through ``slots``: row
    r reads row flip ^ (OR of masks[v] over the variables v set in r), where
    masks[v] marks the slots of x_v and flip the negated and constant-1 slots."""
    flip, masks = 0, [0] * (d + 1)
    for j, s in enumerate(reversed(slots)):
        if isinstance(s, int):
            masks[abs(s)] |= 1 << j
        if s == "1" or isinstance(s, int) and s < 0:
            flip |= 1 << j
    rows = [0]
    for m in masks[1:]:
        rows = [r | b for r in rows for b in (0, m)]
    return tuple(table[flip ^ r] for r in rows)


def apply_pattern(f: Constraint, p: SubstitutionPattern) -> Constraint:
    """Evaluate f under the substitution, yielding a target_arity-ary constraint."""
    if len(p.slots) != f.arity:
        raise FormatError(
            f"pattern has {len(p.slots)} slots but {f.name} has arity {f.arity}")
    return Constraint(f"{f.name}|{render_pattern(p)}", p.target_arity,
                      _substitute(f.table, p.slots, p.target_arity))


def literal_variant(f: Constraint, negated: frozenset[int] | set[int]) -> Constraint:
    """f^S: the literals-only variant negating argument positions in S."""
    slots = tuple(-i if i in negated else i for i in range(1, f.arity + 1))
    return apply_pattern(f, SubstitutionPattern(f.arity, slots))


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class ConstraintFlags:
    trivial: bool
    zero_valid: bool
    one_valid: bool
    two_monotone: bool
    c_closed: bool
    symmetric: bool
    two_monotone_witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _two_monotone_witness(arity: int, table: tuple[int, ...]):
    """Index sets P, Q with f == (AND_P x) OR (AND_Q ~x), read off the table.

    The sets may overlap; an empty set means that term is absent, and at
    least one term must be present.  Bit b of a mask is variable arity - b.
    The P term is absent iff the all-ones row is false, Q iff all-zeros is.
    Otherwise the false rows miss part of P and meet Q: the row whose only
    set bit is q is false iff q is in Q, the row whose only clear bit is p
    iff p is in P, unless the other set is that bit alone.  So the bits P0
    and Q0 those rows give lie in every witness's P and Q, and each witness
    is (P0, Q0), (P0, P0 | Q0) or (P0 | Q0, Q0); the first of these that
    gives the table has the smallest P mask, then Q mask.  With P0 and Q0
    both empty, only the all-true table is 2-monotone: x_k OR ~x_k.
    """
    full = (1 << arity) - 1
    p0 = sum(1 << b for b in range(arity) if not table[full ^ 1 << b]) if table[full] else 0
    q0 = sum(1 << b for b in range(arity) if not table[1 << b]) if table[0] else 0
    if not p0 | q0:
        return ((arity,), (arity,)) if arity and all(table) else None
    for p, q in ((p0, q0), (p0, p0 | q0), (p0 | q0, q0)):
        if all(v == (p and r & p == p or q and not r & q) for r, v in enumerate(table)):
            return tuple(tuple(arity - b for b in reversed(range(arity)) if m >> b & 1)
                         for m in (p, q))
    return None


def classify(f: Constraint) -> ConstraintFlags:
    """Structural flags of a single constraint, decided exhaustively."""
    rows = 1 << f.arity
    full = rows - 1
    trivial = f.is_trivial()
    witness = _two_monotone_witness(f.arity, f.table)
    return ConstraintFlags(
        trivial=trivial,
        zero_valid=f.table[0] == 1,
        one_valid=f.table[full] == 1,
        two_monotone=witness is not None,
        c_closed=all(f.table[r] == f.table[full ^ r] for r in range(rows)),
        symmetric=all(v == f.table[(1 << r.bit_count()) - 1] for r, v in enumerate(f.table)),
        two_monotone_witness=witness,
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Language-level classification; each flag holds iff every non-trivial
    member satisfies the property."""

    language: str
    per_constraint: tuple[tuple[str, ConstraintFlags], ...]
    trivial: bool
    zero_valid: bool
    one_valid: bool
    two_monotone: bool
    c_closed: bool
    symmetric: bool
    verdict: str

    def failing_conditions(self) -> tuple[str, ...]:
        """The conditions a non-trivial language fails, as 'not <name>'."""
        return tuple(f"not {name}" for flag, name in POLY_CONDITIONS[1:]
                     if not getattr(self, flag))


@lru_cache(maxsize=None)
def classify_language(language: ConstraintLanguage) -> ClassificationReport:
    per = tuple((c.name, classify(c)) for c in language)
    nontrivial = [flags for _, flags in per if not flags.trivial]
    # No non-trivial member is trivial: `trivial` holds iff there is none.
    holds = {flag: all(getattr(flags, flag) for flags in nontrivial) for flag in FLAGS}
    poly = any(holds[flag] for flag, _ in POLY_CONDITIONS)
    return ClassificationReport(language.name, per, **holds,
                                verdict=VERDICT_POLY if poly else VERDICT_NP_HARD)


# ---------------------------------------------------------------------------
# Closures

MODE_TF = "TF"
MODE_LIT = "LIT"
MODE_NEG = "NEG"


def _closure_slots(k: int, mode: str):
    """(d, slots) for every surjective slot tuple of length k, smallest
    target arity d first: variables and constants 0/1 under TF, variables
    and their negations under LIT.

    Surjective = every target variable appears in some slot; this keeps the
    closure finite (no padding with unused variables) while staying closed
    under composition, so the closures are idempotent.
    """
    for d in range(0 if mode == MODE_TF else 1, k + 1):
        variables = list(range(1, d + 1))
        extra = ["0", "1"] if mode == MODE_TF else [-i for i in variables]
        for slots in itertools.product(variables + extra, repeat=k):
            if len({abs(s) for s in slots if isinstance(s, int)}) == d:
                yield d, slots


@lru_cache(maxsize=None)
def _sources(language: ConstraintLanguage, mode: str) -> dict:
    """(arity, table) -> (closure member, base constraint, pattern) over the
    TF or LIT pattern space: the originals under the identity, then the
    first pattern over name-sorted members in canonical order.  Only that
    first pattern of each table is built into a member."""
    sources = {c.signature(): (c, c, identity_pattern(c.arity))
               for c in reversed(language.constraints)}
    for c in language:
        if c.arity > CLOSURE_ARITY_CAP:
            raise CapExceededError(
                f"cannot materialize closure of {c.name}: arity {c.arity} "
                f"exceeds cap {CLOSURE_ARITY_CAP}")
        for d, slots in _closure_slots(c.arity, mode):
            key = (d, _substitute(c.table, slots, d))
            if key not in sources:
                pattern = SubstitutionPattern(d, slots)
                sources[key] = (apply_pattern(c, pattern), c, pattern)
    return sources


@lru_cache(maxsize=None)
def closure(language: ConstraintLanguage, mode: str) -> ConstraintLanguage:
    """Materialize Gamma^{T,F}, Gamma^{LIT}, or Gamma^{NEG}.

    Every original member is kept under its own name; each other table is
    named by the first constraint found in canonical enumeration order.
    """
    if mode not in (MODE_TF, MODE_LIT, MODE_NEG):
        raise FormatError(f"unknown closure mode {mode!r}")
    derived = ([c.negation() for c in language] if mode == MODE_NEG
               else [g for g, _, _ in _sources(language, mode).values()])
    first = {g.signature(): g for g in reversed(derived)}  # first one wins
    own = language.signatures()
    return ConstraintLanguage(f"{language.name}^{mode}", language.constraints
                              + tuple(g for k, g in first.items() if k not in own))


@lru_cache(maxsize=None)
def recover_pattern(language: ConstraintLanguage, target: Constraint,
                    mode: str) -> tuple[Constraint, SubstitutionPattern]:
    """The base constraint and pattern that produced target's table in
    closure(language, mode): a member of the language under the identity,
    any other target read from the closure's source table."""
    direct = language.by_table(target.arity, target.table)
    if direct is not None:
        return direct, identity_pattern(target.arity)
    found = _sources(language, mode).get(target.signature())
    if found is None:
        raise PreconditionError(
            f"{target.name} is not expressible from language {language.name!r} "
            f"in mode {mode}")
    return found[1], found[2]


# ---------------------------------------------------------------------------
# Standard constraints

T = make_constraint("T", 1, ["1"])
F = make_constraint("F", 1, ["0"])


def or_constraint(k: int) -> Constraint:
    return Constraint(f"OR{k}", k, tuple(0 if r == 0 else 1 for r in _rows(f"OR{k}", k)))


def and_constraint(k: int) -> Constraint:
    return Constraint(f"AND{k}", k, tuple(1 if r == (1 << k) - 1 else 0
                                          for r in _rows(f"AND{k}", k)))


def nae_constraint(k: int) -> Constraint:
    full = (1 << k) - 1
    return Constraint(f"NAE{k}", k,
                      tuple(0 if r in (0, full) else 1 for r in _rows(f"NAE{k}", k)))


def xor_constraint(k: int) -> Constraint:
    name = "XOR" if k == 2 else f"XOR{k}"
    return Constraint(name, k, tuple(bin(r).count("1") & 1 for r in _rows(name, k)))


def ex_constraint(k: int) -> Constraint:
    """Exactly-one constraint."""
    return Constraint(f"EX{k}", k, tuple(1 if bin(r).count("1") == 1 else 0
                                         for r in _rows(f"EX{k}", k)))


def eq_constraint() -> Constraint:
    return Constraint("EQ", 2, (1, 0, 0, 1))


def dicut_constraint() -> Constraint:
    """f(x, y) = x AND NOT y, the Max DiCut constraint."""
    return Constraint("DICUT", 2, (0, 0, 1, 0))


def recursive_nae(depth: int) -> Constraint:
    """The 3**depth-ary composition: level 0 is the identity, level j wraps
    three level-(j-1) blocks in a ternary not-all-equal."""
    arity = 3 ** depth
    rows = _rows(f"RNAE{depth}", arity)
    nae3 = nae_constraint(3)

    def value(bits: tuple[int, ...]) -> int:
        if len(bits) == 1:
            return bits[0]
        third = len(bits) // 3
        parts = [value(bits[i * third:(i + 1) * third]) for i in range(3)]
        return nae3.value(parts)

    table = tuple(value(row_to_bits(r, arity)) for r in rows)
    return Constraint(f"RNAE{depth}", arity, table)


def standard_constraint(name: str) -> Constraint:
    """Look up a catalog constraint by its conventional name."""
    fixed = {"T": T, "F": F, "XOR": xor_constraint(2), "EQ": eq_constraint(),
             "DICUT": dicut_constraint()}
    if name in fixed:
        return fixed[name]
    for prefix, builder in (("OR", or_constraint), ("AND", and_constraint),
                            ("NAE", nae_constraint), ("XOR", xor_constraint),
                            ("EX", ex_constraint), ("RNAE", recursive_nae)):
        suffix = name[len(prefix):]
        if name.startswith(prefix) and suffix.isdecimal():
            digits = suffix.lstrip("0") or "0"
            # Refused before an int is built: int() stops at 4,300 digits.
            if len(digits) > len(str(TABLE_ARITY_CAP)):
                raise CapExceededError(f"{prefix} with a {len(digits)}-digit suffix "
                                       f"exceeds truth-table cap {TABLE_ARITY_CAP}")
            return builder(int(digits))
    raise KeyError(f"unknown standard constraint {name!r}")
