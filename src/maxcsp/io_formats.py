"""Text formats, each named below by its header's usage string.

Emitters write canonical, newline-terminated ASCII, so identical inputs
give byte-identical outputs.  '#' starts a comment anywhere a line begins.
A file's first line is its header, read by one rule against its usage.
Parsers name the offending line, except that an instance's index-range or
sign fault names its application (name, indices, weight), first in order.

constraint <name> <arity>              satisfying rows as bit strings ('-'
                                       at arity 0), end; a block per member
maxcsp <n> <m> <Z|N> <t>               m lines <name> <weight> <i1> ... <ik>,
                                       then an optional certificate block
certificate <label>                    kind, vars, sizes, weights, thresholds,
                                       value_map, bounds, [stages] lines, end
poly <nvars> <nterms>                  <coeff> <i1> <i2> ... per term ('-' for
                                       the constant), indices in 1..nvars
impl <target> ...                      p=<p> q=<q> [alpha=<a>] [strict=<0|1>],
                                       then <name> <i1> ... <ik> lines, end
decomposition <base> <nvars> <nterms>  <alpha> <pattern> <indices> lines, end
graph <n> <e>                          e lines <u> <v>
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .certificates import (AFFINE, EXISTENTIAL, KIND_ADDITIVE, KIND_LINEAR,
                           TransformCertificate)
from .constraints import (MODE_LIT, MODE_NEG, MODE_TF, Constraint,
                          ConstraintLanguage, apply_pattern, closure,
                          make_constraint, parse_pattern, render_pattern)
from .errors import FormatError
from .expressibility import CombinationTerm, LinearCombination
from .formulas import RANGE_N, RANGE_Z, Formula
from .implementations import Implementation
from .languages import builtin_language
from .polynomials import MultilinearPolynomial


def _lines(text: str, first: int = 1):
    for num, raw in enumerate(text.splitlines(), start=first):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield num, line


def _fail(num: int, msg: str):
    raise FormatError(f"line {num}: {msg}")


def _header(first, usage: str) -> tuple[int, list[str]]:
    """The line number and fields of a file's first (number, line) pair,
    checked against its usage string; a closing '...' allows more fields."""
    keyword, *names = usage.split()
    if first is None:
        raise FormatError(f"missing '{keyword}' header")
    num, line = first
    parts = line.split()
    fits = len(parts) >= len(names) if names[-1] == "..." else len(parts) == len(names) + 1
    if parts[0] != keyword or not fits:
        _fail(num, f"expected {usage!r}, got {line!r}")
    return num, parts[1:]


def _found(declared: int, found: int, what: str) -> None:
    """Refuse a body that does not hold the `declared` items of its header."""
    if found != declared:
        raise FormatError(f"header declares {declared} {what}, found {found}")


def _int(num: int, text: str, what: str, kind=int) -> int:
    """A field of line `num` read as `kind`; `what` names it in the error."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        _fail(num, f"bad {what} {text!r}")


def _count(num: int, text: str, what: str, least: int = 0) -> int:
    """A header count of line `num`: an int, refused below `least`."""
    value = _int(num, text, what)
    if value < least:
        _fail(num, f"{'negative' if value < 0 else 'zero'} {what} {text!r}")
    return value


def read_file(path) -> str:
    """The text of a file; a path that cannot be read is a FormatError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FormatError(f"cannot read {path}: not UTF-8 text") from None


def _until_end(lines):
    """The (number, line) pairs before an 'end' line; refuses any after it."""
    lines = iter(lines)
    for num, line in lines:
        if line == "end":
            for num, _ in lines:
                _fail(num, "unexpected line after 'end'")
            return
        yield num, line


# ---------------------------------------------------------------------------
# Languages


def parse_language(text: str, name: str = "language") -> ConstraintLanguage:
    constraints = {}
    lines = _lines(text)
    for first in lines:
        num, (cname, arity) = _header(first, "constraint <name> <arity>")
        arity = _count(num, arity, "arity")
        if cname in constraints:
            _fail(num, f"repeated constraint {cname!r}")
        rows = []
        for num, line in lines:
            if line == "end":
                break
            row = "" if line == "-" else line
            if len(row) != arity or any(ch not in "01" for ch in row):
                _fail(num, f"bad row {line!r} for arity {arity}")
            rows.append(row)
        else:
            raise FormatError(f"constraint {cname!r} not terminated by 'end'")
        try:
            constraints[cname] = make_constraint(cname, arity, rows)
        except FormatError as exc:
            _fail(num, str(exc))
    if not constraints:
        raise FormatError("language file defines no constraints")
    return ConstraintLanguage(name, tuple(constraints.values()))


def resolve_language_spec(spec: str) -> ConstraintLanguage:
    """A language argument: a builtin key ('xor'), a closure of one
    ('tf:xor', 'lit:nae3', 'neg:xor'), or a path to a language file."""
    prefix, _, rest = spec.partition(":")
    modes = {"tf": MODE_TF, "lit": MODE_LIT, "neg": MODE_NEG}
    if rest and prefix in modes:
        return closure(resolve_language_spec(rest), modes[prefix])
    try:
        return builtin_language(spec)
    except KeyError:
        pass
    path = Path(spec)
    if not path.is_file():
        raise FormatError(f"{spec!r} is neither a builtin language nor a file")
    return parse_language(read_file(path), name=path.stem)


# ---------------------------------------------------------------------------
# Instances (with optional appended certificate block)


def parse_instance(text: str, language: ConstraintLanguage
                   ) -> tuple[Formula, TransformCertificate | None]:
    """The lines are grouped by constraint name and read a column at a
    time, one entry each; only on a fault does a loop name its line."""
    lines = text.splitlines()
    rows = [raw.partition("#")[0].split() for raw in lines]
    num = next((i for i, parts in enumerate(rows, 1) if parts), None)
    num, (n, m, weight_range, t) = _header(
        num and (num, lines[num - 1].partition("#")[0].strip()), "maxcsp <n> <m> <Z|N> <t>")
    n, m = _count(num, n, "variable count", 1), _count(num, m, "application count")
    t = _int(num, t, "threshold")
    if weight_range not in (RANGE_Z, RANGE_N):
        _fail(num, f"weight range must be Z or N, got {weight_range!r}")
    cut = next((i for i in range(num, len(rows)) if rows[i][:1] == ["certificate"]),
               len(rows)) if "certificate" in text else len(rows)
    by_name, groups = {}, {}
    for parts in rows[num:cut]:
        if parts:
            by_name.setdefault(parts[0], []).append(parts)
    try:
        for name, entries in by_name.items():
            c = language.get(name)
            if set(map(len, entries)) != {c.arity + 2}:
                raise ValueError
            _, weights, *columns = zip(*entries)
            groups[c] = (list(zip(*[map(int, col) for col in columns])) if columns
                         else [()] * len(entries), list(map(int, weights)))
    except (KeyError, ValueError):
        for num, parts in enumerate(rows[num:cut], num + 1):
            if len(parts) == 1:
                _fail(num, f"expected '<name> <weight> <indices...>', got {parts[0]!r}")
            if parts:
                try:
                    c = language.get(parts[0])
                except KeyError as exc:
                    _fail(num, exc.args[0])
                _int(num, parts[1], "weight")
                idx = [_int(num, p, "index") for p in parts[2:]]
                if len(idx) != c.arity:
                    _fail(num, f"{c.name} has arity {c.arity}, got {len(idx)} indices")
    _found(m, sum(map(len, by_name.values())), "applications")
    phi = Formula(n, groups, weight_range, t)
    if cut == len(rows):
        return phi, None
    return phi, _parse_certificate_lines(_lines("\n".join(lines[cut:]), cut + 1))


def emit_instance(phi: Formula, cert: TransformCertificate | None = None) -> str:
    out = [f"maxcsp {phi.nvars} {phi.size} {phi.weight_range} {phi.threshold}\n"]
    for c, pairs in phi.sorted_groups():
        line = c.name.replace("%", "%%") + " %s" * (1 + c.arity) + "\n"  # weight, indices
        out += [line % ((w,) + i) for i, w in pairs]
    text = "".join(out)
    if cert is not None:
        text += emit_certificate(cert)
    return text


# ---------------------------------------------------------------------------
# Certificates


# Certificate lines that hold two integer fields, and the integer bounds.
_CERT_PAIRS = (("vars", "n_in", "n_out"), ("sizes", "size_in", "size_out"),
               ("weights", "weight_in", "weight_out"),
               ("thresholds", "t_in", "t_out"))
_CERT_BOUNDS = ("var_bound", "size_factor", "weight_factor", "weight_exponent")
_CERT_ARITY = {key: 2 for key, _, _ in _CERT_PAIRS} | {"bounds": len(_CERT_BOUNDS)}
_CERT_KEYS = ("certificate", "kind", "value_map", "stages", *_CERT_ARITY)


def emit_certificate(cert: TransformCertificate) -> str:
    out = [f"certificate {cert.label}", f"kind {cert.kind}"]
    out += [f"{key} {getattr(cert, a)} {getattr(cert, b)}"
            for key, a, b in _CERT_PAIRS]
    if cert.value_map[0] == AFFINE:
        out.append(f"value_map affine {cert.value_map[1]} {cert.value_map[2]}")
    else:
        out.append("value_map existential")
    out.append("bounds " + " ".join(str(getattr(cert, f)) for f in _CERT_BOUNDS))
    if cert.stages:
        out.append("stages " + ",".join(cert.stages))
    out.append("end")
    return "\n".join(out) + "\n"


def _parse_certificate_lines(lines) -> TransformCertificate:
    fields: dict = {}
    for num, line in _until_end(lines):
        key, *vals = line.split()
        if key not in _CERT_KEYS:
            _fail(num, f"unknown key {key!r}")
        elif key in fields:
            _fail(num, f"repeated {key!r} line")
        elif key in ("certificate", "stages") and len(vals) != 1:
            _fail(num, f"expected '{key} <label>'")
        elif key == "kind" and vals not in ([KIND_ADDITIVE], [KIND_LINEAR]):
            _fail(num, f"bad kind {line!r}")
        elif key == "value_map" and not (vals[:1] == [AFFINE] and len(vals) == 3
                                         or vals == [EXISTENTIAL]):
            _fail(num, f"bad value map {line!r}")
        elif len(vals) != _CERT_ARITY.get(key, len(vals)):
            _fail(num, f"expected {_CERT_ARITY[key]} values in {line!r}")
        elif key == "value_map":
            fields[key] = (vals[0], *(_int(num, v, "value map", Fraction) for v in vals[1:]))
        else:
            fields[key] = ([_int(num, v, f"{key} value") for v in vals]
                           if key in _CERT_ARITY else vals)
    if "certificate" not in fields:
        raise FormatError("certificate block missing its header")
    try:
        values = {"label": fields["certificate"][0], "kind": fields["kind"][0],
                  "value_map": fields["value_map"],
                  "stages": tuple(fields["stages"][0].split(",")) if "stages" in fields else ()}
        for key, a, b in _CERT_PAIRS:
            values[a], values[b] = fields[key]
        values.update(zip(_CERT_BOUNDS, fields["bounds"]))
    except KeyError as exc:
        raise FormatError(f"malformed certificate block: missing {exc} line")
    return TransformCertificate(**values)


# ---------------------------------------------------------------------------
# Polynomials


def emit_polynomial(poly: MultilinearPolynomial, nvars: int) -> str:
    out = [f"poly {nvars} {len(poly.terms)}"]
    for mono, coeff in poly.sorted_terms():
        body = " ".join(str(i) for i in sorted(mono)) if mono else "-"
        out.append(f"{coeff} {body}")
    return "\n".join(out) + "\n"


def parse_polynomial(text: str) -> tuple[MultilinearPolynomial, int]:
    lines = _lines(text)
    num, (nvars, nterms) = _header(next(lines, None), "poly <nvars> <nterms>")
    nvars, nterms = _count(num, nvars, "variable count"), _count(num, nterms, "term count")
    terms = {}
    for num, line in lines:
        parts = line.split()
        try:
            coeff = Fraction(parts[0])
            indices = [] if parts[1:] == ["-"] else [int(p) for p in parts[1:]]
        except (ValueError, ZeroDivisionError):
            _fail(num, f"bad term {line!r}")
        mono = frozenset(indices)
        if len(mono) != len(indices):
            _fail(num, f"repeated index in {line!r}")
        if not all(1 <= i <= nvars for i in mono):
            _fail(num, f"index outside 1..{nvars} in {line!r}")
        if mono in terms:
            _fail(num, f"duplicate monomial in {line!r}")
        terms[mono] = coeff
    _found(nterms, len(terms), "terms")
    return MultilinearPolynomial(terms), nvars


# ---------------------------------------------------------------------------
# Implementations


def emit_implementation(impl: Implementation) -> str:
    out = [f"impl {impl.target.name} p={impl.primary_arity} q={impl.aux_count} "
           f"alpha={impl.alpha} strict={int(impl.strict)}"]
    for c, idx in impl.applications:
        out.append(f"{c.name} " + " ".join(str(i) for i in idx))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_implementation(text: str, language: ConstraintLanguage,
                         target: Constraint) -> Implementation:
    """The candidate a file states, checked for format and index ranges
    only: alpha and strict are the header's claims (None where it states
    none), for the caller to compare with verify_implementation's."""
    lines = _lines(text)
    first = next(lines, None)
    num, (name, *claims) = _header(first, "impl <target> ...")
    kv = dict(p.partition("=")[::2] for p in claims)
    if len(kv) < len(claims) or not kv.keys() <= {"p", "q", "alpha", "strict"}:
        _fail(num, f"expected p=, q=, alpha=, strict= at most once each, got {first[1]!r}")
    p, q = (_int(num, kv.get(k, ""), f"{k}=") for k in ("p", "q"))
    if min(p, q) < 0:
        _fail(num, f"p= and q= must be nonnegative, got {first[1]!r}")
    alpha, strict = (_int(num, kv[k], f"{k}=") if k in kv else None
                     for k in ("alpha", "strict"))
    if name != target.name:
        _fail(num, f"implementation targets {name!r}, not {target.name!r}")
    apps = []
    for num, line in _until_end(lines):
        parts = line.split()
        try:
            c = language.get(parts[0])
        except KeyError as exc:
            _fail(num, exc.args[0])
        idx = tuple(_int(num, i, "index") for i in parts[1:])
        if len(idx) != c.arity or not all(1 <= i <= p + q for i in idx):
            _fail(num, f"{c.name} needs {c.arity} indices in 1..{p + q}, got {line!r}")
        apps.append((c, idx))
    return Implementation(target, p, q, tuple(apps), alpha, strict)


# ---------------------------------------------------------------------------
# Decompositions


def emit_decomposition(combo: LinearCombination) -> str:
    out = [f"decomposition {combo.base.name} {combo.nvars} {len(combo.terms)}"]
    for t in combo.terms:
        idx = ",".join(str(i) for i in t.indices) if t.indices else "-"
        out.append(f"{t.coefficient} {render_pattern(t.pattern)} {idx}")
    out.append("end")
    return "\n".join(out) + "\n"


def parse_decomposition(text: str, base: Constraint) -> LinearCombination:
    lines = _lines(text)
    num, (name, nvars, nterms) = _header(next(lines, None),
                                         "decomposition <base> <nvars> <nterms>")
    if name != base.name:
        _fail(num, f"decomposition is over {name!r}, not {base.name!r}")
    nvars, nterms = _count(num, nvars, "variable count"), _count(num, nterms, "term count")
    terms = []
    for num, line in _until_end(lines):
        parts = line.split()
        if len(parts) != 3:
            _fail(num, f"expected '<alpha> <pattern> <indices>', got {line!r}")
        try:
            coeff = Fraction(parts[0])
            indices = (() if parts[2] == "-"
                       else tuple(int(p) for p in parts[2].split(",")))
            pattern = parse_pattern(parts[1], len(indices))
            if any(isinstance(s, int) and s < 0 for s in pattern.slots):
                raise FormatError("negated slot in constants-only pattern")
            constraint = apply_pattern(base, pattern)
        except (ValueError, ZeroDivisionError, FormatError) as exc:
            _fail(num, f"bad decomposition term: {exc}")
        if not all(1 <= i <= nvars for i in indices):
            _fail(num, f"index outside 1..{nvars} in {line!r}")
        terms.append(CombinationTerm(pattern, constraint, indices, coeff))
    _found(nterms, len(terms), "terms")
    return LinearCombination(base, nvars, tuple(terms))


# ---------------------------------------------------------------------------
# Graphs


def parse_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = _lines(text)
    num, (n, e) = _header(next(lines, None), "graph <n> <e>")
    n, e = _count(num, n, "vertex count", 1), _count(num, e, "edge count")
    edges = []
    for num, line in lines:
        parts = line.split()
        if len(parts) != 2:
            _fail(num, f"expected '<u> <v>', got {line!r}")
        edges.append((_int(num, parts[0], "vertex"),
                      _int(num, parts[1], "vertex")))
    _found(e, len(edges), "edges")
    return n, edges
