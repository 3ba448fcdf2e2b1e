"""Text formats: languages, instances, polynomials, implementations,
decompositions, certificates, graphs.

All emitters produce canonical, newline-terminated ASCII so identical
inputs give byte-identical outputs.  Parsers report the offending line
number, except that an instance's index-range or sign fault is named by
its application's (name, indices, weight), the first in that order.  The
'#' character starts a comment anywhere a line begins.

Language files:     constraint <name> <arity> / one satisfying row per
                    line as a bit string ('-' for the empty row of an
                    arity-0 member, a constant as in a closure) / end;
                    read only, never emitted.
Instance files:     maxcsp <n> <m> <Z|N> <t> followed by m lines
                    <name> <weight> <i1> ... <ik>, then an optional
                    certificate block.
Polynomials:        poly <nvars> <nterms>, then <coeff> <i1> <i2> ...
                    per term, indices in 1..nvars, '-' for the constant.
Graphs:             graph <n> <e> followed by e lines <u> <v>.
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


def _require_header(header, keyword: str, found: int | None = None,
                    what: str = "") -> None:
    """Refuse a file without its header, or whose body does not hold the
    `found` items the header declares in its second field."""
    if header is None:
        raise FormatError(f"missing '{keyword}' header")
    if found is not None and found != header[1]:
        raise FormatError(f"header declares {header[1]} {what}, found {found}")


def _int(num: int, text: str, what: str, kind=int) -> int:
    """A field of line `num` read as `kind`; `what` names it in the error."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        _fail(num, f"bad {what} {text!r}")


def _count(num: int, text: str, what: str) -> int:
    """A header count of line `num`: an int, refused when negative."""
    value = _int(num, text, what)
    if value < 0:
        _fail(num, f"negative {what} {text!r}")
    return value


def read_file(path) -> str:
    """The text of a file; a path that cannot be read is a FormatError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FormatError(f"cannot read {path}: not UTF-8 text") from None


def _end(lines) -> None:
    """A block's 'end' line: refuse any line left after it."""
    for num, _ in lines:
        _fail(num, "unexpected line after 'end'")


# ---------------------------------------------------------------------------
# Languages


def parse_language(text: str, name: str = "language") -> ConstraintLanguage:
    constraints = []
    current: tuple[str, int] | None = None
    rows: list = []
    for num, line in _lines(text):
        parts = line.split()
        if current is None:
            if parts[0] != "constraint" or len(parts) != 3:
                _fail(num, f"expected 'constraint <name> <arity>', got {line!r}")
            arity = _int(num, parts[2], "arity")
            if arity < 0:
                _fail(num, f"negative arity in {line!r}")
            current = (parts[1], arity)
            rows = []
        elif line == "end":
            try:
                constraints.append(make_constraint(current[0], current[1], rows))
            except FormatError as exc:
                _fail(num, str(exc))
            current = None
        else:
            if len(parts) != 1:
                _fail(num, f"expected one satisfying row, got {line!r}")
            row = "" if line == "-" else line
            if len(row) != current[1] or any(ch not in "01" for ch in row):
                _fail(num, f"bad row {line!r} for arity {current[1]}")
            rows.append(row)
    if current is not None:
        raise FormatError(f"constraint {current[0]!r} not terminated by 'end'")
    if not constraints:
        raise FormatError("language file defines no constraints")
    return ConstraintLanguage(name, tuple(constraints))


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
    _require_header(num, "maxcsp")
    keyword, *fields = rows[num - 1]
    if keyword != "maxcsp" or len(fields) != 4:
        line = lines[num - 1].partition("#")[0].strip()
        _fail(num, f"expected 'maxcsp <n> <m> <Z|N> <t>', got {line!r}")
    n = _count(num, fields[0], "variable count")
    m = _count(num, fields[1], "application count")
    t = _int(num, fields[3], "threshold")
    if fields[2] not in (RANGE_Z, RANGE_N):
        _fail(num, f"weight range must be Z or N, got {fields[2]!r}")
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
    _require_header((n, m), "maxcsp", sum(map(len, by_name.values())), "applications")
    phi = Formula(n, groups, fields[2], t)
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
    lines = iter(lines)
    for num, line in lines:
        key, *vals = line.split()
        if key == "end":
            _end(lines)
        elif key not in _CERT_KEYS:
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
    header = None
    terms = {}
    for num, line in _lines(text):
        parts = line.split()
        if header is None:
            if parts[0] != "poly" or len(parts) != 3:
                _fail(num, f"expected 'poly <nvars> <nterms>', got {line!r}")
            header = (_count(num, parts[1], "variable count"),
                      _count(num, parts[2], "term count"))
        else:
            try:
                coeff = Fraction(parts[0])
                indices = [] if parts[1:] == ["-"] else [int(p) for p in parts[1:]]
            except (ValueError, ZeroDivisionError):
                _fail(num, f"bad term {line!r}")
            mono = frozenset(indices)
            if len(mono) != len(indices):
                _fail(num, f"repeated index in {line!r}")
            if not all(1 <= i <= header[0] for i in mono):
                _fail(num, f"index outside 1..{header[0]} in {line!r}")
            if mono in terms:
                _fail(num, f"duplicate monomial in {line!r}")
            terms[mono] = coeff
    _require_header(header, "poly", len(terms), "terms")
    return MultilinearPolynomial(terms), header[0]


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
    header = None
    apps = []
    lines = _lines(text)
    for num, line in lines:
        parts = line.split()
        if header is None:
            if parts[0] != "impl" or len(parts) < 2:
                _fail(num, f"expected 'impl ...', got {line!r}")
            kv = dict(p.partition("=")[::2] for p in parts[2:])
            header = (_int(num, kv.get("p", ""), "p="),
                      _int(num, kv.get("q", ""), "q="))
            if min(header) < 0:
                _fail(num, f"p= and q= must be nonnegative, got {line!r}")
            alpha, strict = (_int(num, kv[k], f"{k}=") if k in kv else None
                             for k in ("alpha", "strict"))
            if parts[1] != target.name:
                _fail(num, f"implementation targets {parts[1]!r}, not {target.name!r}")
        elif line == "end":
            _end(lines)
        else:
            try:
                c = language.get(parts[0])
            except KeyError as exc:
                _fail(num, exc.args[0])
            idx = tuple(_int(num, p, "index") for p in parts[1:])
            if len(idx) != c.arity or not all(1 <= i <= sum(header) for i in idx):
                _fail(num, f"{c.name} needs {c.arity} indices in "
                           f"1..{sum(header)}, got {line!r}")
            apps.append((c, idx))
    _require_header(header, "impl")
    return Implementation(target, *header, tuple(apps), alpha, strict)


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
    header = None
    terms = []
    lines = _lines(text)
    for num, line in lines:
        parts = line.split()
        if header is None:
            if parts[0] != "decomposition" or len(parts) != 4:
                _fail(num, f"expected decomposition header, got {line!r}")
            if parts[1] != base.name:
                _fail(num, f"decomposition is over {parts[1]!r}, not {base.name!r}")
            header = (_count(num, parts[2], "variable count"),
                      _count(num, parts[3], "term count"))
        elif line == "end":
            _end(lines)
        else:
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
            if not all(1 <= i <= header[0] for i in indices):
                _fail(num, f"index outside 1..{header[0]} in {line!r}")
            terms.append(CombinationTerm(pattern, constraint, indices, coeff))
    _require_header(header, "decomposition", len(terms), "terms")
    return LinearCombination(base, header[0], tuple(terms))


# ---------------------------------------------------------------------------
# Graphs


def parse_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    header = None
    edges = []
    for num, line in _lines(text):
        parts = line.split()
        if header is None:
            if parts[0] != "graph" or len(parts) != 3:
                _fail(num, f"expected 'graph <n> <e>', got {line!r}")
            header = (_count(num, parts[1], "vertex count"),
                      _count(num, parts[2], "edge count"))
        else:
            if len(parts) != 2:
                _fail(num, f"expected '<u> <v>', got {line!r}")
            edges.append((_int(num, parts[0], "vertex"),
                          _int(num, parts[1], "vertex")))
    _require_header(header, "graph", len(edges), "edges")
    return header[0], edges
