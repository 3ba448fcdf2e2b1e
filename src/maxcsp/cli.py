"""Command-line interface.

Every command is a pure function of its input bytes and options: canonical
sorted output, no timestamps, so identical invocations are byte-identical.
See the README for the file formats.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from functools import lru_cache
from pathlib import Path

from . import io_formats as io
from .constraints import (FLAGS, POLY_CONDITIONS, classify_language,
                          standard_constraint)
from .errors import MaxCspError
from .expressibility import decompose
from .formulas import RANGE_N, RANGE_Z, random_formula
from .implementations import (DEFAULT_MAX_APPS, DEFAULT_MAX_AUX,
                              search_implementation, verify_implementation)
from .polynomials import characteristic_polynomial, degree_of_constraint, \
    degree_of_language
from .solver import ORACLE_CAP, brute_force
from .transforms import (STAGES, compress_to_polynomial, kernelize,
                         verify_transform, vc_reduce)


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise MaxCspError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _count(least: int):
    """An argparse type: an int no smaller than `least`."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _language(args):
    return None if args.language is None else io.resolve_language_spec(args.language)


def _constraint(name, language=None):
    """The constraint an option names: the language's member of that name
    if there is one, else the standard catalog constraint."""
    if language is not None:
        with contextlib.suppress(KeyError):
            return language.get(name)
    try:
        return standard_constraint(name)
    except KeyError as exc:
        raise MaxCspError(exc.args[0]) from None


def cmd_classify(args) -> int:
    language = _language(args)
    report = classify_language(language)
    out = []
    for name, flags in report.per_constraint:
        props = [flag for flag in FLAGS if getattr(flags, flag)]
        out.append(f"{name}: {' '.join(props) if props else '-'}")
    if report.verdict == "np_hard":
        out.append(f"np_hard ({', '.join(report.failing_conditions())})")
    else:
        reasons = [flag for flag, _ in POLY_CONDITIONS if getattr(report, flag)]
        out.append(f"poly_time_solvable ({', '.join(reasons)})")
    _write(args, "\n".join(out) + "\n")
    return 0


def cmd_degree(args) -> int:
    language = _language(args)
    out = []
    if args.per_constraint:
        out += [f"{c.name} {degree_of_constraint(c)}" for c in language]
    out.append(str(degree_of_language(language)))
    _write(args, "\n".join(out) + "\n")
    return 0


def cmd_poly(args) -> int:
    c = _constraint(args.target, _language(args))
    _write(args, io.emit_polynomial(characteristic_polynomial(c), c.arity))
    return 0


def cmd_decompose(args) -> int:
    base = _constraint(args.base, _language(args))
    combo = decompose(_target_polynomial(args), base)
    _write(args, io.emit_decomposition(combo))
    return 0


def _target_polynomial(args):
    if args.target_poly is not None:
        return io.parse_polynomial(io.read_file(args.target_poly))[0]
    return characteristic_polynomial(_constraint(args.target))


def cmd_implement(args) -> int:
    language = _language(args)
    target = _constraint(args.target)
    impl = search_implementation(language, target, args.max_aux, args.max_apps)
    if impl is None:
        _write(args, "not-found\n")
        return 0
    _write(args, io.emit_implementation(impl))
    return 0


def cmd_transform(args) -> int:
    language = _language(args)
    stage = STAGES[args.op]
    if stage.needs_target != (args.target_language is not None):
        rule = "required for" if stage.needs_target else "not read by"
        raise MaxCspError(f"--target-language is {rule} {args.op}")
    target_language = (io.resolve_language_spec(args.target_language)
                       if stage.needs_target else None)
    over = language if stage.mode is None else io.closure(language, stage.mode)
    phi, _ = io.parse_instance(io.read_file(args.instance), over)
    phi2, cert = stage.run(phi, language, target_language)
    _write(args, io.emit_instance(phi2, cert))
    return _verify(phi, phi2, cert, args.oracle_cap) if args.verify else 0


def _verify(phi1, phi2, cert, oracle_cap) -> int:
    """Report every certificate check on stderr; exit 1 on a failure."""
    report = verify_transform(phi1, phi2, cert, oracle_cap)
    for check in report.checks:
        status = "SKIP" if check.passed is None else ("PASS" if check.passed else "FAIL")
        detail = f"  ({check.detail})" if check.detail else ""
        sys.stderr.write(f"{status} {check.name}{detail}\n")
    return 0 if report.all_passed else 1


def cmd_kernelize(args) -> int:
    language = _language(args)
    phi, _ = io.parse_instance(io.read_file(args.instance), language)
    result = kernelize(phi, language, args.oracle_cap)
    rep = result.report
    text = io.emit_instance(result.formula, result.certificate)
    text += (f"# kernel degree={rep.degree} monomials={rep.monomials}"
             f" bound={rep.monomial_bound} apps={rep.kernel_apps}"
             f" nvars={rep.kernel_nvars} constant={rep.app_bound_constant}"
             f" bits={rep.encoded_bits}\n")
    _write(args, text)
    cert = result.certificate
    return _verify(phi, result.formula, cert, args.oracle_cap) if args.verify else 0


def cmd_compress(args) -> int:
    language = _language(args)
    phi, _ = io.parse_instance(io.read_file(args.instance), language)
    result = compress_to_polynomial(phi)
    text = f"compress {result.nvars} {result.threshold}\n"
    text += io.emit_polynomial(result.polynomial, result.nvars)
    _write(args, text)
    return 0


def cmd_solve(args) -> int:
    language = _language(args)
    phi, _ = io.parse_instance(io.read_file(args.instance), language)
    res = brute_force(phi, args.oracle_cap)
    out = [f"optimum {res.optimum}",
           "witness " + "".join(str(b) for b in res.witness),
           f"decision {'yes' if res.optimum >= phi.threshold else 'no'}"]
    if args.exact:
        out.append(f"exact {'yes' if res.exact else 'no'}")
    _write(args, "\n".join(out) + "\n")
    return 0


def cmd_verify_transform(args) -> int:
    language = _language(args)
    out_language = (io.resolve_language_spec(args.out_language)
                    if args.out_language else language)
    phi1, _ = io.parse_instance(io.read_file(args.source), language)
    phi2, cert = io.parse_instance(io.read_file(args.result), out_language)
    if cert is None:
        raise MaxCspError(f"{args.result} carries no certificate block")
    return _verify(phi1, phi2, cert, args.oracle_cap)


def cmd_verify_decomposition(args) -> int:
    base = _constraint(args.base, _language(args))
    combo = io.parse_decomposition(io.read_file(args.path), base)
    ok = combo.expand() == _target_polynomial(args)
    sys.stderr.write(("PASS" if ok else "FAIL") + " formal-identity\n")
    return 0 if ok else 1


def cmd_verify_implementation(args) -> int:
    language = _language(args)
    target = _constraint(args.target)
    impl = io.parse_implementation(io.read_file(args.path), language, target)
    res = verify_implementation(impl)
    sys.stderr.write(f"valid={int(res.valid)} alpha={res.alpha} "
                     f"strict={int(res.strict)}\n")
    wrong = " ".join(f"{k}={stated}" for k, stated, real in (
        ("alpha", impl.alpha, res.alpha), ("strict", impl.strict, res.strict))
        if stated not in (None, real))
    if wrong:
        sys.stderr.write(f"FAIL stated {wrong}\n")
    return 0 if res.valid and not wrong else 1


def cmd_vc_reduce(args) -> int:
    n, edges = io.parse_graph(io.read_file(args.graph))
    phi = vc_reduce(n, edges, args.k)
    _write(args, io.emit_instance(phi))
    return 0


def cmd_random(args) -> int:
    language = _language(args)
    phi = random_formula(language, args.nvars, args.napps, args.weight_range,
                         args.max_weight, args.seed, args.threshold)
    _write(args, io.emit_instance(phi))
    return 0


def _add_common(p, instance=False, needs_language=True, output=True):
    p.add_argument("--language", required=needs_language,
                   help="builtin key, tf:/lit:/neg: closure, or file")
    if instance:
        p.add_argument("--instance", required=True)
    if output:
        p.add_argument("-o", "--output")


def _add_decomposition(p):
    """--base, and exactly one of --target and --target-poly."""
    p.add_argument("--base", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target")
    target.add_argument("--target-poly")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="maxcsp",
        description="Constraint-language analysis, reductions, and "
                    "kernelization for weighted Boolean Max CSP.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="dichotomy classification of a language")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("degree", help="characteristic-polynomial degree")
    _add_common(p)
    p.add_argument("--per-constraint", action="store_true")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("poly", help="characteristic polynomial of a constraint")
    _add_common(p, needs_language=False)
    p.add_argument("--constraint", dest="target", required=True)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("decompose", help="rational combination over {f}^(T,F)")
    _add_common(p, needs_language=False)
    _add_decomposition(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("implement", help="search a strict implementation")
    _add_common(p)
    p.add_argument("--max-aux", type=_count(0), default=DEFAULT_MAX_AUX)
    p.add_argument("--max-apps", type=_count(0), default=DEFAULT_MAX_APPS)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_implement)

    p = sub.add_parser("transform", help="apply one reduction step or chain")
    _add_common(p, instance=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--oracle-cap", type=_count(0), default=ORACLE_CAP)
    p.add_argument("--op", choices=STAGES, required=True)
    p.add_argument("--target-language")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("kernelize", help="full kernelization pipeline")
    _add_common(p, instance=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--oracle-cap", type=_count(0), default=ORACLE_CAP)
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("compress", help="monomial-coefficient compression")
    _add_common(p, instance=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("solve", help="exhaustive reference solver")
    _add_common(p, instance=True)
    p.add_argument("--oracle-cap", type=_count(0), default=ORACLE_CAP)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check transforms, decompositions, "
                                      "implementations against the oracle")
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("transform", help="a certificate and its two instances")
    p.add_argument("source")
    p.add_argument("result")
    _add_common(p, output=False)
    p.add_argument("--out-language")
    p.add_argument("--oracle-cap", type=_count(0), default=ORACLE_CAP)
    p.set_defaults(func=cmd_verify_transform)
    p = kinds.add_parser("decomposition", help="a combination's formal identity")
    p.add_argument("path")
    _add_common(p, needs_language=False, output=False)
    _add_decomposition(p)
    p.set_defaults(func=cmd_verify_decomposition)
    p = kinds.add_parser("implementation", help="a strict implementation")
    p.add_argument("path")
    _add_common(p, output=False)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_verify_implementation)

    p = sub.add_parser("vc-reduce", help="Vertex Cover to weighted Max 2-SAT")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_vc_reduce)

    p = sub.add_parser("random", help="seeded random instance (test utility)")
    _add_common(p)
    p.add_argument("--nvars", type=_count(1), required=True)
    p.add_argument("--napps", type=_count(0), required=True)
    p.add_argument("--weight-range", choices=(RANGE_Z, RANGE_N), default=RANGE_N)
    p.add_argument("--max-weight", type=_count(0), default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=int, default=None)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MaxCspError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
