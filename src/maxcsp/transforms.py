"""Reductions between weighted constraint systems.

The five lemma-level transforms (negation removal, sign removal, polynomial
re-expression, constant elimination, literal elimination), their additive
and linear compositions, the kernelization pipeline that re-encodes an
instance through its monomials, and the Vertex-Cover gadget.

One table, STAGES, holds each stage's facts under its CLI op name.  A lemma
row holds its certificate label, the closure mode its input is parsed in,
whether it reads a target language, its kind, and a `run` that calls the
lemma.  A composition row (chain-z, chain-n) holds its label and its ops.
One runner, _run, takes (op, source, target) steps through the table;
chain_stages, chain and exp_cycle are such step lists.

Every transform returns the rewritten formula together with a
TransformCertificate recording the variable/size/weight accounting and the
value map (an affine relation where one exists, otherwise an existential
correspondence of the threshold queries).  Certificates are oracle-checkable
via verify_transform.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat
from operator import add, itemgetter, mul

from .certificates import (AFFINE, EXISTENTIAL, KIND_ADDITIVE, KIND_LINEAR,
                           TransformCertificate, build_certificate,
                           endpoints)
from .constraints import (MODE_LIT, MODE_NEG, MODE_TF, POLY_CONDITIONS,
                          VERDICT_POLY, ConstraintLanguage, classify_language,
                          closure, recover_pattern, xor_constraint, T, F)
from .errors import FormatError, PreconditionError
from .expressibility import language_denominator, max_degree_member
from .formulas import RANGE_N, RANGE_Z, Formula, empty_formula
from .implementations import (DEFAULT_MAX_APPS, DEFAULT_MAX_AUX,
                              Implementation, search_implementation)
from .languages import gamma_d_and, gamma_d_sat
from .polynomials import (MultilinearPolynomial, add_composed,
                          characteristic_polynomial, degree_of_language)
from .solver import ORACLE_CAP, affine_holds, decisions


def _certify(op, phi, phi2, value_map, **bounds):
    """The certificate of phi -> phi2 made by `op`.  A row of STAGES gives
    its label and kind; kernelization's own steps have no row and keep `op`
    as their label.  A kind the row leaves open follows from the stages
    (none: additive)."""
    row = STAGES.get(op, Stage(op, None))
    return build_certificate(row.label, phi, phi2, row.kind, value_map, **bounds)


def _degenerate(op, phi, geq_yes: bool, eq_yes: bool):
    """Constant-size instance with the same answers: the empty formula has
    the single value 0, so t' = 0 keeps both queries yes, t' = -1 keeps only
    the >= query yes, and t' = 1 makes both no."""
    if eq_yes and not geq_yes:
        raise FormatError("an exact hit implies the threshold is reachable")
    t2 = 0 if eq_yes else (-1 if geq_yes else 1)
    phi2 = empty_formula(1, RANGE_N, t2)
    return phi2, _certify(op, phi, phi2, (EXISTENTIAL,), var_bound=1,
                          size_factor=1, weight_factor=1, weight_exponent=0)


def _hard_report(label: str, language: ConstraintLanguage, two_monotone: bool):
    """Classify the language, refusing the polynomial-time cases a reduction
    cannot start from (trivial, 0-valid, 1-valid, and 2-monotone if asked);
    the error names the stage `label` and the language."""
    report = classify_language(language)
    for flag, name in POLY_CONDITIONS if two_monotone else POLY_CONDITIONS[:3]:
        if getattr(report, flag):
            raise PreconditionError(f"{label}: language {language.name!r} is {name}")
    return report


# ---------------------------------------------------------------------------
# Signed reductions (negation-wise closure vs. negative weights)


def _flip_signed(phi: Formula, language: ConstraintLanguage, flips,
                 weight_range: str, op: str):
    """Rebind every application to a member of the language; one that
    `flips` becomes the member with the complementary table at the opposite
    weight.  As w * f = w - w * (1 - f), each flip shifts the values and
    the threshold by -w."""
    groups: dict = {}
    shift = 0
    for c, indices, weights in phi.groups:
        negation = tuple(1 - v for v in c.table)
        for idx, w in zip(indices, weights):
            flip = flips(c, w)
            member = language.by_table(c.arity, negation if flip else c.table)
            if member is None:
                raise PreconditionError(f"{language.name!r} has no "
                                        f"{'negation of ' if flip else ''}{c.name}")
            if flip:
                shift -= w
            column = groups.setdefault(member, ([], []))
            column[0].append(idx)
            column[1].append(-w if flip else w)
    phi2 = Formula(phi.nvars, groups, weight_range, phi.threshold + shift)
    return phi2, _certify(op, phi, phi2, (AFFINE, 1, shift), var_bound=0,
                          size_factor=1, weight_factor=1, weight_exponent=0)


def neg_to_base(phi: Formula, base: ConstraintLanguage):
    """Rewrite a formula over Gamma^NEG as one over Gamma with integer
    weights: each application of a negated constraint flips to the base
    constraint with opposite weight, shifting the threshold."""
    return _flip_signed(
        phi, base, lambda c, w: base.by_table(c.arity, c.table) is None,
        RANGE_Z, "neg-to-base")


def signed_to_unsigned_neg(phi: Formula, neg_language: ConstraintLanguage):
    """Erase negative weights over a negation-closed language: a negative
    application flips to its pointwise negation with positive weight."""
    return _flip_signed(phi, neg_language, lambda c, w: w < 0, RANGE_N,
                        "unsign-neg")


# ---------------------------------------------------------------------------
# Polynomial re-expression


def apply_poly(phi: Formula, source: ConstraintLanguage,
               target: ConstraintLanguage):
    """Replace every application of g in the source language by the
    integerized combination realizing beta * g over constraints expressible
    with constants from the target's maximum-degree member; the new value is
    exactly beta times the old one."""
    f = max_degree_member(target)
    deg_f = characteristic_polynomial(f).degree
    if degree_of_language(source) > deg_f:
        raise PreconditionError(
            f"deg({source.name}) = {degree_of_language(source)} exceeds "
            f"deg({target.name}) = {deg_f}")
    tf = closure(target, MODE_TF)
    beta, combos = language_denominator(source, f)
    groups: dict = {}
    for c, indices, weights in phi.groups:
        if c not in source.constraints:
            raise PreconditionError(
                f"{c.name} is not in source language {source.name!r}")
        columns = [list(map(itemgetter(j), indices)) for j in range(c.arity)]
        for term in combos[c.name].terms:
            member = tf.by_table(term.constraint.arity, term.constraint.table)
            rows = zip(*[columns[j - 1] for j in term.indices]) if term.indices else repeat(())
            _add(groups.setdefault(member, {}), rows, map(mul, weights, repeat(term.coefficient)))
    phi2 = Formula(phi.nvars, groups, RANGE_Z, beta * phi.threshold)
    size_factor = max([len(combo.terms) for combo in combos.values()] + [1])
    weight_factor = max([sum(abs(t.coefficient) for t in combo.terms)
                         for combo in combos.values()] + [1])
    return phi2, _certify("apply-poly", phi, phi2, (AFFINE, beta, 0),
                          var_bound=0, size_factor=size_factor,
                          weight_factor=weight_factor, weight_exponent=0)


# ---------------------------------------------------------------------------
# Constant and literal elimination via implementations


def _add_implementation(groups: dict, impl: Implementation, primaries: tuple,
                        aux_start: int, weight: int) -> int:
    """Add impl's applications at `weight` on the primaries and the
    auxiliaries after aux_start; returns how many."""
    mapping = primaries + tuple(range(aux_start + 1,
                                      aux_start + impl.aux_count + 1))
    for c, idx in impl.applications:
        _add(groups.setdefault(c, {}), [tuple(mapping[v - 1] for v in idx)], [weight])
    return len(impl.applications)


def _add_rewired(groups: dict, phi: Formula, base: ConstraintLanguage,
                 mode: str, constants: tuple = ()) -> None:
    """Add phi rewired onto the base by recover_pattern, a group at a time:
    slot s > 0 takes index s, a negated slot -s (MODE_LIT) index s plus n,
    "1" and "0" (MODE_TF) the first and second constant.  Under the identity
    a group keeps its indices, and a dict that starts a group is copied: the
    caller adds into the group, and phi's own dicts are never shared."""
    n = phi.nvars
    for c, indices, weights in phi.groups:
        f, pattern = recover_pattern(base, c, mode)
        k = c.arity
        if f.table != c.table:  # else the pattern is the identity
            # Column j holds index j + 1 of every application, then the constants.
            columns = ([list(map(itemgetter(j), indices)) for j in range(k)]
                       + [repeat(x) for x in constants])
            rewired = [columns[k] if s == "1" else columns[k + 1] if s == "0"
                       else columns[s - 1] if s > 0 else map(add, columns[-s - 1], repeat(n))
                       for s in pattern.slots]
            indices = zip(*rewired) if rewired else repeat(())
        elif f not in groups and isinstance(g := phi.weights[c], dict):
            groups[f] = g.copy()
            continue
        _add(groups.setdefault(f, {}), indices, weights)


def _add(g: dict, keys, weights) -> None:
    """g[key] += w for each key and weight, in order.  A stage copies a group
    it leaves unchanged, and builds a fresh one of distinct keys by fromkeys."""
    get = g.get
    for key, w in zip(keys, weights):
        g[key] = get(key, 0) + w


def _require_implementation(language, target) -> Implementation:
    impl = search_implementation(language, target)
    if impl is None:
        raise PreconditionError(
            f"no strict implementation of {target.name} from {language.name!r} "
            f"within caps (aux<={DEFAULT_MAX_AUX}, apps<={DEFAULT_MAX_APPS})")
    return impl


def implement_tf(phi: Formula, base: ConstraintLanguage):
    """Eliminate constants from a formula over Gamma^{T,F}: constants become
    the fresh variables x_T, x_F, pinned by weight-scaled implementations
    (T and F separately, or XOR of the pair when the language is
    complementation-closed)."""
    report = _hard_report("implement-tf", base, two_monotone=False)
    if phi.threshold < -phi.total_weight:
        return _degenerate("implement-tf", phi, True, False)

    n = phi.nvars
    xt, xf = n + 1, n + 2
    groups: dict = {}
    _add_rewired(groups, phi, base, MODE_TF, (xt, xf))

    big_w = 2 * phi.total_weight + 1
    pins = ([(xor_constraint(2), (xt, xf))] if report.c_closed
            else [(T, (xt,)), (F, (xf,))])
    aux = alpha = m = 0
    for target, primaries in pins:
        impl = _require_implementation(base, target)
        m += _add_implementation(groups, impl, primaries, n + 2 + aux, big_w)
        aux += impl.aux_count
        alpha += impl.alpha

    phi2 = Formula(n + 2 + aux, groups, RANGE_Z, alpha * big_w + phi.threshold)
    return phi2, _certify("implement-tf", phi, phi2, (EXISTENTIAL,),
                          var_bound=2 + aux, size_factor=m + 1,
                          weight_factor=2 * m + 1, weight_exponent=0)


def unsigned_lit(phi: Formula, base: ConstraintLanguage):
    """Erase negative weights by drowning them in constant-valued bundles of
    literal variants: for every applied tuple of f, all 2^k variants f^S are
    added at the magnitude of the most negative weight, which contributes
    the same |J_f| * |f| to every assignment."""
    lit = closure(base, MODE_LIT)
    # A formula is a set of applications: merge repeats (a dict has none, and
    # is copied) so the most negative weight is read off the merged instance.
    groups: dict = {}
    for c, g in phi.weights.items():
        if base.by_table(c.arity, c.table) is None:
            raise PreconditionError(f"{c.name} not in base language {base.name!r}")
        if isinstance(g, dict):
            groups[c] = g.copy()
        else:
            _add(groups.setdefault(c, {}), *g)
    big_w = max([0] + [-min(g.values()) for g in groups.values() if g])
    if big_w == 0:
        phi2 = Formula(phi.nvars, groups, RANGE_N, phi.threshold)
        return phi2, _certify("unsigned-lit", phi, phi2, (AFFINE, 1, 0),
                              var_bound=0, size_factor=1, weight_factor=1,
                              weight_exponent=0)

    # The applied tuples of each constraint, listed before any is added.
    tuples = [(c, list(g)) for c, g in groups.items()]
    shift = 0
    for c, js in tuples:
        shift += big_w * len(js) * c.satisfying_count()
        # f^S reads row r ^ s of f, s the mask of the negated positions.
        rows = range(1 << c.arity)
        for s in rows:
            variant = lit.by_table(c.arity, tuple(c.table[r ^ s] for r in rows))
            if (bundle := groups.get(variant)) is None:  # js holds distinct keys
                groups[variant] = dict.fromkeys(js, big_w)
            else:
                _add(bundle, js, repeat(big_w))
    phi2 = Formula(phi.nvars, groups, RANGE_N, phi.threshold + shift)
    total_tuples = sum(len(js) for _, js in tuples)
    kmax = max(c.arity for c, _ in tuples)
    return phi2, _certify("unsigned-lit", phi, phi2, (AFFINE, 1, shift),
                          var_bound=0, size_factor=1 + (1 << kmax),
                          weight_factor=1 + (1 << kmax) * total_tuples,
                          weight_exponent=0)


def implement_lit(phi: Formula, base: ConstraintLanguage):
    """Eliminate literals from a nonnegative formula over Gamma^{LIT}: every
    variable gets a negation-copy, negated slots are rewired to the copies,
    and weight-scaled XOR implementations link each pair."""
    _hard_report("implement-lit", base, two_monotone=True)
    if phi.weight_range != RANGE_N:
        raise PreconditionError("implement-lit needs nonnegative weights")
    if phi.threshold < 0:
        return _degenerate("implement-lit", phi, True, False)

    n = phi.nvars
    groups: dict = {}
    _add_rewired(groups, phi, base, MODE_LIT)

    impl = _require_implementation(base, xor_constraint(2))
    q = impl.aux_count
    big_w = phi.total_weight + 1
    for i in range(1, n + 1):
        _add_implementation(groups, impl, (i, n + i), 2 * n + (i - 1) * q, big_w)
    phi2 = Formula(n * (2 + q), groups, RANGE_N,
                   n * impl.alpha * big_w + phi.threshold)
    m = len(impl.applications)
    return phi2, _certify("implement-lit", phi, phi2, (EXISTENTIAL,),
                          var_bound=2 + q, size_factor=m + 1,
                          weight_factor=impl.alpha * m + 1, weight_exponent=1)


# ---------------------------------------------------------------------------
# The stage table, and the compositions run through it


@dataclass(frozen=True)
class Stage:
    """One row of STAGES.  `run` calls its lemma by the module global's
    name, looked up at call time, so a wrapper installed on that global
    sees every call.  A composition row lists its stages by op; its kind
    follows from theirs."""
    label: str                   # of the certificates it emits
    run: Callable | None         # (phi, source, target) -> (formula, certificate)
    mode: str | None = None      # closure mode of the language phi is over
    needs_target: bool = False   # whether run reads the target language
    kind: str | None = None      # a lemma's kind; None for a composition
    ops: tuple = ()              # a composition's stages, in order


# The CLI's --op -> the stage it runs.
STAGES = {
    "neg-to-base": Stage("neg-to-base", lambda phi, s, t: neg_to_base(phi, s),
                         MODE_NEG, kind=KIND_ADDITIVE),
    "unsign-neg": Stage("signed-to-unsigned", lambda phi, s, t:
                        signed_to_unsigned_neg(phi, closure(s, MODE_NEG)),
                        MODE_NEG, kind=KIND_ADDITIVE),
    "apply-poly": Stage("apply-poly", lambda phi, s, t: apply_poly(phi, s, t),
                        needs_target=True, kind=KIND_ADDITIVE),
    "implement-tf": Stage("implement-tf", lambda phi, s, t: implement_tf(phi, s),
                          MODE_TF, kind=KIND_ADDITIVE),
    "unsigned-lit": Stage("unsigned-lit", lambda phi, s, t: unsigned_lit(phi, s),
                          kind=KIND_ADDITIVE),
    "implement-lit": Stage("implement-lit", lambda phi, s, t: implement_lit(phi, s),
                           MODE_LIT, kind=KIND_LINEAR),
    "chain-z": Stage("chain-additive", lambda phi, s, t: chain(phi, s, t, RANGE_Z),
                     needs_target=True, ops=("apply-poly", "implement-tf")),
    "chain-n": Stage("chain-linear", lambda phi, s, t: chain(phi, s, t, RANGE_N),
                     needs_target=True, ops=("apply-poly", "implement-tf",
                                             "unsigned-lit", "implement-lit")),
}
_CHAIN_OPS = {RANGE_Z: "chain-z", RANGE_N: "chain-n"}


def _run(phi: Formula, steps):
    """Run the (op, source, target) steps in order, each on the formula the
    one before it returned; the (op, formula, certificate) of each."""
    stages = []
    for op, source, target in steps:
        phi, cert = STAGES[op].run(phi, source, target)
        stages.append((op, phi, cert))
    return stages


def chain_stages(phi: Formula, source: ConstraintLanguage,
                 target: ConstraintLanguage, mode: str = RANGE_Z):
    """The composed reduction from CS(source, Z) into CS(target, Z) (mode
    "Z": polynomial re-expression then constant elimination) or CS(target,
    N) (mode "N": continuing with sign and literal elimination), as the
    list of (op, formula, certificate) triples.  The first stage re-expresses
    phi over the target, and the rest run over it; each stage checks its
    own preconditions."""
    first, *rest = STAGES[_CHAIN_OPS[mode]].ops
    return _run(phi, [(first, source, target)] + [(op, target, None) for op in rest])


def chain(phi: Formula, source: ConstraintLanguage,
          target: ConstraintLanguage, mode: str = RANGE_Z):
    stages = chain_stages(phi, source, target, mode)
    final = stages[-1][1]
    return final, _certify(_CHAIN_OPS[mode], phi, final, None,
                           stages=tuple(c for _, _, c in stages))


def exp_cycle(phi: Formula, gamma: ConstraintLanguage):
    """The reduction cycle tying CS(Gamma_dsat, *) and CS(Gamma, Z) together
    for d = deg(Gamma): signs out via literal variants, across to
    Gamma^NEG, negations folded into signed weights, and back to d-SAT.
    Input is a formula over Gamma_dsat with integer weights; the result is
    the (op, formula, certificate) of each step."""
    d = degree_of_language(gamma)
    if d < 2:
        raise PreconditionError(f"exp-cycle needs deg({gamma.name}) >= 2, got {d}")
    dsat = gamma_d_sat(d)
    return _run(phi, [("unsigned-lit", dsat, None),
                      ("chain-z", dsat, closure(gamma, MODE_NEG)),
                      ("neg-to-base", gamma, None), ("chain-z", gamma, dsat)])


# ---------------------------------------------------------------------------
# Kernelization


@dataclass(frozen=True)
class KernelReport:
    degree: int
    monomials: int                # terms of the summed polynomial, constant included
    monomial_bound: int           # sum_{i<=d} C(n, i)
    kernel_apps: int
    kernel_nvars: int
    app_bound_constant: int       # least C with apps <= C * (bound + n)
    encoded_bits: int


@dataclass(frozen=True)
class KernelResult:
    formula: Formula
    certificate: TransformCertificate
    report: KernelReport


@dataclass(frozen=True)
class CompressResult:
    polynomial: MultilinearPolynomial
    threshold: int
    nvars: int
    monomials: int


def compress_to_polynomial(phi: Formula) -> CompressResult:
    """The pure compression: fold the formula into monomial coefficients,
    absorbing the constant term into the threshold."""
    terms: dict = {}
    for c, indices, weights in phi.groups:
        add_composed(terms, characteristic_polynomial(c), indices, weights)
    const = terms.pop(frozenset(), 0)
    reduced = MultilinearPolynomial(terms)
    return CompressResult(reduced, phi.threshold - const, phi.nvars,
                          len(reduced.terms) + (const != 0))


def formula_from_polynomial(poly: MultilinearPolynomial, nvars: int,
                            threshold: int) -> Formula:
    """Re-read monomials as AND_k applications (the d-AND language), one
    entry per term in the group of its degree."""
    by_degree: dict = {}
    for mono, coeff in poly.terms.items():
        if not mono:
            raise FormatError("constant term must be folded before re-encoding")
        by_degree.setdefault(len(mono), {})[tuple(sorted(mono))] = coeff
    lang = gamma_d_and(max(1, poly.degree))
    return Formula(nvars, {lang.get(f"AND{k}"): g for k, g in by_degree.items()},
                   RANGE_Z, threshold)


def encoded_bits(phi: Formula) -> int:
    """Size of a straightforward binary encoding: constraint id, indices in
    ceil(log2(n+1)) bits each, weights in sign+magnitude."""
    id_bits = max(1, math.ceil(math.log2(len(phi.weights) + 1)))
    index_bits = max(1, math.ceil(math.log2(phi.nvars + 1)))
    total = abs(phi.threshold).bit_length() + 1
    for c, _, weights in phi.groups:
        total += (len(weights) * (id_bits + c.arity * index_bits + 1)
                  + sum(map(int.bit_length, map(abs, weights))))
    return total


def kernelize(phi: Formula, language: ConstraintLanguage,
              oracle_cap: int = ORACLE_CAP) -> KernelResult:
    """Compress the instance to its monomial coefficients, then re-express
    the resulting d-AND formula back over the original language with
    nonnegative weights; for polynomial-time languages the kernel is the
    constant-size instance with the oracle's answers."""
    d = degree_of_language(language)
    n = phi.nvars
    bound = sum(math.comb(n, i) for i in range(d + 1))

    def finish(formula, cert, monomials):
        rep = KernelReport(
            degree=d, monomials=monomials, monomial_bound=bound,
            kernel_apps=formula.size, kernel_nvars=formula.nvars,
            app_bound_constant=max(1, -(-formula.size // (bound + n))),
            encoded_bits=encoded_bits(formula))
        return KernelResult(formula, cert, rep)

    if classify_language(language).verdict == VERDICT_POLY:
        phi2, cert = _degenerate("kernelize-solved", phi,
                                 *decisions(phi, cap=oracle_cap))
        return finish(phi2, cert, 0)

    compact = compress_to_polynomial(phi)
    poly, t_folded = compact.polynomial, compact.threshold

    if poly.is_zero():
        # The instance is a constant function; decide it outright.
        geq_yes = 0 >= t_folded
        eq_yes = 0 == t_folded
        phi2, cert = _degenerate("kernelize-constant", phi, geq_yes, eq_yes)
        return finish(phi2, cert, compact.monomials)

    phi_poly = formula_from_polynomial(poly, n, t_folded)
    const_cert = _certify("fold-constant", phi, phi_poly,
                          (AFFINE, 1, t_folded - phi.threshold))
    final, chain_cert = chain(phi_poly, gamma_d_and(poly.degree), language, RANGE_N)
    cert = build_certificate("kernelize", phi, final,
                             stages=(const_cert, chain_cert))
    return finish(final, cert, compact.monomials)


# ---------------------------------------------------------------------------
# Vertex Cover gadget


def vc_reduce(nvertices: int, edges, k: int) -> Formula:
    """The Vertex-Cover instance as weighted 2-SAT: a unit application
    ~x_v OR ~x_v per vertex and a weight-2n application x_u OR x_v per edge;
    with t = 2n|E| + (n - k) the instance is a yes iff the graph has a
    vertex cover of size at most k."""
    if nvertices < 1:
        raise FormatError("graph needs at least one vertex")
    if not 0 <= k <= nvertices:
        raise FormatError(f"cover size {k} out of range 0..{nvertices}")
    seen = set()
    for u, v in edges:
        if u == v:
            raise FormatError(f"loop at vertex {u}")
        if not (1 <= u <= nvertices and 1 <= v <= nvertices):
            raise FormatError(f"edge ({u},{v}) out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge ({u},{v})")
        seen.add(key)
    lang = gamma_d_sat(2)
    or2 = lang.by_table(2, (0, 1, 1, 1))
    or2nn = lang.by_table(2, (1, 1, 1, 0))
    groups = {or2nn: {(v, v): 1 for v in range(1, nvertices + 1)}}
    if seen:
        groups[or2] = dict.fromkeys(sorted(seen), 2 * nvertices)
    t = 2 * nvertices * len(seen) + (nvertices - k)
    return Formula(nvertices, groups, RANGE_N, t)


# ---------------------------------------------------------------------------
# Certificate verification


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool | None           # None = skipped (cap)
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)


def verify_transform(phi1: Formula, phi2: Formula, cert: TransformCertificate,
                     oracle_cap: int = ORACLE_CAP) -> VerifyReport:
    """Oracle-check a transformation certificate: endpoint bookkeeping, the
    accounting inequalities, both decision equivalences up to the one oracle
    cap, and, at any n, the affine relation where one is claimed: on the
    thresholds exactly, and pointwise on the two formulas' monomial
    coefficients."""
    checks = []

    endpoint_ok = all(getattr(cert, field) == value
                      for field, value in endpoints(phi1, phi2).items())
    checks.append(ConditionCheck("endpoints", endpoint_ok))

    if cert.kind == KIND_ADDITIVE:
        checks.append(ConditionCheck(
            "vars-additive", phi2.nvars <= phi1.nvars + cert.var_bound,
            f"{phi2.nvars} <= {phi1.nvars} + {cert.var_bound}"))
    else:
        checks.append(ConditionCheck(
            "vars-linear", phi2.nvars <= cert.var_bound * phi1.nvars,
            f"{phi2.nvars} <= {cert.var_bound} * {phi1.nvars}"))
    checks.append(ConditionCheck(
        "size", phi2.size <= cert.size_factor * (phi1.size + phi1.nvars)))
    weight_bound = (cert.weight_factor * (phi1.total_weight + 1)
                    * phi1.nvars ** cert.weight_exponent)
    checks.append(ConditionCheck(
        "weight", phi2.total_weight <= weight_bound))

    names = ("equivalence-geq", "equivalence-eq")
    if max(phi1.nvars, phi2.nvars) > oracle_cap:
        checks += [ConditionCheck(name, None, "beyond oracle cap") for name in names]
    else:
        pairs = zip(decisions(phi1, cap=oracle_cap), decisions(phi2, cap=oracle_cap))
        checks += [ConditionCheck(name, d1 == d2) for name, (d1, d2) in zip(names, pairs)]
    if cert.is_affine() and phi1.nvars == phi2.nvars:
        a, b = cert.value_map[1:]
        checks.append(ConditionCheck(
            "affine-pointwise", phi2.threshold == a * phi1.threshold + b
            and affine_holds(phi1, phi2, a, b)))
    return VerifyReport(tuple(checks))
