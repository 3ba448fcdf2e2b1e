"""File formats and command-line behaviour."""

import inspect
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import maxcsp
from maxcsp import io_formats, transforms
from maxcsp.cli import build_parser, main
from maxcsp.constraints import (ConstraintLanguage, ex_constraint, nae_constraint,
                                xor_constraint)
from maxcsp.errors import FormatError
from maxcsp.formulas import Formula, random_formula
from maxcsp.io_formats import (emit_certificate, emit_instance,
                               parse_decomposition, parse_graph,
                               parse_implementation, parse_instance,
                               parse_language, parse_polynomial,
                               resolve_language_spec)
from maxcsp.languages import NP_HARD_LANGUAGE_KEYS, builtin_language
from maxcsp.solver import brute_force
from maxcsp.transforms import (STAGES, chain, kernelize, neg_to_base,
                               unsigned_lit, verify_transform)

from formula_groups import canonical, from_triples, triples
from text_formats import emit_language, parse_certificate

LANG_TEXT = """\
# a toy language
constraint OR2 2
01
10
11
end
constraint T 1
1
end
"""

CERT_TEXT = """\
certificate unsigned-lit
kind additive
vars 2 2
sizes 1 2
weights 3 9
thresholds -1 5
value_map affine 1 6
bounds 0 5 5 0
end
"""
INST_TEXT = "maxcsp 2 1 N 0\nXOR 1 1 2\n" + CERT_TEXT


def test_parse_language_round_trip():
    lang = parse_language(LANG_TEXT, name="toy")
    assert {c.name for c in lang} == {"OR2", "T"}
    assert lang.get("OR2").table == (0, 1, 1, 1)
    again = parse_language(emit_language(lang), name="toy")
    assert again.signatures() == lang.signatures()


def test_parse_language_errors():
    with pytest.raises(FormatError, match="line 2"):
        parse_language("constraint A 2\n011\nend\n")
    # arity-0 members, as a closure holds, are read like any other
    lang = parse_language("constraint A 0\n-\nend\n")
    assert lang.get("A").table == (1,)
    with pytest.raises(FormatError):
        parse_language("constraint A 2\n01\n")  # missing end


def test_instance_round_trip_and_canonical_order():
    lang = builtin_language("2sat")
    text = ("maxcsp 3 2 N 4\n"
            "OR2 2 3 1\n"
            "OR2 1 1 2\n")
    phi, cert = parse_instance(text, lang)
    assert cert is None and phi.size == 2
    emitted = emit_instance(phi)
    # canonicalized: applications sorted
    assert emitted == ("maxcsp 3 2 N 4\n"
                       "OR2 1 1 2\n"
                       "OR2 2 3 1\n")
    phi2, _ = parse_instance(emitted, lang)
    assert canonical(phi2) == canonical(phi)


def test_instance_names_with_percent_signs_round_trip():
    # Member names are written as they are, '%' included.
    lang = parse_language("constraint A%d 2\n11\nend\nconstraint P%% 1\n1\nend\n"
                          "constraint Z%s 0\n-\nend\n")
    a, p, z = lang.get("A%d"), lang.get("P%%"), lang.get("Z%s")
    phi = Formula(3, {p: {(3,): 2}, a: {(2, 3): 1, (1, 2): 4}, z: {(): 5}}, "N", 1)
    text = emit_instance(phi)
    assert text == "maxcsp 3 4 N 1\nA%d 4 1 2\nA%d 1 2 3\nP%% 2 3\nZ%s 5\n"
    parsed, _ = parse_instance(text, lang)
    assert canonical(parsed) == canonical(phi) and emit_instance(parsed) == text


def test_instance_weight_range_violation():
    lang = builtin_language("2sat")
    with pytest.raises(FormatError, match="weight range violation"):
        parse_instance("maxcsp 2 1 N 0\nOR2 -1 1 2\n", lang)


def test_instance_header_mismatches():
    lang = builtin_language("2sat")
    with pytest.raises(FormatError, match="line 2"):
        parse_instance("maxcsp 2 1 N 0\nOR2 1 1\n", lang)  # arity mismatch
    with pytest.raises(FormatError, match="declares"):
        parse_instance("maxcsp 2 2 N 0\nOR2 1 1 2\n", lang)


def test_instance_duplicate_lines_round_trip():
    # An instance is a multiset: a repeated line stays its own entry, and
    # the file is written back byte for byte.
    lang = builtin_language("2sat")
    for text in ("maxcsp 3 3 N 4\nOR2 2 1 3\nOR2 2 1 3\nOR2|x1,~x2 1 2 3\n",
                 "maxcsp 3 3 Z 4\nOR2 -1 1 3\nOR2 5 1 3\nOR2|x1,x1 0 2\n"):
        phi, _ = parse_instance(text, lang)
        assert phi.size == 3 and len(triples(phi)) == 3
        assert emit_instance(phi) == text


@pytest.mark.parametrize("text,message", [
    ("maxcsp 3 3 N 0\nOR2 1 1 4\nOR2 2 2 3\nOR2|x2,~x1 -1 1 2\n",
     "index 4 out of range 1..3 in application of OR2"),
    ("maxcsp 3 3 N 0\nOR2|x2,~x1 -2 1 2\nOR2 1 0 2\nOR2|x2,~x1 -1 1 3\n",
     "index 0 out of range 1..3 in application of OR2"),
    ("maxcsp 3 4 N 0\nOR2|~x1,~x2 -1 3 2\nOR2|x1,x1 1 2\nOR2 1 1 2\nOR2|x1,x1 1 4\n",
     "index 4 out of range 1..3 in application of OR2|x1,x1"),
    ("maxcsp 3 3 Z 0\nOR2|x2,~x1 1 1 9\nOR2 1 x 2\nOR2 1 1 5\n",
     "line 3: bad index 'x'"),
    ("maxcsp 3 2 N 0\nOR2|x2,~x1 -1 1 2\nOR2 1 1 2 3\n",
     "line 3: OR2 has arity 2, got 3 indices"),
])
def test_instance_faults_in_two_groups(text, message):
    # A line that holds no application is named by its number, the first
    # in the file; a range or sign fault is the first in (name, indices,
    # weight) order, whatever its line.
    with pytest.raises(FormatError) as exc:
        parse_instance(text, builtin_language("2sat"))
    assert str(exc.value) == message


def test_parsed_formulas_build_no_applications():
    # Kernelizing, transforming, verifying and solving read the groups.
    lang, xor = builtin_language("2sat"), builtin_language("xor")
    neg = resolve_language_spec("neg:xor")
    phi, _ = parse_instance(emit_instance(random_formula(lang, 6, 12, "N", seed=3)), lang)
    signed, _ = parse_instance(emit_instance(random_formula(neg, 6, 12, "Z", seed=4)), neg)
    kernel = kernelize(phi, lang).formula
    chained, chain_cert = chain(phi, lang, xor)
    flipped, flip_cert = neg_to_base(signed, xor)
    assert verify_transform(phi, chained, chain_cert).all_passed
    assert verify_transform(signed, flipped, flip_cert).all_passed
    assert brute_force(phi).optimum >= 0
    assert emit_instance(kernel) and emit_instance(flipped)
    for formula in (phi, signed, kernel, chained, flipped):
        assert not hasattr(formula, "applications")


def test_certificate_round_trip():
    xorl = builtin_language("xor")
    phi = from_triples(2, ((xor_constraint(2), (1, 2), -3),), "Z", -1)
    phi2, cert = unsigned_lit(phi, xorl)
    text = emit_instance(phi2, cert)
    parsed_phi, parsed_cert = parse_instance(text, resolve_language_spec("lit:xor"))
    assert canonical(parsed_phi) == canonical(phi2)
    assert parsed_cert.value_map == cert.value_map
    assert parsed_cert.t_out == cert.t_out
    assert parse_certificate(emit_certificate(cert)).label == cert.label
    assert emit_certificate(cert) == CERT_TEXT


def test_chain_certificate_keeps_its_stage_labels(tmp_path, capsys):
    # Read back, a chain's certificate keeps the labels of its stages, so
    # the parsed output is emitted again byte for byte.
    inst = tmp_path / "in.maxcsp"
    inst.write_text(emit_instance(random_formula(builtin_language("2sat"), 5, 6, "Z",
                                                 max_weight=5, seed=27)))
    assert main(["transform", "--op", "chain-z", "--language", "2sat",
                 "--target-language", "xor", "--instance", str(inst)]) == 0
    text = capsys.readouterr().out
    phi, cert = parse_instance(text, builtin_language("xor"))
    assert "\nstages apply-poly,implement-tf\nend\n" in text
    assert cert.stages == ("apply-poly", "implement-tf")
    assert emit_instance(phi, cert) == text
    source = parse_instance(inst.read_text(), builtin_language("2sat"))[0]
    assert chain(source, builtin_language("2sat"), builtin_language("xor"))[1] == cert


def test_resolve_language_spec_closures(tmp_path):
    lit = resolve_language_spec("lit:or2")
    assert (1, 1, 1, 0) in {c.table for c in lit if c.arity == 2}
    path = tmp_path / "toy.lang"
    path.write_text(LANG_TEXT)
    lang = resolve_language_spec(str(path))
    assert lang.get("T").table == (0, 1)
    with pytest.raises(FormatError):
        resolve_language_spec("nope:xyz")


def test_cli_degree_and_classify(capsys):
    assert main(["degree", "--language", "nae3"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["classify", "--language", "xor"]) == 0
    out = capsys.readouterr().out
    assert "np_hard (not 0-valid, not 1-valid, not 2-monotone)" in out


def test_cli_poly(capsys):
    assert main(["poly", "--constraint", "NAE3"]) == 0
    assert capsys.readouterr().out == ("poly 3 6\n1 1\n1 2\n1 3\n"
                                       "-1 1 2\n-1 1 3\n-1 2 3\n")


OR2_POLY = "poly 2 3\n1 1\n1 2\n-1 1 2\n"
OR2_FROM_EX3 = ("decomposition EX3 2 3\n1/2 x1,x2,0 1,2\n"
                "1/2 x1,0,0 1\n1/2 x1,0,0 2\nend\n")


@pytest.mark.parametrize("argv,rc,out,err", [
    # A member of --language that is no standard constraint.
    (["poly", "--language", "nae3lit", "--constraint", "NAE3|x1,x1,x2"], 0,
     "poly 2 3\n1 1\n1 2\n-2 1 2\n", ""),
    (["degree", "--language", "or2", "--per-constraint"], 0, "OR2 2\n2\n", ""),
    (["decompose", "--base", "EX3", "--target-poly", "{poly}"], 0,
     OR2_FROM_EX3, ""),
    (["verify", "decomposition", "{combo}", "--base", "EX3",
      "--target-poly", "{poly}"], 0, "", "PASS formal-identity\n"),
    (["transform", "--op", "apply-poly", "--language", "2sat",
      "--instance", "{inst}"], 2, "",
     "error: --target-language is required for apply-poly\n"),
    (["transform", "--op", "neg-to-base", "--language", "xor",
      "--target-language", "nae3", "--instance", "{inst}"], 2, "",
     "error: --target-language is not read by neg-to-base\n"),
    (["verify", "transform", "{inst}", "{inst}", "--language", "xor"], 2, "",
     "error: {inst} carries no certificate block\n"),
])
def test_cli_option_paths(argv, rc, out, err, tmp_path, capsys):
    files = {"poly": OR2_POLY, "combo": OR2_FROM_EX3,
             "inst": "maxcsp 2 1 N 0\nXOR 1 1 2\n"}
    paths = {name: str(tmp_path / name) for name in files}
    for name, text in files.items():
        Path(paths[name]).write_text(text)
    assert main([a.format_map(paths) for a in argv]) == rc
    assert capsys.readouterr() == (out, err.format_map(paths))


def _status(argv) -> int:
    """main's exit status, also when argparse ends the call."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# A request each kind answers with exit 0; every option added to it below
# is one the kind does not read, or --target beside --target-poly.  Each is
# argparse's usage error: the verify kinds have a parser each.
READ_ONLY_REQUESTS = {
    "transform": ["verify", "transform", "{inst}", "{out}", "--language", "xor",
                  "--out-language", "lit:xor"],
    "decomposition": ["verify", "decomposition", "{combo}", "--base", "EX3",
                      "--target-poly", "{poly}"],
    "implementation": ["verify", "implementation", "{impl}", "--language", "nae3",
                       "--target", "XOR"],
    "decompose": ["decompose", "--base", "EX3", "--target-poly", "{poly}"],
}
UNREAD = "maxcsp: error: unrecognized arguments: "
NOT_BOTH = "error: argument --target: not allowed with argument --target-poly"


@pytest.mark.parametrize("kind,extra,message", [
    ("transform", ["--base", "EX3"], UNREAD + "--base EX3"),
    ("transform", ["--target", "XOR"], UNREAD + "--target XOR"),
    ("transform", ["--target-poly", "{poly}"], UNREAD + "--target-poly {poly}"),
    ("decomposition", ["--out-language", "xor"], UNREAD + "--out-language xor"),
    ("decomposition", ["--oracle-cap", "3"], UNREAD + "--oracle-cap 3"),
    ("decomposition", ["--target", "OR2"], "maxcsp verify decomposition: " + NOT_BOTH),
    ("implementation", ["--out-language", "xor"], UNREAD + "--out-language xor"),
    ("implementation", ["--oracle-cap", "3"], UNREAD + "--oracle-cap 3"),
    ("implementation", ["--base", "EX3"], UNREAD + "--base EX3"),
    ("implementation", ["--target-poly", "nonexistent"],
     UNREAD + "--target-poly nonexistent"),
    ("implementation", ["--out-language", "xor", "--oracle-cap", "3", "--base",
                        "EX3", "--target-poly", "nonexistent"],
     UNREAD + "--out-language xor --oracle-cap 3 --base EX3 --target-poly nonexistent"),
    ("decompose", ["--target", "OR2"], "maxcsp decompose: " + NOT_BOTH),
])
def test_cli_rejects_options_it_does_not_read(kind, extra, message, tmp_path, capsys):
    paths = {name: str(tmp_path / name)
             for name in ("poly", "combo", "inst", "out", "impl")}
    Path(paths["poly"]).write_text(OR2_POLY)
    Path(paths["combo"]).write_text(OR2_FROM_EX3)
    Path(paths["inst"]).write_text("maxcsp 3 2 Z 1\nXOR -2 1 2\nXOR 3 2 3\n")
    assert main(["transform", "--op", "unsigned-lit", "--language", "xor",
                 "--instance", paths["inst"], "-o", paths["out"]]) == 0
    assert main(["implement", "--language", "nae3", "--target", "XOR",
                 "-o", paths["impl"]]) == 0
    argv = [a.format_map(paths) for a in READ_ONLY_REQUESTS[kind]]
    assert main(argv) == 0
    capsys.readouterr()
    assert _status(argv + [a.format_map(paths) for a in extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: maxcsp ")
    assert err.endswith(f"\n{message.format_map(paths)}\n")


def test_cli_decompose_and_verify(tmp_path, capsys):
    out = tmp_path / "combo.txt"
    assert main(["decompose", "--base", "EX3", "--target", "OR2",
                 "-o", str(out)]) == 0
    assert main(["verify", "decomposition", str(out), "--base", "EX3",
                 "--target", "OR2"]) == 0
    assert "PASS" in capsys.readouterr().err


def test_cli_verify_decomposition_over_a_language_member(tmp_path, capsys):
    # MAJ3 is no standard constraint: --base names the language's member.
    lang = tmp_path / "maj.lang"
    lang.write_text("constraint MAJ3 3\n011\n101\n110\n111\nend\n")
    out = tmp_path / "combo.txt"
    options = ["--language", str(lang), "--base", "MAJ3", "--target", "OR2"]
    assert main(["decompose", *options, "-o", str(out)]) == 0
    assert main(["verify", "decomposition", str(out), *options]) == 0
    assert capsys.readouterr().err == "PASS formal-identity\n"


# Every NP-hard catalog language implements XOR; the C-closed ones
# (xor, e2lin, nae3, nae3lit) implement neither T nor F.
IMPLEMENTED = [(key, target) for key in NP_HARD_LANGUAGE_KEYS
               for target in ("XOR", "T", "F")
               if target == "XOR" or key in ("2sat", "3sat", "ex3", "dicut")]


@pytest.mark.parametrize("language,target", IMPLEMENTED)
def test_cli_implement_and_verify(language, target, tmp_path, capsys):
    # The header names the target asked for, also when a same-table member
    # of the language implements it under the identity.
    out = tmp_path / "impl.txt"
    assert main(["implement", "--language", language, "--target", target,
                 "-o", str(out)]) == 0
    assert out.read_text().startswith(f"impl {target} ")
    assert main(["verify", "implementation", str(out), "--language", language,
                 "--target", target]) == 0
    err = capsys.readouterr().err
    assert err.startswith("valid=1 ") and err.endswith(" strict=1\n")


def test_cli_implement_unsatisfiable_target_is_not_found(tmp_path, capsys):
    # NAE1 and the language's Z are never satisfied: no candidate has an
    # alpha, the identity included.
    lang = tmp_path / "z.lang"
    lang.write_text("constraint Z 1\nend\n")
    assert main(["implement", "--language", str(lang), "--target", "NAE1"]) == 0
    assert capsys.readouterr().out == "not-found\n"


def test_cli_verify_reports_an_invalid_implementation(tmp_path, capsys):
    # NAE3(x, x, x) is never satisfied: a well-formed file, but no gadget.
    path = tmp_path / "bad.impl"
    path.write_text("impl XOR p=2 q=0\nNAE3 1 1 1\nend\n")
    assert main(["verify", "implementation", str(path), "--language", "nae3",
                 "--target", "XOR"]) == 1
    assert capsys.readouterr().err == "valid=0 alpha=0 strict=0\n"


EX3_XOR_GADGET = ("impl XOR p=2 q=2 alpha=2 strict=1\n"
                  "EX3 1 2 3\nEX3 3 3 4\nend\n")


def test_cli_verify_checks_stated_implementation_claims(tmp_path, capsys):
    # NAE3(x1, x2, x2) implements XOR with alpha 1, strictly.
    path = tmp_path / "claims.impl"
    argv = ["verify", "implementation", str(path), "--language", "nae3",
            "--target", "XOR"]
    for header, rc, extra in (
            ("alpha=1 strict=1", 0, ""), ("", 0, ""),
            ("alpha=5 strict=0", 1, "FAIL stated alpha=5 strict=0\n"),
            ("alpha=1 strict=0", 1, "FAIL stated strict=0\n"),
            ("strict=2", 1, "FAIL stated strict=2\n")):
        path.write_text(f"impl XOR p=2 q=0 {header}\nNAE3 1 2 2\nend\n")
        assert main(argv) == rc, header
        assert capsys.readouterr().err == "valid=1 alpha=1 strict=1\n" + extra


@pytest.mark.parametrize("claim", ["alpha=banana", "strict=yes", "alpha=1.0"])
def test_parse_implementation_reads_claims_as_integers(claim):
    key, _, value = claim.partition("=")
    with pytest.raises(FormatError, match=f"line 1: bad {key}= '{value}'"):
        parse_implementation(f"impl XOR p=2 q=0 {claim}\nNAE3 1 2 2\nend\n",
                             builtin_language("nae3"), xor_constraint(2))
    impl = parse_implementation("impl XOR p=2 q=0 alpha=3\nNAE3 1 2 2\nend\n",
                                builtin_language("nae3"), xor_constraint(2))
    assert (impl.alpha, impl.strict) == (3, None)


@pytest.mark.parametrize("language,caps,expected", [
    # The catalog's ex3 gadget has q=2 and the 2sat one two applications:
    # neither fits, and the search finds nothing smaller.
    ("ex3", ("0", "1"), "not-found\n"),
    ("2sat", ("0", "1"), "not-found\n"),
    ("ex3", ("2", "4"), EX3_XOR_GADGET),
    # XOR is a member of xor, but its one-application identity is too many.
    ("xor", ("0", "0"), "not-found\n"),
])
def test_cli_implement_caps_bound_catalog_answers(language, caps, expected, capsys):
    assert main(["implement", "--language", language, "--target", "XOR",
                 "--max-aux", caps[0], "--max-apps", caps[1]]) == 0
    assert capsys.readouterr().out == expected


def test_cli_language_file_may_hold_arity_0_members(tmp_path, capsys):
    # An emitted closure names its constant members; it reads back whole.
    closed = resolve_language_spec("tf:xor")
    assert any(c.arity == 0 for c in closed)
    path = tmp_path / "closed.lang"
    path.write_text(emit_language(closed))
    assert main(["classify", "--language", "tf:xor"]) == 0
    expected = capsys.readouterr().out
    assert main(["classify", "--language", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_cli_transform_verify_and_replay(tmp_path, capsys):
    inst = tmp_path / "in.maxcsp"
    inst.write_text("maxcsp 3 2 Z 1\nXOR -2 1 2\nXOR 3 2 3\n")
    out1, out2 = tmp_path / "a.maxcsp", tmp_path / "b.maxcsp"
    argv = ["transform", "--op", "unsigned-lit", "--language", "xor",
            "--instance", str(inst), "--verify"]
    assert main(argv + ["-o", str(out1)]) == 0
    assert main(argv + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()  # replayable
    assert main(["verify", "transform", str(inst), str(out1),
                 "--language", "xor", "--out-language", "lit:xor"]) == 0
    # corrupt the transformed threshold: verification must fail
    lines = out1.read_text().splitlines()
    head = lines[0].split()
    head[4] = str(int(head[4]) + 1)
    out1.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n")
    assert main(["verify", "transform", str(inst), str(out1),
                 "--language", "xor", "--out-language", "lit:xor"]) == 1


def test_cli_affine_verify_past_oracle_cap(tmp_path, capsys):
    # At n = 30 the equivalences are beyond the oracle cap, but the affine
    # relation is checked on the monomial coefficients.  The report is the
    # one the pointwise check gave with its SKIP line made a PASS.
    phi = random_formula(resolve_language_spec("neg:xor"), 30, 40, "Z",
                         max_weight=50, seed=30)
    inst, out = tmp_path / "in.maxcsp", tmp_path / "out.maxcsp"
    inst.write_text(emit_instance(phi))
    assert main(["transform", "--op", "neg-to-base", "--language", "xor",
                 "--instance", str(inst), "--verify", "-o", str(out)]) == 0
    report = ("PASS endpoints\nPASS vars-additive  (30 <= 30 + 0)\nPASS size\n"
              "PASS weight\nSKIP equivalence-geq  (beyond oracle cap)\n"
              "SKIP equivalence-eq  (beyond oracle cap)\nPASS affine-pointwise\n")
    assert capsys.readouterr().err == report
    # Flip one weight's sign: ||phi2|| and every other check stay the same.
    text = out.read_text()
    assert "\nXOR -4 1 5\n" in text
    out.write_text(text.replace("\nXOR -4 1 5\n", "\nXOR 4 1 5\n"))
    assert main(["verify", "transform", str(inst), str(out), "--language",
                 "neg:xor", "--out-language", "xor"]) == 1
    assert capsys.readouterr().err == report.replace("PASS affine", "FAIL affine")


@pytest.mark.parametrize("nvars,shift", [(30, 1000), (6, 1)])
def test_cli_affine_verify_checks_the_threshold(nvars, shift, tmp_path, capsys):
    # Raise the output's threshold in its header and its certificate alike:
    # the endpoints still agree, and only t2 = a * t1 + b fails, past the
    # oracle cap and below it.
    inst, out = tmp_path / "in.maxcsp", tmp_path / "out.maxcsp"
    inst.write_text(emit_instance(random_formula(builtin_language("xor"), nvars,
                                                 2 * nvars, "Z", seed=3)))
    assert main(["transform", "--op", "unsign-neg", "--language", "xor",
                 "--instance", str(inst), "-o", str(out)]) == 0
    argv = ["verify", "transform", str(inst), str(out), "--language", "neg:xor",
            "--out-language", "neg:xor"]
    assert main(argv) == 0
    assert capsys.readouterr().err.endswith("PASS affine-pointwise\n")
    lines = out.read_text().splitlines()
    t_in, t_out = lines[lines.index("certificate signed-to-unsigned") + 5].split()[1:]
    head = lines[0].split()
    assert head[4] == t_out
    head[4] = str(int(t_out) + shift)
    tampered = [" ".join(head)] + lines[1:]
    tampered[tampered.index(f"thresholds {t_in} {t_out}")] = f"thresholds {t_in} {head[4]}"
    out.write_text("\n".join(tampered) + "\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "PASS endpoints\n" in err and err.endswith("FAIL affine-pointwise\n")


def test_cli_kernelize_refuses_a_member_above_the_closure_cap_first(tmp_path, monkeypatch,
                                                                     capsys):
    # A 12-ary member is refused by the TF closure before any decomposition
    # over it starts; the command itself comes back within a generous bound.
    nae12 = nae_constraint(12)
    lang, inst = tmp_path / "nae12.lang", tmp_path / "in.maxcsp"
    lang.write_text(emit_language(ConstraintLanguage("nae12", (nae12,))))
    inst.write_text(emit_instance(random_formula(resolve_language_spec(str(lang)), 14, 3,
                                                 "N", seed=12)))
    argv = ["kernelize", "--language", str(lang), "--instance", str(inst)]
    src = str(Path(maxcsp.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "maxcsp.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 5.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: cannot materialize closure of NAE12: "
                           "arity 12 exceeds cap 8\n")

    def decomposed(*args):
        raise AssertionError("decomposed over a member above the closure cap")

    monkeypatch.setattr(transforms, "language_denominator", decomposed)
    assert main(argv) == 2
    assert "arity 12 exceeds cap 8" in capsys.readouterr().err


def test_cli_kernelize_verify(tmp_path):
    inst = tmp_path / "in.maxcsp"
    inst.write_text("maxcsp 4 3 N 5\nXOR 3 1 2\nXOR 2 2 3\nXOR 1 1 4\n")
    assert main(["kernelize", "--language", "xor", "--instance", str(inst),
                 "--verify", "-o", str(tmp_path / "k.maxcsp")]) == 0


def test_cli_output_does_not_depend_on_hash_seed(tmp_path):
    # String hashes are salted per process: the group order of a kernel,
    # a neg-to-base output or the oracle's input, and so the bytes written,
    # must not follow them.
    inst, signed = tmp_path / "in.maxcsp", tmp_path / "signed.maxcsp"
    phi = random_formula(builtin_language("3sat"), 20, 500, "N", max_weight=1000,
                         seed="hash-seed")
    inst.write_text(emit_instance(phi.replace(threshold=phi.total_weight // 2)))
    signed.write_text(emit_instance(random_formula(
        resolve_language_spec("neg:xor"), 20, 500, "Z", max_weight=1000, seed="signed")))
    src = str(Path(maxcsp.__file__).resolve().parent.parent)
    for argv, lines in (
            (["kernelize", "--language", "3sat", "--instance", inst], 1000),
            (["transform", "--op", "neg-to-base", "--language", "xor",
              "--instance", signed], 500),
            (["solve", "--exact", "--language", "3sat", "--instance", inst], 3)):
        outputs = [subprocess.run(
            [sys.executable, "-m", "maxcsp.cli", *map(str, argv)], capture_output=True,
            check=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") > lines


def test_cli_solve_and_vc_reduce(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("graph 3 3\n1 2\n2 3\n1 3\n")
    inst = tmp_path / "vc.maxcsp"
    assert main(["vc-reduce", "--graph", str(graph), "--k", "2",
                 "-o", str(inst)]) == 0
    assert main(["solve", "--language", "2sat", "--instance", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "optimum 19" in out and "decision yes" in out


def test_cli_random_deterministic(capsys):
    assert main(["random", "--language", "nae3", "--nvars", "5",
                 "--napps", "6", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--language", "nae3", "--nvars", "5",
                 "--napps", "6", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_cli_parser_is_built_once_and_kept_clean(capsys):
    assert build_parser() is build_parser()
    argv = ["random", "--language", "nae3", "--nvars", "5", "--napps", "6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    # A call that sets --seed and then fails on a bad option must not leave
    # its values behind in the shared parser.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "9", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.maxcsp"
    bad.write_text("maxcsp 2 1 N 0\nOR2 -1 1 2\n")
    assert main(["solve", "--language", "2sat", "--instance", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# The arguments each parser takes besides its text.
PARSE_ARGS = {parse_implementation: (builtin_language("xor"), xor_constraint(2)),
              parse_decomposition: (ex_constraint(3),),
              parse_instance: (builtin_language("xor"),)}


@pytest.mark.parametrize("parse,text,line", [
    (parse_polynomial, "poly 2 x\n", "line 1"),
    (parse_polynomial, "poly two 1\n1 1\n", "line 1"),
    (parse_graph, "graph 3 z\n", "line 1"),
    (parse_graph, "graph 3 1\n1 b\n", "line 2"),
    (parse_implementation, "impl XOR p=2 q=x\nend\n", "line 1"),
    (parse_implementation, "impl XOR q=0\nXOR 1 2\nend\n", "line 1"),
    (parse_implementation, "impl XOR p=2 q=0\nXOR 1 y\nend\n", "line 2"),
    (parse_implementation, "impl XOR p=2 q=0\nXOR 1 3\nend\n",
     "line 2: XOR needs 2 indices in 1..2"),
    (parse_implementation, "impl XOR p=2 q=-1\nXOR 1 2\nend\n",
     "line 1: p= and q= must be nonnegative"),
    (parse_language, "constraint A -1\nend\n", "line 1: negative arity"),
    (parse_decomposition, "decomposition EX3 2 x\nend\n", "line 1"),
    # The header's term count is checked like the other parsers' counts.
    (parse_decomposition, "decomposition EX3 2 5\n1/2 x1,0,0 1\nend\n",
     "declares 5 terms, found 1"),
    (parse_decomposition, "decomposition EX3 2 1\n1 x1,x2 1,2\nend\n",
     "line 2: .*2 slots but EX3 has arity 3"),
    # A decomposition substitutes constants, never literals.
    (parse_decomposition, "decomposition EX3 2 1\n1 x1,~x2,0 1,2\nend\n",
     "line 2: bad decomposition term: negated slot"),
    # Indices outside the header's 1..nvars, as in polynomial files.
    (parse_decomposition, "decomposition EX3 2 1\n1 x1,x2,0 1,5\nend\n",
     "line 2: index outside 1..2"),
    (parse_decomposition, "decomposition EX3 2 1\n1 x1,0,0 -1\nend\n",
     "line 2: index outside 1..2"),
    # Certificate fields: a misspelt kind or value map, and a repeated line.
    (parse_certificate, CERT_TEXT.replace("kind additive", "kind addative"),
     "line 2: bad kind"),
    (parse_certificate, CERT_TEXT.replace("value_map affine", "value_map afine"),
     "line 7: bad value map"),
    (parse_certificate, CERT_TEXT.replace("end", "bounds 9 9 9 9\nend"),
     "line 9: repeated 'bounds' line"),
    # A second header and a key the format does not have.
    (parse_certificate, CERT_TEXT.replace("end", "certificate b\nend"),
     "line 9: repeated 'certificate' line"),
    (parse_certificate, CERT_TEXT.replace("end", "foo 1 2 3\nend"),
     "line 9: unknown key 'foo'"),
    # Field lines with too few or too many values.
    (parse_certificate, CERT_TEXT.replace("vars 2 2", "vars 2"),
     "line 3: expected 2 values"),
    (parse_certificate, CERT_TEXT.replace("sizes 1 2", "sizes 1 2 3"),
     "line 4: expected 2 values"),
    (parse_certificate, CERT_TEXT.replace("end", "stages a, b\nend"),
     "line 9: expected 'stages <label>'"),
    (parse_certificate, CERT_TEXT.replace("bounds 0 5 5 0", "bounds 0 5 5"),
     "line 8: expected 4 values"),
    (parse_certificate, CERT_TEXT.replace("value_map affine 1 6", "value_map affine 1"),
     "line 7: bad value map"),
    (parse_instance, "maxcsp 2 1 N 0\nXOR 1 1 2\ncertificate x\nkind additive\nvars 2\n",
     "line 5: expected 2 values"),
    # Field values that are not numbers.
    (parse_certificate, CERT_TEXT.replace("vars 2 2", "vars 2 x"),
     "line 3: bad vars value 'x'"),
    (parse_certificate, CERT_TEXT.replace("value_map affine 1 6", "value_map affine 1 z"),
     "line 7: bad value map 'z'"),
    (parse_instance, INST_TEXT.replace("vars 2 2", "vars 2 x"),
     "line 5: bad vars value 'x'"),
    (parse_instance, INST_TEXT.replace("value_map affine 1 6", "value_map affine 1 z"),
     "line 9: bad value map 'z'"),
    # Lines after a block's 'end'.
    (parse_certificate, CERT_TEXT + "bounds 9 9 9 9\n",
     "line 10: unexpected line after 'end'"),
    (parse_instance, INST_TEXT + "XOR 5 1 2\n", "line 12: unexpected line after 'end'"),
    (parse_implementation, "impl XOR p=2 q=0\nXOR 1 2\nend\nXOR 9 9\n",
     "line 4: unexpected line after 'end'"),
    (parse_decomposition, "decomposition EX3 2 1\n1 x1,x2,0 1,2\nend\n"
     "1 x1,x2,0 1,2\n", "line 4: unexpected line after 'end'"),
    # Polynomial indices outside the header's 1..nvars.
    (parse_polynomial, "poly 2 1\n1 0\n", "line 2: index outside 1..2"),
    (parse_polynomial, "poly 2 2\n1 1\n-1 2 5\n", "line 3: index outside 1..2"),
    # A repeated index within one term.
    (parse_polynomial, "poly 3 1\n1 2 2\n", "line 2: repeated index"),
    # Negative counts in a header.
    (parse_polynomial, "poly -1 0\n", "line 1: negative variable count '-1'"),
    (parse_polynomial, "# note\npoly 2 -1\n", "line 2: negative term count '-1'"),
    (parse_decomposition, "decomposition EX3 -1 0\nend\n",
     "line 1: negative variable count '-1'"),
    (parse_decomposition, "decomposition EX3 2 -3\nend\n",
     "line 1: negative term count '-3'"),
    (parse_graph, "graph -2 0\n", "line 1: negative vertex count '-2'"),
    (parse_graph, "# g\ngraph 3 -1\n", "line 2: negative edge count '-1'"),
    (parse_instance, "maxcsp 2 -1 N 0\n", "line 1: negative application count '-1'"),
    (parse_instance, "maxcsp -3 0 Z 0\n", "line 1: negative variable count '-3'"),
    # Counts that must be at least 1.
    (parse_instance, "maxcsp 0 0 N 0\n", "line 1: zero variable count '0'"),
    (parse_graph, "graph 0 0\n", "line 1: zero vertex count '0'"),
    # Implementation header fields: a repeated one, and one the format lacks.
    (parse_implementation, "impl XOR p=2 q=0 p=5\nXOR 1 2\nend\n",
     "line 1: expected p=, q=, alpha=, strict= at most once each"),
    (parse_implementation, "impl XOR p=2 q=0 foo=1\nXOR 1 2\nend\n",
     "line 1: expected p=, q=, alpha=, strict= at most once each"),
    # A language member defined twice.
    (parse_language, "constraint A 1\n1\nend\nconstraint A 1\n0\nend\n",
     "line 4: repeated constraint 'A'"),
])
def test_parsers_reject_bad_integers_with_line(parse, text, line):
    with pytest.raises(FormatError, match=line):
        parse(text, *PARSE_ARGS.get(parse, ()))


@pytest.mark.parametrize("parse,usage,header,short", [
    (parse_instance, "maxcsp <n> <m> <Z|N> <t>", "maxcsp 2 1 N 0", "maxcsp 2 1 N"),
    (parse_polynomial, "poly <nvars> <nterms>", "poly 2 1", "poly 2 1 0"),
    (parse_implementation, "impl <target> ...", "impl XOR p=2 q=0", "impl"),
    (parse_decomposition, "decomposition <base> <nvars> <nterms>", "decomposition EX3 2 1",
     "decomposition EX3 2"),
    (parse_graph, "graph <n> <e>", "graph 3 1", "graph 3 1 1"),
    (parse_language, "constraint <name> <arity>", "constraint A 2", "constraint A"),
])
def test_parsers_check_headers_by_one_rule(parse, usage, header, short):
    # `short` has a wrong field count; `header` in upper case, a wrong keyword.
    args = PARSE_ARGS.get(parse, ())
    keyword = usage.split()[0]
    missing = ("language file defines no constraints" if parse is parse_language
               else f"^missing '{keyword}' header$")
    for text in ("", "\n# only a comment\n  \n"):
        with pytest.raises(FormatError, match=missing):
            parse(text, *args)
    for bad in (header.upper(), short):
        with pytest.raises(FormatError) as exc:
            parse(f"# a comment\n{bad}\n", *args)
        assert str(exc.value) == f"line 2: expected '{usage}', got {bad!r}"


def test_zero_counts_stay_valid_where_they_are_values(tmp_path, capsys):
    # A constant polynomial has no variables, and neither has its decomposition.
    poly = tmp_path / "p.poly"
    poly.write_text("poly 0 1\n3 -\n")
    assert main(["decompose", "--base", "EX3", "--target-poly", str(poly)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("decomposition EX3 0 1\n")
    assert parse_decomposition(out, ex_constraint(3)).nvars == 0
    assert parse_graph("graph 1 0\n") == (1, [])


REQUIRED = "error: the following arguments are required: "


@pytest.mark.parametrize("argv,message", [
    (["poly", "--constraint", "FOO"], "error: unknown standard constraint 'FOO'"),
    (["poly", "--constraint", "OR21"], "error: OR21: arity 21 exceeds truth-table cap 20"),
    (["implement", "--language", "nae3", "--target", "FOO"],
     "error: unknown standard constraint 'FOO'"),
    # A missing option is a usage error: argparse prints it after a usage line.
    (["verify", "decomposition", "x"],
     "maxcsp verify decomposition: " + REQUIRED + "--base"),
    (["verify", "implementation", "x", "--language", "nae3"],
     "maxcsp verify implementation: " + REQUIRED + "--target"),
    (["decompose", "--base", "EX3"],
     "maxcsp decompose: error: one of the arguments --target --target-poly is required"),
    (["classify"], "maxcsp classify: " + REQUIRED + "--language"),
])
def test_cli_unknown_names_and_missing_options_exit_2(argv, message, capsys):
    assert _status(argv) == 2
    err = capsys.readouterr().err
    usage = not message.startswith("error: ")
    assert err.startswith("usage: maxcsp " if usage else "error: ") and message in err


# Every command, and every verify kind, with a value for each option it
# offers but those of its exclusive pair (EXCLUSIVE).
CLI_SURFACE = {
    "classify": ["--language", "xor", "-o", "x"],
    "degree": ["--language", "xor", "-o", "x", "--per-constraint"],
    "poly": ["--language", "xor", "-o", "x", "--constraint", "OR2"],
    "decompose": ["--language", "xor", "-o", "x", "--base", "EX3"],
    "implement": ["--language", "xor", "-o", "x", "--max-aux", "1",
                  "--max-apps", "3", "--target", "XOR"],
    "transform": ["--language", "xor", "--instance", "i", "-o", "x", "--verify",
                  "--oracle-cap", "5", "--op", "chain-z",
                  "--target-language", "2sat"],
    "kernelize": ["--language", "xor", "--instance", "i", "-o", "x", "--verify",
                  "--oracle-cap", "5"],
    "compress": ["--language", "xor", "--instance", "i", "-o", "x"],
    "solve": ["--language", "xor", "--instance", "i", "-o", "x",
              "--oracle-cap", "5", "--exact"],
    "verify transform": ["a", "b", "--language", "xor", "--out-language", "lit:xor",
                         "--oracle-cap", "5"],
    "verify decomposition": ["c", "--language", "xor", "--base", "EX3"],
    "verify implementation": ["i", "--language", "xor", "--target", "XOR"],
    "vc-reduce": ["--graph", "g", "--k", "2", "-o", "x"],
    "random": ["--language", "xor", "-o", "x", "--nvars", "3", "--napps", "2",
               "--weight-range", "Z", "--max-weight", "4", "--seed", "1",
               "--threshold", "0"],
}
# The pair of options of which a command takes exactly one, with values.
EXCLUSIVE = {command: (["--target", "OR2"], ["--target-poly", "p"])
             for command in ("decompose", "verify decomposition")}


def _parsers():
    """(command, parser) for every command, a verify kind as 'verify <kind>'."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        kinds = next((a for a in parser._actions if a.dest == "kind"), None)
        if kinds is None:
            yield command, parser
        else:
            yield from ((f"{command} {kind}", p) for kind, p in kinds.choices.items())


@pytest.mark.parametrize("argv,option", [
    (["implement", "--language", "nae3", "--target", "XOR", "--max-aux", "-1"],
     "--max-aux"),
    (["implement", "--language", "nae3", "--target", "XOR", "--max-apps", "-3"],
     "--max-apps"),
    (["random", "--language", "xor", "--nvars", "0", "--napps", "2"], "--nvars"),
    (["random", "--language", "xor", "--nvars", "3", "--napps", "-2"], "--napps"),
    (["random", "--language", "xor", "--nvars", "3", "--napps", "2",
      "--max-weight", "-1"], "--max-weight"),
    (["kernelize", "--language", "xor", "--instance", "i", "--verify",
      "--oracle-cap", "-1"], "--oracle-cap"),
])
def test_cli_counts_out_of_range_exit_2(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["solve", "--language", "xor", "--instance", "{missing}"], "cannot read"),
    (["verify", "decomposition", "{missing}", "--base", "EX3", "--target", "OR2"],
     "cannot read"),
    (["classify", "--language", "xor", "-o", "{missing}/x"], "cannot write"),
    (["classify", "--language", "{binary}"], "cannot read"),
    (["solve", "--language", "xor", "--instance", "{binary}"], "cannot read"),
])
def test_cli_unreadable_and_unwritable_paths_exit_2(argv, message, tmp_path, capsys):
    paths = {"missing": tmp_path / "missing", "binary": tmp_path / "binary"}
    paths["binary"].write_bytes(b"\xff\xfe\x00")
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} {tmp_path}")


@pytest.mark.parametrize("spec", ["", "."])
def test_language_spec_that_names_no_file(spec, capsys):
    # The empty spec is the current directory to Path: no file, like ".".
    assert main(["classify", "--language", spec]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec!r} is neither a builtin language nor a file\n")


def test_unknown_member_error_is_the_plain_message(tmp_path, capsys):
    # A name the language lacks is refused with its line number and the
    # lookup's message, not the repr of the KeyError.
    inst = tmp_path / "i.maxcsp"
    inst.write_text("maxcsp 2 1 N 0\nXOR 1 1 2\n")
    assert main(["kernelize", "--language", "tf", "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: no constraint named 'XOR' in language 'tf'\n")
    impl = tmp_path / "x.impl"
    impl.write_text("impl XOR p=2 q=0\nXOR 1 2\nend\n")
    assert main(["verify", "implementation", str(impl), "--language", "nae3",
                 "--target", "XOR"]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: no constraint named 'XOR' in language 'nae3'\n")


# Malformed files for the fault sweep below, and one well-formed instance.
FAULT_FILES = {
    "inst": "maxcsp 2 1 N 0\nXOR 1 1 2\n",
    "header": "bogus 1 2\n",
    "arity": "constraint A -1\nend\n",
    "nvars": "maxcsp -2 1 N 0\nXOR 1 1 2\n",
    "impl": "impl XOR p=2 q=0\nNAE3 1 2 2\nend\n",
    "qneg": "impl XOR p=2 q=-1\nNAE3 1 1 1\nend\n",
    "q30": "impl XOR p=2 q=30\nNAE3 1 2 2\nend\n",
    "d5": "decomposition EX3 2 1\n1 x1,x2,0 1,5\nend\n",
    "dneg": "decomposition EX3 2 1\n1 x1,0,0 -1\nend\n",
    "graph": "graph 2 1\n1 5\n",
    "wide": "constraint A 21\nend\n",
    "pneg": "poly -1 0\n",
    "dvneg": "decomposition EX3 -1 0\nend\n",
}
IMPL = ("--language", "nae3", "--target", "XOR")
DECOMP = ("--base", "EX3", "--target", "OR2")
# Per command and verify kind: missing and extra paths, negative counts,
# unknown names, bad headers, and files that are out of range.
CLI_FAULTS = [
    ["classify", "--language", "nope"],
    ["classify", "--language", "{arity}"],
    ["classify", "--language", "{wide}"],
    ["classify", "--language", ""],
    ["degree", "--language", "{header}"],
    ["degree", "--language", "xor", "{inst}"],
    ["poly", "--constraint", "FOO"],
    ["poly", "--constraint", "OR21"],
    ["poly", "--constraint", "RNAE9999"],
    ["poly", "--constraint", "OR" + "1" * 5000],
    ["poly", "--constraint", "OR\u00b2"],
    ["poly", "--language", "{header}", "--constraint", "OR2"],
    ["decompose", "--base", "FOO", "--target", "OR2"],
    ["decompose", "--base", "EX3", "--target-poly", "{header}"],
    ["decompose", "--base", "EX3", "--target-poly", "{pneg}"],
    ["implement", "--language", "nae3", "--target", "XOR", "--max-aux", "-1"],
    ["implement", "--language", "nae3"],
    ["transform", "--op", "chain-z", "--language", "2sat", "--instance", "{inst}"],
    ["transform", "--op", "nope", "--language", "xor", "--instance", "{inst}"],
    ["transform", "--op", "unsigned-lit", "--language", "xor",
     "--target-language", "nae3", "--instance", "{inst}", "--verify"],
    ["transform", "--op", "neg-to-base", "--language", "xor", "--instance", "{header}"],
    ["kernelize", "--language", "xor", "--instance", "{nvars}"],
    ["kernelize", "--language", "xor", "--instance", "{inst}", "--oracle-cap", "-1"],
    ["compress", "--language", "xor", "--instance", "{header}"],
    ["compress", "--language", "xor", "--instance", "{missing}"],
    ["solve", "--language", "xor", "--instance", "{inst}", "{inst}"],
    ["solve", "--language", "xor", "--instance", "{inst}", "--oracle-cap", "-2"],
    ["verify"],
    ["verify", "nope", "{inst}"],
    ["verify", "transform", "{inst}", "--language", "xor"],
    ["verify", "transform", "{inst}", "{inst}", "{inst}", "--language", "xor"],
    ["verify", "transform", "{inst}", "{inst}", "--language", "xor"],
    ["verify", "transform", "{inst}", "{header}", "--language", "xor"],
    ["verify", "transform", "{inst}", "{inst}", "--language", "xor",
     "--oracle-cap", "-1"],
    ["verify", "decomposition", *DECOMP],
    ["verify", "decomposition", "{d5}", *DECOMP],
    ["verify", "decomposition", "{dneg}", *DECOMP],
    ["verify", "decomposition", "{dvneg}", *DECOMP],
    ["verify", "decomposition", "{header}", *DECOMP],
    ["verify", "implementation", "{impl}", "{impl}", *IMPL],
    ["verify", "implementation", "{qneg}", *IMPL],
    ["verify", "implementation", "{q30}", *IMPL],
    ["verify", "implementation", "{header}", *IMPL],
    ["verify", "implementation", "{impl}", "--language", "nae3", "--target", "FOO"],
    ["vc-reduce", "--graph", "{header}", "--k", "1"],
    ["vc-reduce", "--graph", "{graph}", "--k", "1"],
    ["vc-reduce", "--graph", "{inst}"],
    ["random", "--language", "xor", "--nvars", "3", "--napps", "-1"],
    ["random", "--language", "nope", "--nvars", "3", "--napps", "1"],
]


def _fault_argv(argv, tmp_path):
    paths = {"missing": tmp_path / "missing"}
    for name, text in FAULT_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    return [a.format_map(paths) for a in argv]


def _argv_id(argv):
    return " ".join(a if len(a) <= 40 else f"{a[:4]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv", CLI_FAULTS, ids=_argv_id)
def test_cli_fault_sweep_exits_2(argv, tmp_path, capsys):
    # Each fault is a usage error or an `error:` line, never a traceback.
    assert _status(_fault_argv(argv, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and (err.startswith("usage: maxcsp ") or err.startswith("error: "))


def test_cli_fault_sweep_reaches_every_command_and_kind():
    swept = {" ".join(a[:2]) if a[0] == "verify" else a[0] for a in CLI_FAULTS}
    assert {command for command, _ in _parsers()} <= swept


@pytest.mark.parametrize("argv", [
    ["verify", "transform", "{inst}", "--language", "xor"],
    ["verify", "implementation", "{impl}", "{impl}", *IMPL],
    ["verify", "implementation", "{qneg}", *IMPL],
    ["verify", "implementation", "{q30}", *IMPL],
    ["poly", "--constraint", "RNAE9999"],
    ["poly", "--constraint", "OR" + "1" * 5000],
    ["poly", "--constraint", "OR\u00b2"],
])
def test_cli_faults_exit_2_without_traceback(argv, tmp_path):
    src = str(Path(maxcsp.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "maxcsp.cli", *_fault_argv(argv, tmp_path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and "error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_surface_is_exactly_the_options_each_command_reads(capsys):
    parsers = dict(_parsers())
    assert set(parsers) == set(CLI_SURFACE)
    count = 0
    for command, argv in CLI_SURFACE.items():
        pair = EXCLUSIVE.get(command, ())
        both = [t for one in pair for t in one]
        offered = {a.option_strings[0] for a in parsers[command]._actions
                   if a.option_strings and a.dest != "help"}
        assert offered == {t for t in argv + both if t.startswith("-")}, command
        count += len(offered)
        for one in pair or ([],):
            build_parser().parse_args([*command.split(), *argv, *one])
        if pair:  # both, or neither, is a usage error
            for options in (both, []):
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args([*command.split(), *argv, *options])
                assert exc.value.code == 2
    capsys.readouterr()
    assert count == 58


@pytest.mark.parametrize("command,option,value", [
    *((c, "--oracle-cap", "5") for c in ("classify", "degree", "poly", "decompose",
                                         "implement", "compress", "random")),
    *((c, o, "1") for c in ("transform", "kernelize")
      for o in ("--max-aux", "--max-apps")),
])
def test_cli_removed_options_exit_2(command, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *CLI_SURFACE[command], *EXCLUSIVE.get(command, ([],))[0],
              option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


# What `import maxcsp` offers; a name added or dropped is an edit here.
PUBLIC_NAMES = {
    "CapExceededError", "ClassificationReport", "Constraint",
    "ConstraintFlags", "ConstraintLanguage", "DegreeWitness", "FormatError",
    "Formula", "Implementation", "KernelResult", "LinearCombination",
    "MaxCspError", "MultilinearPolynomial", "PreconditionError", "SolveResult",
    "SubstitutionPattern", "TransformCertificate", "apply_pattern", "apply_poly",
    "brute_force", "builtin_language", "chain", "characteristic_polynomial",
    "check_equivalence", "classify", "classify_language", "closure",
    "compress_to_polynomial", "decide", "decide_exact", "decompose",
    "degree_of_constraint", "degree_of_language", "empty_formula", "exp_cycle",
    "find_degree_witness", "gamma_d_and", "gamma_d_sat", "implement_lit",
    "implement_tf", "kernelize", "language_denominator", "make_constraint",
    "neg_to_base", "random_formula", "search_implementation",
    "signed_to_unsigned_neg", "standard_constraint", "unsigned_lit", "vc_reduce",
    "verify_implementation", "verify_transform",
}
# Names the package no longer has anywhere.
DROPPED_NAMES = ("compose_implementations", "formula_sum", "scalar_mul",
                 "merge_applications", "symmetric_formula", "from_terms",
                 "characteristic_polynomial_by_expansion", "leading_coefficient",
                 "Application", "formula_polynomial")


def test_public_names_are_pinned():
    assert {name for name, value in vars(maxcsp).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)} == PUBLIC_NAMES
    modules = [m for m in vars(maxcsp).values() if isinstance(m, types.ModuleType)]
    for name in DROPPED_NAMES:
        assert not any(hasattr(m, name) for m in [maxcsp, *modules]), name
    for method in ("__add__", "__sub__", "scale", "evaluate",
                   "substitute_negation", "is_integral"):
        assert not hasattr(maxcsp.MultilinearPolynomial, method), method
    assert not hasattr(maxcsp.LinearCombination, "evaluate")
    assert "declared_weight_exponent" not in maxcsp.Formula.__dataclass_fields__
    assert not hasattr(maxcsp.Formula, "applications")
    assert not hasattr(maxcsp.empty_formula(), "applications")


def test_entry_points_and_knobs_no_command_reaches_are_gone():
    # io_formats is not loaded by `import maxcsp`, so it is checked here.
    assert not hasattr(io_formats, "emit_language")
    assert not hasattr(io_formats, "parse_certificate")
    assert not hasattr(maxcsp.Formula, "constraints_used")
    assert "use_catalog" not in inspect.signature(maxcsp.search_implementation).parameters
    assert "allow_constants" not in inspect.signature(parse_language).parameters


# Per --op: the language its instance is over, its target language, and the
# label and kind of the certificate it emits.
OP_CERTIFICATES = {
    "neg-to-base": ("neg:xor", None, "neg-to-base", "additive"),
    "unsign-neg": ("neg:xor", None, "signed-to-unsigned", "additive"),
    "apply-poly": ("2sat", "xor", "apply-poly", "additive"),
    "implement-tf": ("tf:xor", None, "implement-tf", "additive"),
    "unsigned-lit": ("xor", None, "unsigned-lit", "additive"),
    "implement-lit": ("lit:xor", None, "implement-lit", "linear"),
    "chain-z": ("2sat", "xor", "chain-additive", "additive"),
    "chain-n": ("2sat", "nae3", "chain-linear", "linear"),
}


def _emitted(op, phi, tmp_path, capsys):
    """The header line and the certificate that `transform --op op` emits
    for phi."""
    spec, target, _, _ = OP_CERTIFICATES[op]
    inst = tmp_path / f"{op}.maxcsp"
    inst.write_text(emit_instance(phi))
    argv = ["transform", "--op", op, "--language", spec.rpartition(":")[2],
            "--instance", str(inst)]
    assert main(argv + (["--target-language", target] if target else [])) == 0
    header, _, rest = capsys.readouterr().out.partition("\n")
    return header, parse_certificate(rest[rest.index("certificate "):])


def test_stage_table_gives_ops_labels_and_kinds(tmp_path, capsys):
    transform = dict(_parsers())["transform"]
    ops = next(a for a in transform._actions if a.dest == "op").choices
    assert set(ops) == set(STAGES) == set(OP_CERTIFICATES)
    for op, (spec, _, label, kind) in OP_CERTIFICATES.items():
        row = STAGES[op]
        assert row.label == label and row.kind == (None if row.ops else kind), op
        phi = random_formula(resolve_language_spec(spec), 4, 5,
                             "N" if op == "implement-lit" else "Z",
                             max_weight=3, seed=op, threshold=0)
        _, cert = _emitted(op, phi, tmp_path, capsys)
        assert (cert.label, cert.kind) == (label, kind), op
    # The degenerate exits: t < -||phi|| for implement-tf, t < 0 for
    # implement-lit.
    for op, weights in (("implement-tf", "Z"), ("implement-lit", "N")):
        spec, _, label, kind = OP_CERTIFICATES[op]
        phi = random_formula(resolve_language_spec(spec), 4, 5, weights,
                             max_weight=3, seed=op)
        phi = phi.replace(threshold=-phi.total_weight - 1)
        header, cert = _emitted(op, phi, tmp_path, capsys)
        assert header == "maxcsp 1 0 N -1", op
        assert (cert.label, cert.kind) == (label, kind), op


# `wc -l src/maxcsp/*.py`: the package may shrink, and a change that grows
# it raises this number in the same edit.
SOURCE_LINE_BUDGET = 2986


def test_source_line_budget():
    package = Path(maxcsp.__file__).resolve().parent
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}
    assert sum(lines.values()) <= SOURCE_LINE_BUDGET, f"{sum(lines.values())} lines: " + ", ".join(
        f"{name} {count}" for name, count in lines.items())
