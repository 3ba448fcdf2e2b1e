"""Byte-identical CLI output on a seeded corpus.

The digests below were recorded from the code before the reduction layer
was reorganised, so any change in what the CLI emits shows up here. Each
digest covers the concatenated outputs of one group of requests. To print
the digests of the current code, run

    PYTHONPATH=src python3 tests/test_cli_goldens.py
"""

import contextlib
import hashlib
import io
import random

from maxcsp.cli import main
from maxcsp.constraints import ConstraintLanguage, standard_constraint
from maxcsp.expressibility import max_degree_member
from maxcsp.formulas import random_formula
from maxcsp.io_formats import emit_instance, resolve_language_spec
from maxcsp.languages import (CATALOG_LANGUAGE_KEYS, NP_HARD_LANGUAGE_KEYS,
                              builtin_language)
from maxcsp.polynomials import degree_of_constraint

from text_formats import emit_language

# The reduce-small mix: (op, base, target, nvars); 8 applications each.
# Every pair here is below the oracle cap, so its verify report is
# complete (no SKIP) however the affine check is made.
TRANSFORM_KINDS = (
    [("neg-to-base", k, None, 7) for k in ("xor", "nae3", "ex3")]
    + [("unsign-neg", k, None, 7) for k in ("xor", "nae3", "ex3")]
    + [("implement-tf", k, None, 7) for k in ("xor", "nae3", "ex3", "2sat")]
    + [("unsigned-lit", k, None, 7) for k in ("xor", "nae3", "ex3", "2sat")]
    + [("implement-lit", k, None, n)
       for k, n in (("xor", 7), ("nae3", 7), ("ex3", 4), ("2sat", 7))]
    + [(op, s, t, 6) for op in ("apply-poly", "chain-z")
       for s, t in (("2sat", "xor"), ("2sat", "nae3"), ("xor", "ex3"),
                    ("and2", "nae3"))]
    + [("chain-n", s, t, 6)
       for s, t in (("2sat", "xor"), ("2sat", "nae3"), ("xor", "2sat"))])
PREFIX = {"neg-to-base": "neg:", "unsign-neg": "neg:", "implement-tf": "tf:",
          "implement-lit": "lit:"}
SEEDS = (0, 1, 2)
KERNEL_LANGS = ("2sat", "3sat", "nae3lit")
# One-member languages read from a file, whose closures have members of
# arity 4 and 5: (constraint, weights, nvars, napps).
WIDE_KERNELS = (("EX4", "N", 10, 40), ("EX4", "Z", 10, 40), ("NAE5", "N", 8, 30))
# implement requests per NP-hard language: (target, caps). The small caps
# reach the identity, the catalog and the exhaustive search. Its digest was
# recorded once every `impl` header named the target asked for.
IMPLEMENT_REQUESTS = ([(t, ("--max-aux", "1", "--max-apps", "2"))
                       for t in ("XOR", "T", "F")] + [("XOR", ())])
# decompose targets, each over the max-degree member of every NP-hard
# language and over EX4 and NAE5 whose degree reaches the target's. Its
# digest was recorded before the degree-witness descent was rewritten.
DECOMPOSE_TARGETS = ("OR2", "OR3", "XOR", "XOR3", "EX3", "NAE3", "AND2", "AND3",
                     "EQ", "DICUT", "T", "F", "NAE4")

DIGESTS = {
    "classify-stdout/closures": "279eeb486733844e976ac96b9e57e49917089d2be081790b43fe4cf5ed4b9784",
    "compress-stdout": "b907d70cbfa135130c9be7f53398d9ef5233e366c0de2fc9bc9b2ab4b0614169",
    "decompose-stdout": "9114c447cab63cafff9f437698c7a138014fd08b36b0fb6b8c6f23e07fb1df81",
    "implement-stdout": "9c28f30a44e19a286739cfc21b2802dff30de54fe43c72136441140544c0bfcf",
    "kernelize-stdout": "f4c4f95b56634e869800e004ecc2a64030e045514ba6682bddb9b2ba540fbc50",
    "kernelize-stdout/n20": "e02d18c058e39be0f81ddbecbe8e8112d42671b288089edaaff97649e8578b1b",
    "kernelize-stdout/n40": "a35aea9b5d22ecd60be7d3eec667808abb6ec02f467950c09488d1df2f03a549",
    "kernelize-stdout/wide": "ecb0ba4cd3ed89914d9dfda485135c911df11dc561fa6143a0efecf6b6721ad7",
    "solve-exact-stdout": "68236828693df5f451c9601333331890ffacddffe7a97335c5d32995e91b3bf2",
    "transform-stdout/apply-poly": "05451be0d92da4119bb1bd8633a504c528632b286e47976eacf7fc11abffddc4",
    "transform-stdout/chain-n": "a2887066592c43dc66129cec7a0a433509f6e9689955fe4c490bc8e8663cc472",
    "transform-stdout/chain-z": "89fe28ec0bf961b8b1f8956bc65ea05548d2b76c0bdc2bebb14f7cbf575a28bd",
    "transform-stdout/implement-lit": "bf65bdb99c82307892e038388eb3ce4b15300c297daf12be278a8fc97a68a6f4",
    "transform-stdout/implement-tf": "91c5b90c45fef455a0ab3d129ca0101b937313168d5f2e48cd9f228851f81adb",
    "transform-stdout/neg-to-base": "41d76626cc488298a883da904a0d77538344ad03c62c040ad80f85c0b68f9967",
    "transform-stdout/unsign-neg": "6103d63fc112ba4658d669d9dd293d4a70a7b53bfd71be75d4c21e9b8955c59e",
    "transform-stdout/unsigned-lit": "7d6f81aef882546be850b4b283a30116b2d91c8e22a09b8ee31f7c338b2cd965",
    "transform-verify-stderr/apply-poly": "a348d4c842da4fb2b76afb817a97b2b1c66b42ebe1e59b2bd0152b55f6e18f3c",
    "transform-verify-stderr/chain-n": "58755124bdacd8859ccfde85741e21d8892da68a49055518b1fa5eaac29da6be",
    "transform-verify-stderr/chain-z": "6b0ab87abc90520d7260cf57f53d817c54551699b9f29d68f19ad92b1e6a977c",
    "transform-verify-stderr/implement-lit": "2948bca019bc267ebf6a979595784a0c05d778123bc9815a25eed10859049319",
    "transform-verify-stderr/implement-tf": "57c2931743a1bd71e1abdd421e6787ef400e5bb5a7dc294eee81ea32b254db1f",
    "transform-verify-stderr/neg-to-base": "feba4e952801ebeb09df4535b1bbacb565a2b73908be32ec721123b83537906b",
    "transform-verify-stderr/unsign-neg": "feba4e952801ebeb09df4535b1bbacb565a2b73908be32ec721123b83537906b",
    "transform-verify-stderr/unsigned-lit": "8683ac50327891df2269532b659e0f449efca13d814106ea9e7eb89eca8fae1e",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _instance(path, rid, language, nvars, napps, weights, max_weight,
              half=False):
    phi = random_formula(resolve_language_spec(language), nvars, napps,
                         weights, max_weight=max_weight,
                         seed=random.Random(f"goldens/{rid}"))
    if half:
        phi = phi.replace(threshold=phi.total_weight // 2)
    path.write_text(emit_instance(phi))
    return str(path)


def _outputs(tmp):
    """Group name -> concatenated outputs of its requests."""
    groups = {}

    def add(key, text):
        groups[key] = groups.get(key, "") + text

    for seed in SEEDS:
        for op, base, target, n in TRANSFORM_KINDS:
            rid = f"{seed}/{op}/{base}>{target}"
            language = PREFIX.get(op, "") + base
            weights = "N" if op == "implement-lit" else "Z"
            inst = _instance(tmp / f"{seed}-{op}-{base}-{target}.maxcsp", rid,
                             language, n, 8, weights, n ** 3)
            argv = ["transform", "--op", op, "--language", base,
                    "--instance", inst, "--verify"]
            if target:
                argv += ["--target-language", target]
            rc, out, err = _run(argv)
            assert rc == 0, (rid, err)
            add(f"transform-stdout/{op}", out)
            add(f"transform-verify-stderr/{op}", err)

    for key in KERNEL_LANGS:
        inst = _instance(tmp / f"k-{key}.maxcsp", f"kernel/{key}", key, 10,
                         250, "N", 1000, half=True)
        for group, argv in (
                ("kernelize-stdout", ["kernelize", "--language", key]),
                ("compress-stdout", ["compress", "--language", key]),
                ("solve-exact-stdout", ["solve", "--exact", "--language", key])):
            rc, out, err = _run(argv + ["--instance", inst])
            assert rc == 0, (group, key, err)
            add(group, out)
        # At n = 20 the monomials overlap heavily, so the chain stages merge
        # many duplicate applications.
        inst = _instance(tmp / f"k20-{key}.maxcsp", f"kernel20/{key}", key,
                         20, 500, "N", 1000, half=True)
        rc, out, err = _run(["kernelize", "--language", key, "--instance", inst])
        assert rc == 0, ("kernelize n=20", key, err)
        add("kernelize-stdout/n20", out)
        # At n = 40 and m = 25n the kernels run to thousands of
        # applications, and unsigned-lit merges the most.
        inst = _instance(tmp / f"k40-{key}.maxcsp", f"kernel40/{key}", key,
                         40, 1000, "N", 1000, half=True)
        rc, out, err = _run(["kernelize", "--language", key, "--instance", inst])
        assert rc == 0, ("kernelize n=40", key, err)
        add("kernelize-stdout/n40", out)

    for name, weights, n, m in WIDE_KERNELS:
        lang = tmp / f"{name.lower()}.lang"
        lang.write_text(emit_language(
            ConstraintLanguage(name.lower(), (standard_constraint(name),))))
        inst = _instance(tmp / f"w-{name}-{weights}.maxcsp",
                         f"wide/{name}/{weights}", str(lang), n, m, weights,
                         1000, half=True)
        rc, out, err = _run(["kernelize", "--language", str(lang),
                             "--instance", inst])
        assert rc == 0, ("kernelize wide", name, weights, err)
        add("kernelize-stdout/wide", out)

    for key in NP_HARD_LANGUAGE_KEYS:
        for target, caps in IMPLEMENT_REQUESTS:
            rc, out, err = _run(["implement", "--language", key,
                                 "--target", target, *caps])
            assert rc == 0, ("implement", key, target, err)
            add("implement-stdout", out)

    bases = [(["--language", key], max_degree_member(builtin_language(key)))
             for key in NP_HARD_LANGUAGE_KEYS]
    bases += [([], standard_constraint(name)) for name in ("EX4", "NAE5")]
    for language, base in bases:
        for target in DECOMPOSE_TARGETS:
            degree = degree_of_constraint(standard_constraint(target))
            if degree > degree_of_constraint(base):
                continue
            rc, out, err = _run(["decompose", *language, "--base", base.name,
                                 "--target", target])
            assert rc == 0, ("decompose", base.name, target, err)
            add("decompose-stdout", out)

    # classify prints every member's name, so these pin the closure names.
    specs = [f"{mode}:{key}" for key in CATALOG_LANGUAGE_KEYS
             for mode in ("tf", "lit", "neg")]
    specs += [f"{mode}:{tmp / name}.lang" for name in ("ex4", "nae5")
              for mode in ("tf", "lit")]
    for spec in specs:
        rc, out, err = _run(["classify", "--language", spec])
        assert rc == 0, ("classify", spec, err)
        add("classify-stdout/closures", out)
    return groups


def _digests(tmp):
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in sorted(_outputs(tmp).items())}


def test_cli_output_is_byte_identical(tmp_path):
    assert _digests(tmp_path) == DIGESTS


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        for key, digest in _digests(Path(d)).items():
            print(f'    "{key}": "{digest}",')
