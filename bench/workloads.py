"""Seeded inputs, CLI requests and output checks for the maxcsp benchmark.

A workload is a fixed list of request kinds. One *cycle* issues every kind
once, each on a fresh instance drawn from (workload, seed, cycle index), so
no instance repeats within a run. The *short slice* of a seed is the
cheapest kinds of its cycle 0; the short slice of GOLDEN_SEED is the
warm-up, and its output digests are recorded in goldens.json.

This module imports maxcsp only inside functions, so a caller can time the
package import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

WORKLOADS = ("kernelize-large", "reduce-small", "solve-sweep")
GOLDEN_SEED = 0

# Request kinds run largest first within a cycle: a small request that ran
# before a large one had grown the heap took 25-50% longer.

# kernelize-large: NP-hard languages whose kernels go through the whole
# chain, at m = 25 n, costliest language first. A cycle has one instance
# per language at n = 40 and at n = 10, and KERNEL_ROUNDS rounds at n = 20:
# one 3sat and one nae3lit instance each, and one 2sat instance in every
# other round. The n = 40 requests are spread evenly among the rounds, so
# every group's samples span the whole window.
#
# Sorted by cost, the requests fall in groups, one per (language, n), each
# at least 1.4x the next cheaper one. Over a window of two cycles (82
# requests) the median sits at about the 73rd percentile of the 28 nae3lit
# n = 20 requests, and the tail (10 samples beyond it: the six n = 40
# requests and four 3sat ones) at the 82nd of the 28 3sat ones. On a shared
# 2-vCPU machine the CPU ran in phases about 1.3x apart; a median in the
# middle of a group flipped between the group's fast and slow values from
# run to run (spread 0.19 over ten runs with a 2sat instance in every
# round), while the 65th-81st percentiles of the same runs spread 0.08-0.10. ex3 is left out:
# its costs sit within 20% of other groups, and at n = 40 it alone takes a
# fifth of a cycle. reduce-small still runs ex3 through every lemma.
KERNEL_LANGS = ("3sat", "nae3lit", "2sat")
KERNEL_ROUNDS = 14

# reduce-small: the acceptance-5 mix, one kind per (op, language[s]).
# (op, base, target, nvars); instances have 8 applications.
REDUCE_KINDS = (
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
INSTANCE_PREFIX = {"neg-to-base": "neg:", "unsign-neg": "neg:",
                   "implement-tf": "tf:", "implement-lit": "lit:"}

# solve-sweep: `solve --exact` at m = 10 n, and `verify transform` on
# implement-lit pairs. n = 20 is solved for 2sat only: one 2^20 sweep costs
# 1.6-2.7 s, so three languages there would leave room for a single cycle
# per run. implement-lit maps n to n * (2 + aux): n_out = 20, 18, 16, 16.
SOLVES = (("2sat", 20),) + tuple(
    (key, n) for n in (18, 16) for key in ("2sat", "3sat", "nae3lit"))
VERIFY_PAIRS = (("2sat", 10), ("nae3", 9), ("xor", 8), ("ex3", 4))

# Whole cycles per window. A run is made of whole windows; the median and
# the tail are taken within each window and reported as their median over
# the windows, so they do not move with the number of windows a faster or
# slower machine fits in the run. A run is at least one window. On a
# shared 2-vCPU machine the CPU speed drifted by up to 1.5x over tens of
# seconds, so kernelize-large measures two cycles (82 requests, 40-60 s)
# per window. On reduce-small, 21 cycles
# hold 21 samples of the costliest kind, so the tail (11th-largest latency)
# sits near that kind's median instead of in its upper few instances. On
# solve-sweep, 3 cycles.
WINDOW_CYCLES = {"kernelize-large": 2, "reduce-small": 21, "solve-sweep": 3}


@dataclass(frozen=True)
class Request:
    id: str
    check: str                 # "kernel" | "transform" | "solve" | "verify"
    argv: tuple[str, ...]
    out: str                   # output file, "" for verify
    instance: str
    language: str
    small: bool                # part of the short slice


@contextlib.contextmanager
def scratch_dir(name: str):
    """A per-process directory under bench/work, removed afterwards."""
    path = Path(__file__).resolve().parent / "work" / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def use_source_tree() -> None:
    """Import maxcsp from the checkout's src/, never from elsewhere."""
    if not (SRC / "maxcsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no maxcsp package under {SRC}; run the "
                         f"benchmark from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Generation


def write_cycle(workload: str, seed: int, cycle: int, work: Path
                ) -> list[Request]:
    """Write the instance files of one cycle and return its requests."""
    from maxcsp.formulas import random_formula
    from maxcsp.io_formats import emit_instance, resolve_language_spec
    from maxcsp.transforms import implement_lit

    d = work / f"s{seed}c{cycle}"
    d.mkdir(parents=True, exist_ok=True)

    def formula(rid, language, nvars, napps, weights, max_weight):
        # seeded per request, so the order of kinds does not matter
        rng = random.Random(f"{workload}/{seed}/{cycle}/{rid}")
        return random_formula(resolve_language_spec(language), nvars, napps,
                              weights, max_weight=max_weight, seed=rng)

    def half_threshold(phi):
        # t = ||phi|| // 2: no early exit decides the instance outright
        return phi.replace(threshold=phi.total_weight // 2)

    def write(rid, phi, cert=None, suffix=".maxcsp") -> str:
        path = d / (rid.replace("/", "-").replace(">", "-") + suffix)
        path.write_text(emit_instance(phi, cert))
        return str(path)

    reqs = []
    if workload == "kernelize-large":
        rounds = [[(key, 20, f"/{i}") for key in KERNEL_LANGS
                   if key != "2sat" or i % 2 == 0]
                  for i in range(KERNEL_ROUNDS)]
        for j, key in enumerate(KERNEL_LANGS):
            spot = j * KERNEL_ROUNDS // len(KERNEL_LANGS)
            rounds[spot].insert(0, (key, 40, ""))
        rounds.append([(key, 10, "") for key in KERNEL_LANGS])
        for key, n, suffix in (r for rnd in rounds for r in rnd):
            rid = f"kernelize/{key}/n{n}{suffix}"
            inst = write(rid, half_threshold(
                formula(rid, key, n, 25 * n, "N", 1000)))
            argv = ("kernelize", "--language", key, "--instance", inst,
                    "-o", inst + ".out")
            reqs.append(Request(rid, "kernel", argv, inst + ".out", inst,
                                key, n == 10))

    elif workload == "reduce-small":
        for op, base, target, n in REDUCE_KINDS:
            rid = f"{op}/{base}" + (f">{target}" if target else "")
            language = INSTANCE_PREFIX.get(op, "") + base
            weights = "N" if op == "implement-lit" else "Z"
            inst = write(rid, formula(rid, language, n, 8, weights, n ** 3))
            argv = ["transform", "--op", op, "--language", base]
            if target:
                argv += ["--target-language", target]
            argv += ["--instance", inst, "--verify", "-o", inst + ".out"]
            reqs.append(Request(rid, "transform", tuple(argv), inst + ".out",
                                inst, language, True))

    elif workload == "solve-sweep":
        for key, n in SOLVES:
            rid = f"solve/{key}/n{n}"
            inst = write(rid, half_threshold(
                formula(rid, key, n, 10 * n, "N", 1000)))
            argv = ("solve", "--exact", "--language", key, "--instance", inst,
                    "-o", inst + ".out")
            reqs.append(Request(rid, "solve", argv, inst + ".out", inst, key,
                                n == 16))
        for key, n in VERIFY_PAIRS:
            rid, lit = f"verify/{key}/n{n}", f"lit:{key}"
            phi = half_threshold(formula(rid, lit, n, 10 * n, "N", 1000))
            phi2, cert = implement_lit(phi, resolve_language_spec(key))
            inst = write(rid, phi, suffix=".in.maxcsp")
            pair = write(rid, phi2, cert, suffix=".out.maxcsp")
            argv = ("verify", "transform", inst, pair, "--language", lit,
                    "--out-language", key)
            reqs.append(Request(rid, "verify", argv, "", inst, lit,
                                phi2.nvars == 16))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs


def short_slice(workload: str, seed: int, work: Path) -> list[Request]:
    return [r for r in write_cycle(workload, seed, 0, work) if r.small]


def save_manifest(path: Path, reqs: list[Request]) -> None:
    path.write_text(json.dumps([asdict(r) for r in reqs]))


def load_manifest(path: Path) -> list[Request]:
    return [Request(**{**r, "argv": tuple(r["argv"])})
            for r in json.loads(path.read_text())]


# ---------------------------------------------------------------------------
# Execution and checks


def execute(cli, req: Request) -> tuple[float, object, str]:
    """One request through `cli.main`, looked up at call time so a tracer
    can wrap it. Returns (seconds, exit code or None if it raised, stderr)."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _instance_body(text: str) -> str:
    """The instance lines of an emitted file: everything before the
    certificate block, comments dropped."""
    body = []
    for line in text.splitlines():
        if line.startswith("certificate"):
            break
        if not line.startswith("#"):
            body.append(line)
    return "\n".join(body) + "\n"


def _report_problems(stderr: str) -> list[str]:
    """Verify-report lines that are not PASS. Every instance here is within
    the oracle and pointwise caps, so a SKIP is a failure too."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    if not lines:
        return ["empty verify report"]
    return [ln for ln in lines if not ln.startswith("PASS ")]


def check(req: Request, rc, stderr: str) -> tuple[bool, str, str]:
    """(ok, digest, why-not) for one finished request."""
    if rc != 0:
        return False, "", f"exit {rc}: {stderr.strip()[-300:]}"
    try:
        return _check_output(req, stderr)
    except (OSError, ValueError, KeyError) as exc:
        return False, "", f"unreadable output: {exc!r}"


def _check_output(req: Request, stderr: str) -> tuple[bool, str, str]:
    if req.check == "verify":
        bad = _report_problems(stderr)
        return not bad, _sha(stderr), "; ".join(bad)

    text = Path(req.out).read_text()
    if req.check == "solve":
        return _check_solve(req, text)

    body = _instance_body(text)
    header = body.split("\n", 1)[0].split()
    napps = len(body.splitlines()) - 1
    if len(header) != 5 or header[0] != "maxcsp" or int(header[2]) != napps:
        return False, "", f"malformed output header {header}"
    if req.check == "transform":
        bad = _report_problems(stderr)
        return not bad, _sha(body), "; ".join(bad)

    # kernel: the report line must respect the monomial bound
    report = next((ln for ln in text.splitlines()
                   if ln.startswith("# kernel ")), None)
    if report is None:
        return False, "", "no kernel report line"
    fields = dict(kv.split("=") for kv in report.split()[2:])
    if int(fields["monomials"]) > int(fields["bound"]):
        return False, "", f"monomials {fields['monomials']} > bound {fields['bound']}"
    if int(fields["apps"]) != napps:
        return False, "", f"report apps {fields['apps']} != {napps} emitted"
    return True, _sha(body), ""


def _check_solve(req: Request, text: str) -> tuple[bool, str, str]:
    from maxcsp.io_formats import parse_instance, resolve_language_spec

    lines = dict(ln.split(" ", 1) for ln in text.splitlines() if ln)
    optimum = int(lines["optimum"])
    witness = [int(b) for b in lines["witness"]]
    phi, _ = parse_instance(Path(req.instance).read_text(),
                            resolve_language_spec(req.language))
    digest = _sha(f"optimum {lines['optimum']}\nwitness {lines['witness']}\n")
    if phi.value(witness) != optimum:
        return False, digest, "witness value differs from the optimum"
    if lines["decision"] != ("yes" if optimum >= phi.threshold else "no"):
        return False, digest, "decision line contradicts the optimum"
    if lines.get("exact") not in ("yes", "no"):
        return False, digest, "missing exact line"
    return True, digest, ""


def run_slice(cli, reqs: list[Request]) -> tuple[dict, list[str]]:
    """Run requests, then check them: ({id: digest}, failure messages)."""
    return check_all(reqs, [execute(cli, req) for req in reqs])


def check_all(reqs: list[Request], results) -> tuple[dict, list[str]]:
    """Check the `execute` results of requests that have all finished."""
    digests, failures = {}, []
    for req, (_, rc, err) in zip(reqs, results):
        ok, digests[req.id], why = check(req, rc, err)
        if not ok:
            failures.append(f"{req.id}: {why}")
    return digests, failures


def golden_mismatches(workload: str, digests: dict) -> list[str]:
    recorded = json.loads(GOLDENS.read_text()).get(workload, {})
    if set(recorded) != set(digests):
        return [f"golden ids differ: recorded {sorted(recorded)}, "
                f"ran {sorted(digests)}"]
    return [f"{k}: digest {digests[k][:12]} != golden {v[:12]}"
            for k, v in sorted(recorded.items()) if digests[k] != v]
