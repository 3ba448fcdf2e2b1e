"""Spans around maxcsp's public functions, recorded from outside the package.

Each traced function is replaced by a wrapper under every name a caller
looks it up by: its home module and every maxcsp module that imported it
(`from .expressibility import language_denominator` binds
`maxcsp.transforms.language_denominator`, which is wrapped too). Calls
inside a module go through that module's globals, so they are caught as
well. Spans nest under the request that caused them; a span's self time
is its duration minus that of its direct children.

Counts come from the same boundaries: argument and result sizes, the
`cache_info()` of the memoized functions, and the number of polynomial
terms built while compressing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Public functions that mark a layer boundary on the CLI paths.
SPANS = {
    "cli": ("main",),
    "io_formats": ("parse_instance", "emit_instance"),
    "transforms": ("kernelize", "compress_to_polynomial", "chain", "apply_poly",
                   "implement_tf", "unsigned_lit", "implement_lit",
                   "neg_to_base", "signed_to_unsigned_neg", "verify_transform"),
    "expressibility": ("language_denominator", "decompose"),
    "implementations": ("search_implementation", "verify_implementation"),
    "constraints": ("classify_language",),
    # The oracle's entry points; none calls another.
    "solver": ("brute_force", "decide", "decide_exact", "decisions"),
}
CACHED = ("constraints.closure", "constraints.recover_pattern",
          "polynomials.characteristic_polynomial")
VERIFY = "transforms.verify_transform"

# Per-layer metrics: name -> unit. Times are seconds per traced cycle.
METRICS = {
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "io_formats.parse_instance.s": "s",
    "io_formats.emit_instance.s": "s",
    "io_formats.bytes_in": "bytes",
    "io_formats.bytes_out": "bytes",
    "transforms.kernelize.s": "s",
    "transforms.kernelize.apps_out": "count",
    "transforms.compress_to_polynomial.s": "s",
    "polynomials.terms_accumulated": "count",
    "polynomials.monomials_out": "count",
    "polynomials.characteristic_polynomial.hit_ratio": "ratio",
    "transforms.chain.s": "s",
    "transforms.apply_poly.s": "s",
    "transforms.implement_tf.s": "s",
    "transforms.unsigned_lit.s": "s",
    "transforms.implement_lit.s": "s",
    "transforms.neg_to_base.s": "s",
    "transforms.signed_to_unsigned_neg.s": "s",
    "transforms.verify_transform.s": "s",
    "expressibility.language_denominator.calls": "count",
    "expressibility.language_denominator.s": "s",
    "expressibility.decompose.calls": "count",
    "expressibility.decompose.s": "s",
    "implementations.search_implementation.calls": "count",
    "implementations.search_implementation.s": "s",
    "implementations.verify_implementation.calls": "count",
    "implementations.verify_implementation.s": "s",
    "constraints.classify_language.calls": "count",
    "constraints.classify_language.s": "s",
    "constraints.closure.hit_ratio": "ratio",
    "constraints.recover_pattern.hit_ratio": "ratio",
    "solver.calls": "count",
    "solver.s": "s",
    "solver.assignments": "count",
    "solver.assignments_per_s": "1/s",
    "solver.calls_per_verify": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Counts that must repeat exactly whenever the same cycle is traced again.
EXACT = tuple(name for name, unit in METRICS.items()
              if unit in ("count", "bytes")) + ("solver.calls_per_verify",)


def _group(name: str) -> str:
    return "solver" if name.startswith("solver.") else name


class Tracer:
    """Install with `install()`, run requests between `begin_request()`
    calls, then `uninstall()` and read `summary()`."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent, request, start, end]
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.compressing = 0
        self._patches: list[tuple[object, str, object]] = []
        self._cache0: dict[str, tuple[int, int]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "maxcsp" or name.startswith("maxcsp.")]
        for layer, names in SPANS.items():
            home = sys.modules[f"maxcsp.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

        poly_cls = sys.modules["maxcsp.polynomials"].MultilinearPolynomial
        init = poly_cls.__init__

        def counting_init(obj, terms=None):
            if self.compressing and terms:
                self.counts["polynomials.terms_accumulated"] += len(terms)
            init(obj, terms)

        self._patch(poly_cls, "__init__", counting_init)
        self._cache0 = {name: self._cache_info(name) for name in CACHED}

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
        for name in CACHED:
            hits, misses = self._cache_info(name)
            h0, m0 = self._cache0[name]
            self.counts[f"{name}.hits"] += hits - h0
            self.counts[f"{name}.misses"] += misses - m0

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    @staticmethod
    def _cache_info(name: str) -> tuple[int, int]:
        module, fname = name.split(".")
        info = getattr(sys.modules[f"maxcsp.{module}"], fname).cache_info()
        return info.hits, info.misses

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        compress = name == "transforms.compress_to_polynomial"

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, parent, self.request, time.perf_counter(), 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.compressing += compress
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
                self.compressing -= compress
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def begin_request(self) -> None:
        self.request += 1

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer values for everything traced since construction,
        except trace.overhead_ratio, which the caller measures."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start

        def ancestors(i):
            p = spans[i][1]
            while p >= 0:
                yield spans[p][0]
                p = spans[p][1]

        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        in_verify = 0
        for i, (name, _, _, start, end) in enumerate(spans):
            group = _group(name)
            calls[group] += 1
            up = list(ancestors(i))
            if group not in map(_group, up):
                incl[group] += end - start
            own[group] += end - start - child[i]
            if group == "solver" and VERIFY in up:
                in_verify += 1

        out = {}
        for metric in METRICS:
            base, _, field = metric.rpartition(".")
            if field == "s":
                out[metric] = incl[base]
            elif field == "self_s":
                out[metric] = own[base]
            elif field == "calls":
                out[metric] = calls[base]
        counts = self.counts
        out["solver.calls"] = calls["solver"]
        out["solver.assignments"] = counts["solver.assignments"]
        out["solver.assignments_per_s"] = (
            counts["solver.assignments"] / incl["solver"] if incl["solver"] else 0.0)
        out["solver.calls_per_verify"] = (
            in_verify / calls[VERIFY] if calls[VERIFY] else 0.0)
        for name in ("io_formats.bytes_in", "io_formats.bytes_out",
                     "transforms.kernelize.apps_out",
                     "polynomials.terms_accumulated", "polynomials.monomials_out"):
            out[name] = counts[name]
        for name in CACHED:
            hits, misses = counts[f"{name}.hits"], counts[f"{name}.misses"]
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _count_solver(counts, args, kwargs, result):
    counts["solver.assignments"] += 1 << _first_arg(args, kwargs, "phi").nvars


_AFTER = {
    "io_formats.parse_instance":
        lambda c, a, k, r: c.update({"io_formats.bytes_in":
                                     len(_first_arg(a, k, "text"))}),
    "io_formats.emit_instance":
        lambda c, a, k, r: c.update({"io_formats.bytes_out": len(r)}),
    "transforms.kernelize":
        lambda c, a, k, r: c.update({"transforms.kernelize.apps_out":
                                     r.formula.size}),
    "transforms.compress_to_polynomial":
        lambda c, a, k, r: c.update({"polynomials.monomials_out": r.monomials}),
    **{f"solver.{fn}": _count_solver for fn in SPANS["solver"]},
}
