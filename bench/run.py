"""maxcsp benchmark: one closed-loop client calling the CLI in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Every request is `maxcsp.cli.main(argv)` on instance files written from
the seed, so parsing, compute and emitting are all timed. The client sends
the next request when the previous one returns, and runs whole cycles
(every request kind once, on fresh instances) in windows of the workload's
WINDOW_CYCLES, until S seconds have passed at the end of a window. The
median and tail latency are taken per window and reported as their median
over the windows.
Output checks run between requests, outside the timed path.

--trace 0 reports the end-to-end metrics; --trace 1 traces cycle 0 of the
seed, alternating untraced and traced passes over the same requests, and
reports the per-layer metrics (see tracer.py and README.md). The last
stdout line is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5


def percentiles(latencies: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile). The tail is the highest percentile
    with at least 10 samples beyond it; the maximum when there are too few
    samples for one."""
    ranked = sorted(latencies)
    n = len(ranked)
    tail_rank = n - 11 if n > 10 else n - 1
    return (statistics.median(ranked), ranked[tail_rank],
            100.0 * (tail_rank + 1) / n)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seed, self.seconds, self.work = \
            workload, seed, seconds, work
        self.attempted = 0
        self.problems: list[str] = []     # failed requests
        self.mismatches: list[str] = []   # golden, determinism, exact counts

    def request(self, cli, req) -> tuple[float, str]:
        seconds, rc, err = wl.execute(cli, req)
        ok, digest, why = wl.check(req, rc, err)
        self.attempted += 1
        if not ok:
            self.problems.append(f"{req.id}: {why}")
        return seconds, digest

    # -- set-up ------------------------------------------------------------

    def setup(self, cli, repeats: int) -> float | None:
        """Median set-up time over `repeats` fresh interpreters (None for
        none); then the same warm-up in this one."""
        golden = wl.short_slice(self.workload, wl.GOLDEN_SEED,
                                self.work / "golden")
        manifest = self.work / "golden.json"
        wl.save_manifest(manifest, golden)
        times = []
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(manifest)],
                capture_output=True, text=True, timeout=150, cwd=wl.ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(probe["setup_s"])
            self.attempted += len(golden)
            self.problems += probe["failures"]
            self.mismatches += wl.golden_mismatches(self.workload,
                                                    probe["digests"])
        digests = {req.id: self.request(cli, req)[1] for req in golden}
        self.mismatches += wl.golden_mismatches(self.workload, digests)
        return statistics.median(times) if times else None

    # -- end-to-end --------------------------------------------------------

    def end_to_end(self, cli) -> dict:
        window = wl.WINDOW_CYCLES[self.workload]
        cycles = []   # the latencies of each cycle
        start = time.perf_counter()
        while True:
            reqs = wl.write_cycle(self.workload, self.seed, len(cycles),
                                  self.work)
            cycles.append([self.request(cli, req)[0] for req in reqs])
            shutil.rmtree(self.work / f"s{self.seed}c{len(cycles) - 1}")
            if (len(cycles) % window == 0
                    and time.perf_counter() - start >= self.seconds):
                break
        windows = [[s for cycle in cycles[i:i + window] for s in cycle]
                   for i in range(0, len(cycles), window)]
        stats = [percentiles(w) for w in windows]
        n = sum(map(len, windows))
        print(f"# {self.workload} seed={self.seed}: {len(cycles)} cycles, "
              f"{n} requests; per window of {len(windows[0])}, median over "
              f"{len(windows)}: tail = p{stats[0][2]:.1f}")
        return {
            "throughput_rps": n / sum(map(sum, windows)),
            "latency_p50_s": statistics.median(s[0] for s in stats),
            "latency_tail_s": statistics.median(s[1] for s in stats),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    # -- traced ------------------------------------------------------------

    def _pass(self, cli, reqs, tracer=None):
        busy, digests = 0.0, {}
        for req in reqs:
            if tracer is not None:
                tracer.begin_request()
            seconds, digests[req.id] = self.request(cli, req)
            busy += seconds
        return busy, digests

    def traced(self, cli) -> dict:
        from tracer import EXACT, METRICS, Tracer

        reqs = wl.write_cycle(self.workload, self.seed, 0, self.work)
        passes, plain_busy, traced_busy = [], 0.0, 0.0
        reference = None
        start = time.perf_counter()
        while True:
            busy, plain = self._pass(cli, reqs)
            plain_busy += busy
            tracer = Tracer()
            tracer.install()
            try:
                busy, digests = self._pass(cli, reqs, tracer)
            finally:
                tracer.uninstall()
            traced_busy += busy
            passes.append(tracer.summary())
            reference = reference or plain
            if not plain == digests == reference:
                self.mismatches.append("outputs differ between passes over "
                                       "the same requests")
            if time.perf_counter() - start >= self.seconds:
                break

        first = passes[0]
        for name in EXACT:
            seen = {p[name] for p in passes}
            if len(seen) > 1:
                self.mismatches.append(f"{name} did not repeat: {sorted(seen)}")
        out = {}
        for name, unit in METRICS.items():
            if name == "trace.overhead_ratio":
                out[name] = traced_busy / plain_busy
            elif unit in ("s", "1/s"):
                out[name] = statistics.median(p[name] for p in passes)
            else:
                out[name] = first[name]
        print(f"# {self.workload} seed={self.seed}: {len(passes)} traced "
              f"passes over cycle 0 ({len(reqs)} requests)")
        total = out["cli.main.s"]
        for name, unit in METRICS.items():
            share = (f"  {100 * out[name] / total:5.1f}% of requests"
                     if unit == "s" and total else "")
            print(f"#   {name:48s} {out[name]:>14.6g} {unit}{share}")
        return out


def run_workload(args, work: Path) -> dict:
    from maxcsp import cli

    run = Run(args.workload, args.seed, args.seconds, work)
    setup_s = run.setup(cli, 0 if args.trace else SETUP_REPEATS)
    if args.trace:
        from tracer import METRICS
        values, units = run.traced(cli), METRICS
    else:
        values = run.end_to_end(cli)
        values["setup_s"] = setup_s
        units = {"throughput_rps": "1/s", "latency_p50_s": "s",
                 "latency_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        for name, unit in units.items():
            print(f"#   {name:16s} {values[name]:.6g} {unit}")
    failed = len(run.problems)
    print(f"#   error_rate       {failed / run.attempted:.6g} "
          f"({failed} of {run.attempted} requests failed)")
    for line in (run.problems + run.mismatches)[:20]:
        print(f"# FAIL {line}")
    return {"correct": not run.problems and not run.mismatches,
            "attempted": run.attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, cwd=wl.ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{workload} --trace {trace} failed:\n"
                                 f"{proc.stderr}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl.use_source_tree()

    if args.workload == "all":
        result = run_all(args)
    else:
        with wl.scratch_dir(args.workload) as work:
            result = run_workload(args, work)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
