"""The benchmark's own checks: outputs and traced counts must not depend on
the interpreter's hash seed, and the golden slice must match goldens.json.

    python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl
from tracer import EXACT

HERE = Path(__file__).resolve().parent


def _last_json(args, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=wl.ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digests(workload, seed, hash_seed):
    return _last_json([str(HERE / "digests.py"), "--workload", workload,
                       "--seed", str(seed)], hash_seed)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_short_slice_digests_ignore_hash_seed(workload):
    first = _digests(workload, 7, 0)
    assert first["failures"] == []
    assert _digests(workload, 7, 1) == first


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_golden_slice_matches_recorded_digests(workload):
    out = _digests(workload, wl.GOLDEN_SEED, 2)
    assert out["failures"] == []
    assert wl.golden_mismatches(workload, out["digests"]) == []


def test_traced_counts_ignore_hash_seed():
    args = [str(HERE / "run.py"), "--workload", "reduce-small", "--seed", "3",
            "--seconds", "0", "--trace", "1"]
    runs = [_last_json(args, h) for h in (0, 1)]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    a, b = ({name: r["metrics"][name]["value"] for name in EXACT} for r in runs)
    assert a == b
    assert a["solver.calls_per_verify"] > 0
