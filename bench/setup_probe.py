"""Time one set-up in a fresh interpreter: import maxcsp, then run the
warm-up requests listed in a manifest (see workloads.save_manifest).

    python3 bench/setup_probe.py MANIFEST

Prints one JSON line: {"setup_s": ..., "digests": {...}, "failures": [...]}.
The output checks run after the clock stops.
"""

import json
import sys
import time
from pathlib import Path

import workloads as wl


def main() -> None:
    wl.use_source_tree()
    reqs = wl.load_manifest(Path(sys.argv[1]))
    start = time.perf_counter()
    from maxcsp import cli
    results = [wl.execute(cli, req) for req in reqs]
    setup_s = time.perf_counter() - start
    digests, failures = wl.check_all(reqs, results)
    print(json.dumps({"setup_s": setup_s, "digests": digests,
                      "failures": failures}))


if __name__ == "__main__":
    main()
