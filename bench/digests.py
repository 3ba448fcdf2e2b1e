"""Output digests of a workload's short slice (its cheapest request kinds,
cycle 0 of the seed).

    python3 bench/digests.py --workload NAME [--seed N]
    python3 bench/digests.py --workload NAME --write

Prints {"digests": {...}, "failures": [...]} as one JSON line. --write
records the golden-seed digests in goldens.json; do that only when a
change to the program is meant to change its output.
"""

import argparse
import json
import sys

import workloads as wl


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.GOLDEN_SEED)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    if args.write and args.seed != wl.GOLDEN_SEED:
        parser.error(f"--write records the golden seed {wl.GOLDEN_SEED} only")
    wl.use_source_tree()
    from maxcsp import cli

    with wl.scratch_dir("digests") as work:
        digests, failures = wl.run_slice(
            cli, wl.short_slice(args.workload, args.seed, work))
    if args.write:
        if failures:
            sys.exit("refusing to record goldens from failing requests:\n"
                     + "\n".join(failures))
        goldens = json.loads(wl.GOLDENS.read_text()) if wl.GOLDENS.exists() else {}
        goldens[args.workload] = digests
        wl.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"digests": digests, "failures": failures}))


if __name__ == "__main__":
    main()
