#!/usr/bin/env python3
"""
Record the output digests of the workloads that have them, for a range of
seeds, into bench/digests.json.  Run from the root of a source checkout:

    python3 bench/record_digests.py 0 199

Normal forms are unique, so a correct change to the library keeps every
digest; re-record only when the benchmark's inputs or outputs change.
"""

import json
import sys

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    problem = run.use_checkout_source()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    table = {}
    for name in ("nf-braid6", "zs-prod-b4b3"):
        wl = workloads.WORKLOADS[name]()
        ctx = wl.setup()
        table[name] = {str(s): run.digest_of(wl, ctx, s) for s in range(first, last + 1)}
        print(f"{name}: {last - first + 1} seeds", file=sys.stderr)
    with open(run.BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
