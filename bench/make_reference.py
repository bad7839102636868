"""Record the reference report digests that bench/run.py checks against.

    python3 bench/make_reference.py [SEED ...]

Runs every workload once per seed in a cold process and writes
bench/reference.json: for each call label, "*" for a call that takes
no seed, else one sha256 per seed.  The reference pins the report bytes
of the commit it was made at, including the known-red prop-flag-map
counts.  Regenerate it only in a change that means to alter report
bytes, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import REFERENCE, check, child_env, run_child
from workloads import WORKLOADS, calls_for


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [1]
    table: dict = {}
    for workload in WORKLOADS:
        refs = table[workload] = {}
        for seed in seeds:
            calls = [c for c in calls_for(workload, seed) if c["seeded"] or seed == seeds[0]]
            if not calls:
                continue
            job = {"calls": [c["cfg"] for c in calls], "trace": False}
            _, result = run_child(child_env(seed), job, perf_counter() + 600)
            problems = check(calls, result, {}, None)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            for call, got in zip(calls, result["calls"]):
                slot = refs.setdefault(call["label"], {})
                slot[str(seed) if call["seeded"] else "*"] = got["sha256"]
            print(f"{workload} seed={seed} {result['wall_s']:.2f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
