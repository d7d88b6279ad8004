#!/usr/bin/env python3
"""Record the output digests of benchmark seeds in perfbench/pinned.json.

    python3 perfbench/pin.py 0-99

Run from the repository root, and only for a change that is meant to
alter `wsnem`'s results: every benchmark run of a recorded seed checks
its outputs against these digests, so a change that moves a result
without re-recording them fails the benchmark.
"""

import json
import shutil
import sys

import run
from common import Reference, Tally


def record(seed):
    """One cold fleet run, one check and one mega-tree run of `seed`."""
    refs = {kind: Reference() for kind in ("fleet", "check", "mega")}
    tally = Tally()
    for name in ("fleet-cold", "fleet-check", "mega-tree"):
        work = run.WORK / "pin" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = run.Workload(name, work, seed, refs)
        wl.setup()
        inv, check = wl.invoke()
        tally.record(inv.exit_codes, check)
    if tally.failed:
        raise SystemExit(f"seed {seed}: {tally.errors}")
    return {kind: ref.value for kind, ref in refs.items()}


def main():
    lo, _, hi = sys.argv[1].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.build()
    path = run.BENCH / "pinned.json"
    table = run.read_json(path)
    for seed in seeds:
        table["seeds"][str(seed)] = record(seed)
        print(f"seed {seed}: {table['seeds'][str(seed)]['fleet'][:12]}", file=sys.stderr)
        run.empty_trash()
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
