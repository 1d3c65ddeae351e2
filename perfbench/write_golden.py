#!/usr/bin/env python3
"""Pin golden bounds digests for a range of input keys.

    python3 perfbench/write_golden.py --workload industrial-1000 --keys 0-47

Keys are the workloads' input keys (see ``workloads.py``): a run with
seed ``s`` uses keys ``s`` (warm-up) to ``s + n``.  Every input is
analyzed and checked (a)-(c) first.  Entries already in
``golden.json`` are never overwritten: a key whose digest is already
pinned is skipped when equal, and any difference aborts the command
without writing anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def compute_digests(workload_name: str, lo: int, hi: int) -> dict:
    """Digests of input keys ``lo..hi`` (fleet: block keys)."""
    from checks import GoldenStore
    from spans import NullRecorder
    from workloads import FLEET_BLOCK, WORKLOADS, Fleet

    null = NullRecorder()
    unpinned = GoldenStore(path=None)
    workload = WORKLOADS[workload_name](lo - 1, null)
    workload.setup()
    per_key = FLEET_BLOCK if isinstance(workload, Fleet) else 1
    for index in range((hi - lo + 1) * per_key):
        inp = workload.input(index)
        outcome = workload.op(inp, null)
        problems = workload.check(index, inp, outcome, unpinned)
        if problems:
            raise SystemExit(f"input {inp.key} fails its checks: {problems[:3]}")
    digests = dict(workload.digests)
    if workload.base_digest is not None:
        if workload.base_problems:
            raise SystemExit(f"base fails its checks: {workload.base_problems[:3]}")
        digests["base"] = workload.base_digest
    return digests


def merge(existing: dict, new: dict) -> tuple:
    """(merged, added keys, conflicting keys); never overwrites."""
    conflicts = sorted(k for k in new if k in existing and existing[k] != new[k])
    added = sorted(k for k in new if k not in existing)
    merged = dict(existing)
    merged.update({k: new[k] for k in added})
    return merged, added, conflicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--keys", required=True, help="inclusive range LO-HI, LO >= 0")
    args = parser.parse_args(argv)
    lo, _, hi = args.keys.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if lo < 0 or hi < lo:
        parser.error("--keys must be LO-HI with 0 <= LO <= HI")

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from checks import GOLDEN_PATH

    store = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    merged, added, conflicts = merge(
        store.get(args.workload, {}), compute_digests(args.workload, lo, hi)
    )
    if conflicts:
        print(f"refusing to overwrite {len(conflicts)} pinned digests that differ: "
              f"{conflicts[:10]}", file=sys.stderr)
        return 1
    store[args.workload] = dict(sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0])))
    GOLDEN_PATH.write_text(json.dumps(dict(sorted(store.items())), indent=1) + "\n")
    print(f"{args.workload}: {len(added)} digests added, "
          f"{len(merged) - len(added)} already pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
