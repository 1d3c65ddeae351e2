"""Exact checks on every op's result, and the golden digest store.

The checks read the configuration's JSON document, never the program's
network model, so they stay independent of the analyzers:

(a) the bounded paths are exactly the document's VL paths;
(b) ``best == min(nc, trajectory)`` bit for bit;
(c) every bound is finite and at least the contention-free delay of
    its path (own frame sent on every link plus each switch latency);
(d) the bounds digest equals the committed golden digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: (c) compares against a sum of a few positive terms: an analysis
#: that finds no contention reaches the same real number through a
#: different float summation, so allow a few ulps below it.
LOWER_BOUND_REL_SLACK = 1e-12


def document_paths(doc: Dict[str, object]) -> List[Tuple[str, int]]:
    """Every (VL name, path index) the document declares."""
    return [
        (vl["name"], index)
        for vl in doc["virtual_links"]
        for index in range(len(vl["paths"]))
    ]


def contention_free_delays(doc: Dict[str, object]) -> Dict[Tuple[str, int], float]:
    """Per path: the VL's own ``s_max`` frame sent at each link's rate,
    plus the ``latency_us`` of each switch it traverses."""
    default_rate = float(doc.get("rate_mbps", 100.0))
    rates = {}
    for link in doc.get("links", []):
        rate = link.get("rate_mbps")
        rates[frozenset((link["a"], link["b"]))] = default_rate if rate is None else float(rate)
    switch_latency = {
        node["name"]: float(node.get("latency_us", 16.0))
        for node in doc["nodes"]
        if node["kind"] == "switch"
    }
    delays = {}
    for vl in doc["virtual_links"]:
        bits = float(vl["s_max_bytes"]) * 8.0
        for index, path in enumerate(vl["paths"]):
            terms = [bits / rates[frozenset(hop)] for hop in zip(path, path[1:])]
            terms += [switch_latency[node] for node in path if node in switch_latency]
            delays[(vl["name"], index)] = math.fsum(terms)
    return delays


def check_comparison(doc: Dict[str, object], comparison) -> List[str]:
    """Checks (a)-(c) of one combined result against its document."""
    expected = set(document_paths(doc))
    got = set(comparison.paths)
    if got != expected:
        return [f"(a) bounded paths differ: {len(got ^ expected)} mismatched keys"]
    problems = []
    floors = contention_free_delays(doc)
    for key in sorted(comparison.paths):
        path = comparison.paths[key]
        nc, traj, best = path.network_calculus_us, path.trajectory_us, path.best_us
        if best.hex() != min(nc, traj).hex():
            problems.append(f"(b) {key}: best {best!r} != min({nc!r}, {traj!r})")
        floor = floors[key] * (1.0 - LOWER_BOUND_REL_SLACK)
        for label, value in (("nc", nc), ("trajectory", traj)):
            if not math.isfinite(value) or value < floor:
                problems.append(f"(c) {key}: {label} bound {value!r} < {floors[key]!r}")
    return problems


def bounds_digest(comparison) -> str:
    """Digest of every path's three bounds, exact to the bit."""
    hasher = hashlib.sha256()
    for key in sorted(comparison.paths):
        path = comparison.paths[key]
        hasher.update(
            f"{key[0]}\t{key[1]}\t{path.network_calculus_us.hex()}\t"
            f"{path.trajectory_us.hex()}\t{path.best_us.hex()}\n".encode()
        )
    return hasher.hexdigest()[:16]


def chain_digest(digests: List[str]) -> str:
    """One digest for an ordered list of digests (a fleet block)."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


class GoldenStore:
    """Committed digests per workload and input key.

    Keys are the input's identity: the industrial config seed, the
    what-if edit index (plus ``base``), the fleet block index.  Each is
    a function of the workload seed and the input index.
    """

    def __init__(self, path: Optional[Path] = GOLDEN_PATH) -> None:
        """``path=None`` gives an empty store (every key unpinned)."""
        self.entries: Dict[str, Dict[str, str]] = (
            json.loads(path.read_text()) if path is not None and path.exists() else {}
        )

    def get(self, workload: str, key: str) -> Optional[str]:
        return self.entries.get(workload, {}).get(key)

    def verdict(self, workload: str, key: str, digest: str) -> Optional[bool]:
        """True / False against the golden digest; None when unpinned."""
        golden = self.get(workload, key)
        return None if golden is None else golden == digest
