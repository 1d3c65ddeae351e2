"""The benchmark's three workloads: seeded inputs and the op each times.

Every op drives the paper's pipeline through public functions, with the
proof-grade settings pinned (``serialization="safe"``, ``grouping=True``):

* ``industrial-1000``: load + preflight + NC + trajectory + combine of a
  distinct seeded 1000-VL industrial config, no cache;
* ``whatif-300``: one seeded edit on a warm ``DeltaAnalyzer`` over the
  300-VL industrial config, read the changed bounds, apply the inverse;
* ``fleet-small``: the pipeline on a stream of small ``random_network``
  configs and single-VL edit variants, through one shared ``BoundCache``.

Input keys follow one rule: input ``i`` of a run with workload seed
``s`` has key ``s + 1 + i``, and the warm-up input (``i = -1``) has key
``s``, outside the run's timed set (industrial: a fixed key).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from checks import bounds_digest, chain_digest, check_comparison
from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.configs.random_topology import random_network
from repro.core.combined import build_comparison
from repro.errors import ConfigurationError, UnstableNetworkError
from repro.incremental import (
    AddVL,
    BoundCache,
    DeltaAnalyzer,
    RemoveVL,
    RerouteVL,
    ResizeVL,
    RetimeVL,
    apply_edits,
)
from repro.netcalc.analyzer import analyze_network_calculus
from repro.network.preflight import verify_network
from repro.network.routing import route_virtual_link
from repro.network.serialization import network_from_dict, network_to_dict
from repro.network.validation import check_network
from repro.network.virtual_link import STANDARD_BAGS_MS, VirtualLink
from repro.obs.costmodel import netcalc_cost_ledger, trajectory_result_work
from repro.trajectory.analyzer import analyze_trajectory

SERIALIZATION = "safe"
GROUPING = True

#: trajectory phases the analyzer times itself; adopted as child spans
TRAJECTORY_PHASES = ("trajectory.nc_seed", "trajectory.precompute", "trajectory.sweep")

EDIT_KINDS = ("retime", "resize", "reroute", "add", "remove")
BAGS_MS = tuple(float(bag) for bag in STANDARD_BAGS_MS)


class PreflightError(RuntimeError):
    """A generated config failed the program's own preflight."""


@dataclass
class Input:
    """One op's input: its golden key, its JSON document and extras."""

    key: str
    doc: Dict[str, object]
    edit: object = None
    inverse: object = None


@dataclass
class Outcome:
    """What an op returns; checked and counted outside the timed region."""

    comparison: object
    netcalc: object
    trajectory: object
    applied: object = None
    restored: object = None
    changed: Dict[object, float] = field(default_factory=dict)


def analyze_document(doc, rec, cache: Optional[BoundCache] = None) -> Outcome:
    """The certification pipeline on one JSON document."""
    incremental = cache is not None
    with rec.span("network.load"):
        network = network_from_dict(doc)
    with rec.span("network.preflight"):
        report = verify_network(network)
    if not report.ok:
        raise PreflightError(f"preflight rejected the config: {report.errors[0]}")
    with rec.span("netcalc.analyze"):
        netcalc = analyze_network_calculus(
            network, grouping=GROUPING, incremental=incremental, cache=cache
        )
    with rec.span("trajectory.analyze"):
        trajectory = analyze_trajectory(
            network,
            serialization=SERIALIZATION,
            incremental=incremental,
            cache=cache,
            collect_stats=rec.enabled,
        )
        rec.adopt(trajectory.stats, TRAJECTORY_PHASES)
    with rec.span("core.combine"):
        comparison = build_comparison(netcalc, trajectory)
    return Outcome(comparison=comparison, netcalc=netcalc, trajectory=trajectory)


def result_counts(outcome: Outcome) -> Dict[str, float]:
    """Exact per-op work counts, derived from the results alone."""
    nc_work = netcalc_cost_ledger(outcome.netcalc).work
    traj_work = trajectory_result_work(outcome.trajectory)
    return {
        "core.paths_bound": len(outcome.comparison.paths),
        "netcalc.ports_analyzed": nc_work["ports_analyzed"],
        "netcalc.flow_folds": nc_work["flow_folds"],
        "netcalc.curve_knot_operations": nc_work["curve_knot_operations"],
        "trajectory.sweeps": traj_work["sweeps"],
        "trajectory.path_candidate_evaluations": traj_work["path_candidate_evaluations"],
        "trajectory.path_competitor_folds": traj_work["path_competitor_folds"],
    }


class Workload:
    """Shared shape: ``setup`` builds the state, ``input(i)`` makes op
    ``i``'s input (kept, so the traced pass reuses it), ``op`` is the
    timed part and ``check`` returns the problems found in its result.

    ``setup_samples`` holds the duration of each set-up unit the run
    performed; ``setup_s`` is reported from their median.
    """

    name = ""
    #: every run completes at least this many timed ops; the
    #: deterministic metrics cover exactly these first ops
    min_ops = 1
    #: times ``setup`` is repeated to sample set-up time
    setup_reps = 1
    cache: Optional[BoundCache] = None
    #: a workload whose set-up analyzes a base sets its digest and the
    #: problems checks (a)-(c) found in it
    base_digest: Optional[str] = None
    base_problems: List[str] = []

    def __init__(self, seed: int, rec) -> None:
        self.seed = seed
        self.rec = rec
        self.setup_samples: List[float] = []
        #: golden key -> bounds digest of every pinnable input checked
        self.digests: Dict[str, str] = {}
        self._inputs: Dict[int, Input] = {}

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        """Fresh state for the traced pass, equal to the state after
        ``setup`` in the untraced pass."""

    def key(self, index: int) -> int:
        return self.seed + 1 + index

    def input(self, index: int) -> Input:
        if index not in self._inputs:
            self._inputs[index] = self.make_input(index)
        return self._inputs[index]

    def make_input(self, index: int) -> Input:
        raise NotImplementedError

    def op(self, inp: Input, rec) -> Outcome:
        raise NotImplementedError

    def check(self, index: int, inp: Input, outcome: Outcome, golden) -> List[str]:
        raise NotImplementedError

    def counts(self, outcome: Outcome) -> Dict[str, float]:
        return result_counts(outcome)

    def pin(self, key: str, comparison, golden) -> List[str]:
        """Record the bounds digest of input ``key``; check (d)."""
        digest = self.digests[key] = bounds_digest(comparison)
        if golden.verdict(self.name, key, digest) is False:
            return [f"(d) digest {digest} != golden {golden.get(self.name, key)} for {key}"]
        return []


class Industrial(Workload):
    """Cold certification of distinct seeded 1000-VL industrial configs."""

    name = "industrial-1000"
    min_ops = 3
    setup_reps = 3
    #: the warm-up config, the same in every run and outside every
    #: run's timed keys.  Its build is the set-up unit: build times of
    #: the timed configs differ by 3x from config to config, so a set-up
    #: time taken from them would move with the seed.
    warmup_key = 1_000_000

    def _build(self, key: int) -> Dict[str, object]:
        with self.rec.span("configs.build"):
            network = industrial_network(IndustrialConfigSpec(seed=key))
        return network_to_dict(network)

    def setup(self) -> None:
        start = time.perf_counter()
        self.warmup_doc = self._build(self.warmup_key)
        self.setup_samples.append(time.perf_counter() - start)

    def make_input(self, index: int) -> Input:
        if index < 0:
            return Input(key=str(self.warmup_key), doc=self.warmup_doc)
        key = self.key(index)
        return Input(key=str(key), doc=self._build(key))

    def op(self, inp: Input, rec) -> Outcome:
        return analyze_document(inp.doc, rec)

    def check(self, index, inp, outcome, golden) -> List[str]:
        problems = check_comparison(inp.doc, outcome.comparison)
        return problems + self.pin(inp.key, outcome.comparison, golden)


# ----------------------------------------------------------------------
# what-if admission probes
# ----------------------------------------------------------------------


def whatif_edit(network, edit_key: int):
    """Seeded edit ``edit_key`` on the base network, with its inverse."""
    rng = random.Random(f"whatif-edit:{edit_key}")
    names = sorted(network.virtual_links)
    kind = EDIT_KINDS[edit_key % len(EDIT_KINDS)]
    vl = network.vl(rng.choice(names))
    if kind == "retime":
        bag = rng.choice([b for b in BAGS_MS if b != vl.bag_ms])
        return RetimeVL(vl.name, bag), RetimeVL(vl.name, vl.bag_ms)
    if kind == "resize":
        size = rng.choice([s for s in range(64, 1519) if s != vl.s_max_bytes])
        return ResizeVL(vl.name, float(size)), ResizeVL(vl.name, vl.s_max_bytes)
    if kind == "reroute":
        multicast = [name for name in names if len(network.vl(name).paths) > 1]
        vl = network.vl(rng.choice(multicast))
        drop = rng.randrange(len(vl.paths))
        kept = tuple(p for i, p in enumerate(vl.paths) if i != drop)
        return RerouteVL(vl.name, kept), RerouteVL(vl.name, vl.paths)
    if kind == "add":
        probe = VirtualLink(
            name=f"probe{edit_key:05d}",
            source=vl.source,
            paths=vl.paths,
            bag_ms=rng.choice(BAGS_MS[2:]),
            s_max_bytes=float(rng.randint(64, 1518)),
            s_min_bytes=64.0,
        )
        return AddVL(probe), RemoveVL(probe.name)
    return RemoveVL(vl.name), AddVL(vl)


def edit_document(doc: Dict[str, object], edit) -> Dict[str, object]:
    """The edit applied to a copy of the JSON document, independently of
    the program's edit model (the checks read this document)."""
    edited = dict(doc)
    vls = [dict(vl) for vl in doc["virtual_links"]]
    by_name = {vl["name"]: vl for vl in vls}
    if isinstance(edit, AddVL):
        vl = edit.vl
        vls.append(
            {
                "name": vl.name,
                "source": vl.source,
                "bag_ms": vl.bag_ms,
                "s_max_bytes": vl.s_max_bytes,
                "s_min_bytes": vl.s_min_bytes,
                "paths": [list(p) for p in vl.paths],
            }
        )
    elif isinstance(edit, RemoveVL):
        vls.remove(by_name[edit.name])
    elif isinstance(edit, RetimeVL):
        by_name[edit.name]["bag_ms"] = edit.bag_ms
    elif isinstance(edit, ResizeVL):
        entry = by_name[edit.name]
        entry["s_max_bytes"] = edit.s_max_bytes
        entry["s_min_bytes"] = min(entry["s_min_bytes"], edit.s_max_bytes)
    else:
        by_name[edit.name]["paths"] = [list(p) for p in edit.paths]
    edited["virtual_links"] = vls
    return edited


class WhatIf(Workload):
    """Admission probes on a warm ``DeltaAnalyzer`` (300-VL industrial)."""

    name = "whatif-300"
    min_ops = 10
    setup_reps = 3
    spec = IndustrialConfigSpec(n_virtual_links=300)

    def setup(self) -> None:
        rec = self.rec
        start = time.perf_counter()
        with rec.span("configs.build"):
            network = industrial_network(self.spec)
        doc = network_to_dict(network)
        with rec.span("network.load"):
            base = network_from_dict(doc)
        with rec.span("network.preflight"):
            report = verify_network(base)
        if not report.ok:
            raise PreflightError(f"preflight rejected the base: {report.errors[0]}")
        engine = DeltaAnalyzer(
            base,
            grouping=GROUPING,
            serialization=SERIALIZATION,
            collect_stats=rec.enabled,
        )
        with rec.span("incremental.analyze_base"):
            result = engine.analyze_base()
            rec.adopt_analysis("netcalc.analyze", result.netcalc.stats)
            rec.adopt_analysis("trajectory.analyze", result.trajectory.stats, TRAJECTORY_PHASES)
        self.setup_samples.append(time.perf_counter() - start)
        self.doc, self.engine, self.cache = doc, engine, engine.cache
        comparison = build_comparison(result.netcalc, result.trajectory)
        self.base_problems = check_comparison(doc, comparison)
        self.base_digest = bounds_digest(comparison)

    def reset(self) -> None:
        self.setup()

    def make_input(self, index: int) -> Input:
        key = self.key(index)
        edit, inverse = whatif_edit(self.engine.network, key)
        return Input(key=str(key), doc=edit_document(self.doc, edit), edit=edit, inverse=inverse)

    def op(self, inp: Input, rec) -> Outcome:
        engine = self.engine
        with rec.span("incremental.apply"):
            applied = engine.apply([inp.edit])
            rec.adopt_analysis("netcalc.analyze", applied.netcalc.stats)
            rec.adopt_analysis(
                "trajectory.analyze", applied.trajectory.stats, TRAJECTORY_PHASES
            )
        with rec.span("core.combine"):
            comparison = build_comparison(applied.netcalc, applied.trajectory)
            changed = {
                key: comparison.paths[key].best_us
                for key in applied.changed
                if key in comparison.paths
            }
        with rec.span("incremental.rollback"):
            restored = engine.apply([inp.inverse])
            rec.adopt_analysis("netcalc.analyze", restored.netcalc.stats)
            rec.adopt_analysis(
                "trajectory.analyze", restored.trajectory.stats, TRAJECTORY_PHASES
            )
        return Outcome(
            comparison=comparison,
            netcalc=applied.netcalc,
            trajectory=applied.trajectory,
            applied=applied,
            restored=restored,
            changed=changed,
        )

    def check(self, index, inp, outcome, golden) -> List[str]:
        problems = check_comparison(inp.doc, outcome.comparison)
        problems += self.pin(inp.key, outcome.comparison, golden)
        rolled = build_comparison(outcome.restored.netcalc, outcome.restored.trajectory)
        if bounds_digest(rolled) != self.base_digest:
            problems.append("(e) rollback did not restore the base bounds digest")
        return problems

    def counts(self, outcome: Outcome) -> Dict[str, float]:
        counts = result_counts(outcome)
        stats = outcome.applied.stats
        counts["incremental.dirty_vls_ratio"] = stats["n_dirty_vls"] / stats["n_vls"]
        counts["incremental.dirty_ports_ratio"] = stats["n_dirty_ports"] / stats["n_ports"]
        counts["incremental.changed_paths"] = len(outcome.applied.changed)
        return counts


# ----------------------------------------------------------------------
# fleet of small configs
# ----------------------------------------------------------------------

FLEET_BLOCK = 64
FLEET_BASES = 40


def fleet_variant(base, rng: random.Random):
    """A seeded single-VL edit of ``base`` that keeps it stable."""
    names = sorted(base.virtual_links)
    vl = base.vl(rng.choice(names))
    kind = rng.choice(EDIT_KINDS)
    others = sorted(n for n in base.nodes if base.nodes[n].is_end_system and n != vl.source)
    slower = [b for b in BAGS_MS if b > vl.bag_ms]
    if kind == "retime" and slower:
        edit = RetimeVL(vl.name, rng.choice(slower))
    elif kind in ("retime", "resize"):
        edit = ResizeVL(vl.name, float(rng.randint(64, int(vl.s_max_bytes))))
    elif kind == "reroute":
        destinations = sorted(rng.sample(others, min(len(vl.paths), len(others))))
        edit = RerouteVL(vl.name, route_virtual_link(base, vl.source, destinations))
    elif kind == "add":
        destinations = sorted(rng.sample(others, rng.randint(1, min(3, len(others)))))
        edit = AddVL(
            VirtualLink(
                name=f"v{len(names) + 1}",
                source=vl.source,
                paths=route_virtual_link(base, vl.source, destinations),
                bag_ms=128.0,
                s_max_bytes=float(rng.randint(64, 300)),
                s_min_bytes=64.0,
            )
        )
    else:
        edit = RemoveVL(vl.name)
    variant, _ = apply_edits(base, [edit])
    try:
        check_network(variant)
    except (ConfigurationError, UnstableNetworkError):
        variant, _ = apply_edits(base, [RemoveVL(vl.name)])
    return variant


def fleet_block(block_key: int, rec) -> List[Dict[str, object]]:
    """Block ``block_key`` of the fleet: bases plus edit variants of
    them, shuffled, as JSON documents."""
    rng = random.Random(f"fleet-block:{block_key}")
    bases = []
    for _ in range(FLEET_BASES):
        seed = rng.randrange(2**31)
        with rec.span("configs.build"):
            bases.append(
                random_network(
                    seed,
                    n_switches=rng.randint(3, 6),
                    n_end_systems=rng.randint(8, 16),
                    n_virtual_links=rng.randint(12, 48),
                )
            )
    variants = []
    for _ in range(FLEET_BLOCK - FLEET_BASES):
        base = bases[rng.randrange(FLEET_BASES)]
        with rec.span("configs.build"):
            variants.append(fleet_variant(base, rng))
    docs = [network_to_dict(network) for network in bases + variants]
    rng.shuffle(docs)
    return docs


class Fleet(Workload):
    """Many small configs through one shared in-memory ``BoundCache``."""

    name = "fleet-small"
    min_ops = 4 * FLEET_BLOCK

    def __init__(self, seed: int, rec) -> None:
        super().__init__(seed, rec)
        self._blocks: Dict[int, List[Dict[str, object]]] = {}
        self._block_digests: Dict[int, List[str]] = {}

    def _block(self, block_key: int) -> List[Dict[str, object]]:
        if block_key not in self._blocks:
            start = time.perf_counter()
            self._blocks[block_key] = fleet_block(block_key, self.rec)
            self.setup_samples.append(time.perf_counter() - start)
        return self._blocks[block_key]

    def setup(self) -> None:
        self.cache = BoundCache()
        self._block(self.key(0))

    def reset(self) -> None:
        self.cache = BoundCache()
        self._block_digests = {}

    def make_input(self, index: int) -> Input:
        if index < 0:
            # the warm-up config comes from the block before the timed ones
            return Input(key=f"{self.seed}/0", doc=self._block(self.seed)[0])
        block = self.key(index // FLEET_BLOCK)
        return Input(key=str(block), doc=self._block(block)[index % FLEET_BLOCK])

    def op(self, inp: Input, rec) -> Outcome:
        return analyze_document(inp.doc, rec, cache=self.cache)

    def check(self, index, inp, outcome, golden) -> List[str]:
        problems = check_comparison(inp.doc, outcome.comparison)
        if index < 0:
            return problems
        digests = self._block_digests.setdefault(int(inp.key), [])
        digests.append(bounds_digest(outcome.comparison))
        if len(digests) == FLEET_BLOCK:
            digest = chain_digest(digests)
            self.digests[inp.key] = digest
            if golden.verdict(self.name, inp.key, digest) is False:
                # a block digest cannot say which config moved
                problems.append(f"(d) block {inp.key} digest {digest} != golden")
        return problems


WORKLOADS = {cls.name: cls for cls in (Industrial, WhatIf, Fleet)}
