"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench -q

They check the independent lower-bound calculator, the determinism of
the input generators across hash seeds, the golden store's refusal to
overwrite, and that the pinned fleet bounds dominate what the
simulator observes on the same configs.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from checks import (  # noqa: E402
    GoldenStore,
    bounds_digest,
    chain_digest,
    check_comparison,
    contention_free_delays,
)
from repro.configs.fig2 import fig2_network  # noqa: E402
from repro.network.serialization import network_from_dict, network_to_dict  # noqa: E402
from repro.sim.scenarios import TrafficScenario, simulate  # noqa: E402
from spans import NullRecorder, SpanRecorder, self_times  # noqa: E402
from workloads import FLEET_BLOCK, Fleet, analyze_document, edit_document  # noqa: E402
from write_golden import merge  # noqa: E402


def fig2_doc():
    return network_to_dict(fig2_network())


class TestContentionFreeDelays:
    def test_fig2_by_hand(self):
        # 500 B = 4000 bits at 100 Mb/s is 40 us per link; three links
        # and two switches of 16 us on every path
        delays = contention_free_delays(fig2_doc())
        assert delays == {(f"v{i}", 0): 3 * 40.0 + 2 * 16.0 for i in range(1, 6)}

    def test_link_rate_and_latency_are_per_hop(self):
        doc = fig2_doc()
        for link in doc["links"]:
            if {link["a"], link["b"]} == {"e1", "S1"}:
                link["rate_mbps"] = 1000.0
        for node in doc["nodes"]:
            if node["name"] == "S3":
                node["latency_us"] = 5.0
        delays = contention_free_delays(doc)
        assert delays[("v1", 0)] == 4.0 + 40.0 + 40.0 + 16.0 + 5.0
        assert delays[("v3", 0)] == 40.0 + 40.0 + 40.0 + 16.0 + 5.0

    def test_checks_pass_on_fig2_and_catch_a_tampered_bound(self):
        doc = fig2_doc()
        outcome = analyze_document(doc, NullRecorder())
        assert check_comparison(doc, outcome.comparison) == []
        tampered = copy.deepcopy(outcome.comparison)
        tampered.paths[("v1", 0)] = dataclasses.replace(
            tampered.paths[("v1", 0)],
            network_calculus_us=100.0,
            trajectory_us=100.0,
            best_us=100.0,
        )
        problems = check_comparison(doc, tampered)
        assert any(p.startswith("(c)") for p in problems)
        assert bounds_digest(tampered) != bounds_digest(outcome.comparison)

    def test_edited_document_drops_a_path(self):
        from repro.incremental import RerouteVL

        doc = fig2_doc()
        edited = edit_document(doc, RerouteVL("v1", ()))
        assert ("v1", 0) not in contention_free_delays(edited)
        assert ("v1", 0) in contention_free_delays(doc)


def test_golden_merge_never_overwrites():
    merged, added, conflicts = merge({"1": "aa"}, {"1": "bb", "2": "cc"})
    assert conflicts == ["1"]
    assert added == ["2"]
    assert merged["1"] == "aa"


def test_self_times_subtract_children():
    rec = SpanRecorder()
    rec.spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "a", "start": 1.0, "end": 5.0, "parent": 0, "op": 0},
        {"name": "b", "start": 2.0, "end": 3.0, "parent": 1, "op": 0},
    ]
    assert self_times(rec.spans) == [6.0, 3.0, 1.0]


_GENERATE = """
import hashlib, json, sys
sys.path[:0] = [{here!r}, {src!r}]
from spans import NullRecorder
from workloads import Fleet, Industrial, WhatIf
null = NullRecorder()
h = hashlib.sha256()
def feed(obj):
    h.update(json.dumps(obj, sort_keys=True).encode())
whatif = WhatIf(3, null)
whatif.setup()
feed(whatif.doc)
for index in range(-1, 5):
    inp = whatif.input(index)
    feed(inp.doc)
    h.update(repr((inp.edit, inp.inverse)).encode())
fleet = Fleet(3, null)
for index in (-1, 0, {last}, {last} + 1):
    feed(fleet.input(index).doc)
feed(Industrial(3, null).input(0).doc)
print(h.hexdigest())
"""


def test_inputs_identical_across_hash_seeds():
    code = _GENERATE.format(here=str(HERE), src=str(SRC), last=FLEET_BLOCK - 1)
    digests = set()
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_fleet_golden_bounds_dominate_simulation():
    golden = GoldenStore()
    pinned = golden.get("fleet-small", "1")
    if pinned is None:
        pytest.fail("perfbench/golden.json pins no fleet-small block 1")
    null = NullRecorder()
    fleet = Fleet(0, null)  # timed block keys start at 1
    fleet.setup()
    docs, comparisons = [], []
    for index in range(FLEET_BLOCK):
        inp = fleet.input(index)
        docs.append(inp.doc)
        comparisons.append(fleet.op(inp, null).comparison)
    # these are the pinned bounds, bit for bit
    assert chain_digest([bounds_digest(c) for c in comparisons]) == pinned
    scenarios = [
        TrafficScenario(duration_ms=60.0, synchronized=True, seed=0),
        TrafficScenario(duration_ms=60.0, synchronized=False, seed=1),
        TrafficScenario(duration_ms=60.0, synchronized=False, periodic=False, seed=2),
    ]
    for doc, comparison in list(zip(docs, comparisons))[:4]:
        network = network_from_dict(doc)
        for scenario in scenarios:
            observed = simulate(network, scenario)
            for key, stats in observed.paths.items():
                # the simulator adds event times in another order: the
                # same 1e-6 us slack as tests/integration
                bound = comparison.paths[key].best_us
                assert stats.max_us <= bound + 1e-6, (doc["name"], key)
