"""Cache-state identity: every cache state yields the same analysis.

Cold, against a cold disk-backed :class:`BoundCache`, and replayed from
the warm one — every state must produce *bit-identical* per-path bounds
and a *byte-identical* deterministic :class:`CostLedger` section.  The
committed-scenario sweep lives in ``scripts/kernel_gate.py``; here the
same contract is exercised on fig1 and property-tested on randomized
topologies under hypothesis.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.batch import shm
from repro.configs import fig1_network, random_network
from repro.incremental.cache import BoundCache
from repro.obs.costmodel import deterministic_section
from repro.trajectory import analyze_trajectory

FLOAT_FIELDS = (
    "total_us",
    "critical_instant_us",
    "busy_period_us",
    "workload_us",
    "transition_us",
    "latency_us",
    "serialization_gain_us",
)

MODES = ("paper", "windowed", "safe")


def _bounds(result):
    return {
        key: tuple(getattr(bound, name) for name in FLOAT_FIELDS)
        for key, bound in result.paths.items()
    }


def _ledger_bytes(result):
    assert result.stats is not None
    return json.dumps(
        deterministic_section(result.stats["cost"]), sort_keys=True
    ).encode()


def _trajectory(network, mode, cache=None):
    return analyze_trajectory(
        network, serialization=mode, collect_stats=True, cache=cache
    )


class TestShapeCrossProduct:
    def test_every_shape_bit_identical(self, tmp_path):
        network = fig1_network()
        baseline = _trajectory(network, "safe")
        bounds, ledger = _bounds(baseline), _ledger_bytes(baseline)

        shaped = [
            (label, _trajectory(network, "safe", BoundCache(cache_dir=str(tmp_path))))
            for label in ("cold cache", "warm cache")
        ]

        for label, result in shaped:
            assert _bounds(result) == bounds, f"bounds drifted under {label}"
            assert _ledger_bytes(result) == ledger, (
                f"ledger section not byte-identical under {label}"
            )
        assert shm.active_owned() == []


class TestRandomizedShapes:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(MODES),
    )
    @example(seed=589, mode="safe")
    @example(seed=7, mode="windowed")
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_shapes_agree(self, seed, mode):
        network = random_network(
            seed, n_switches=3, n_end_systems=6, n_virtual_links=6
        )
        sequential = _trajectory(network, mode)
        cache = BoundCache()
        cold = _trajectory(network, mode, cache)
        warm = _trajectory(network, mode, cache)

        for result in (cold, warm):
            assert _bounds(result) == _bounds(sequential)
            assert _ledger_bytes(result) == _ledger_bytes(sequential)
