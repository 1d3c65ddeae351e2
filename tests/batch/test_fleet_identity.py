"""Execution-shape identity: the fleet engine's central contract.

Every way of running an analysis — ``jobs`` in {1, 2, 4}, cold,
through a warm reused :class:`WorkerPool`, or
against a cold/warm incremental cache — must produce *bit-identical*
per-path bounds and a *byte-identical* deterministic
:class:`CostLedger` section.  The committed-scenario sweep lives in
``scripts/kernel_gate.py``; here the same contract is exercised on the
full shape cross product (fig1) and property-tested on randomized
topologies under hypothesis, sharing one warm pool across every
example so payload epochs get hammered too.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.batch import BatchAnalyzer, shm
from repro.batch.pool import WorkerPool
from repro.configs import fig1_network, random_network
from repro.obs.costmodel import deterministic_section
from tests.trajectory.reference_kernel import ReferenceTrajectoryAnalyzer

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


def _trajectory(network, mode, **kwargs):
    return BatchAnalyzer(
        network, serialization=mode, collect_stats=True, **kwargs
    ).trajectory()


class TestShapeCrossProduct:
    def test_every_shape_bit_identical(self, tmp_path):
        network = fig1_network()
        baseline = _trajectory(network, "safe", jobs=1)
        bounds, ledger = _bounds(baseline), _ledger_bytes(baseline)

        shaped = []
        for jobs in (2, 4):
            shaped.append((f"jobs={jobs}", _trajectory(network, "safe", jobs=jobs)))
        with WorkerPool(2, None) as pool:
            for round_ in (1, 2):
                shaped.append(
                    (
                        f"warm pool round {round_}",
                        _trajectory(network, "safe", jobs=2, pool=pool),
                    )
                )
        shaped.append(
            (
                "cold cache",
                _trajectory(
                    network, "safe", jobs=1,
                    incremental=True, cache_dir=str(tmp_path),
                ),
            )
        )
        shaped.append(
            (
                "warm cache",
                _trajectory(
                    network, "safe", jobs=1,
                    incremental=True, cache_dir=str(tmp_path),
                ),
            )
        )

        for label, result in shaped:
            assert _bounds(result) == bounds, f"bounds drifted under {label}"
            assert _ledger_bytes(result) == ledger, (
                f"ledger section not byte-identical under {label}"
            )
        assert shm.active_owned() == []


#: One warm pool shared by every hypothesis example below — each
#: example swaps a new payload in (an epoch), which is exactly the
#: fleet usage pattern the engine must keep bit-exact.
_SHARED_POOL = None


def _shared_pool():
    global _SHARED_POOL
    if _SHARED_POOL is None:
        _SHARED_POOL = WorkerPool(2, None)
    return _SHARED_POOL


@pytest.fixture(scope="module", autouse=True)
def _close_shared_pool():
    yield
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        _SHARED_POOL.close()
        _SHARED_POOL = None
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
        sequential = _trajectory(network, mode, jobs=1)
        pooled = _trajectory(network, mode, jobs=2, pool=_shared_pool())
        reference = ReferenceTrajectoryAnalyzer(
            network, serialization=mode
        ).analyze()

        assert _bounds(pooled) == _bounds(sequential)
        assert _ledger_bytes(pooled) == _ledger_bytes(sequential)
        # against the frozen oracle: bounds exact
        assert _bounds(reference) == _bounds(sequential)
