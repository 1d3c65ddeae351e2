"""Whole-configuration fan-out over many configurations.

One configuration is always analyzed by the sequential analyzers; the
parallel grain is the configuration itself.  The package provides the
``batch_sweep`` soundness-fuzzing harness that analyzes and simulates
many seeded random configurations hunting for ``simulated > bound``
violations (the regression class behind the ``random_network(589)``
bug), and the corpus throughput driver.

Entry points
------------

:func:`batch_sweep`
    Whole-configuration fan-out over seeded ``random_network`` configs,
    each analyzed and simulated, returning a violation report.
:func:`analyze_corpus`
    Fleet throughput: every configuration of a seeded
    :class:`CorpusSpec` analyzed through a (reusable, warm) worker
    pool with shared cross-config caches.

See ``docs/BATCH.md`` for the design and the cache-sharing model.
"""

from repro.batch.corpus import (
    CorpusReport,
    CorpusSpec,
    analyze_corpus,
    corpus_network,
)
from repro.batch.pool import (
    LANE_BASE,
    WorkerPool,
    chunked,
    worker_emit,
    worker_lane,
)
from repro.batch.sweep import (
    SweepConfigRecord,
    SweepReport,
    SweepSpec,
    SweepViolation,
    batch_sweep,
)

__all__ = [
    "LANE_BASE",
    "WorkerPool",
    "chunked",
    "worker_emit",
    "worker_lane",
    "SweepSpec",
    "SweepViolation",
    "SweepConfigRecord",
    "SweepReport",
    "batch_sweep",
    "CorpusSpec",
    "CorpusReport",
    "analyze_corpus",
    "corpus_network",
]
