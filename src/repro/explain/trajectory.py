"""Provenance recorder for the Trajectory analyzer.

Unlike Network Calculus, a trajectory bound is the outcome of a
fixed-point iteration: the final sweep's bounds depend on the ``Smax``
map that sweep ran with.  When ``explain=True`` the analyzer therefore
snapshots the ``Smax`` map entering each sweep and stashes the final
sweep's complete prefix-bound dictionary (zero cost in the inner
loops — two dict copies per sweep).  This module replays each path's
tree walk under that snapshot and emits the ledger of the paper's
trajectory formula (Sec. III)::

    R_i(t*) = W(t*) + sum_k Delta_k + sum_k L_k - gain - t*

``workload``
    ``W(t*)`` — the busy-period workload at the critical instant,
    broken down (informationally, with an exact closing residual) into
    per-competitor charges tagged with the input link each competitor
    arrived through at its meeting port.
``counted-twice``
    The per-transition largest-frame term ``Delta_k`` (the paper's
    Sec. III-B "frame counted twice" pessimism source).
``node-latency``
    Technological latencies ``L_k``.
``serialization-gain``
    The (negative) input-link serialization credit per port.
``release-offset``
    ``-t*``, the studied frame's release instant within the source
    busy period.
``fp-residual``
    Exact rounding errors of every accumulation replay
    (:mod:`repro.obs.provenance`), making the ledger sum to the bound
    bit for bit.

Every replayed accumulation is cross-checked against the diagnostics
the analyzer recorded (``workload_us`` / ``transition_us`` /
``latency_us`` / ``serialization_gain_us`` / ``total_us``); any
mismatch raises :class:`ProvenanceError` rather than producing a
plausible-but-wrong explanation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ProvenanceError
from repro.network.port import PortId
from repro.obs.provenance import (
    FP_RESIDUAL,
    Decomposition,
    ExactAccumulator,
    Term,
    closing_residual,
)
from repro.trajectory.analyzer import _EPS, _flow_events
from repro.trajectory.busy_period import interference_count

__all__ = ["trajectory_provenance"]


def _path_walk_state(analyzer, vl_name: str, ports: List[PortId]):
    """Replay the DFS interference state along one root->leaf path.

    Returns ``(charge_entries, per-port serialization gains)`` where
    each charge entry is ``(name, meeting_port, (C, T, A), kind)`` in
    the order the walk folded the flows in.  Mirrors
    :meth:`TrajectoryAnalyzer._walk_tree_fast` (and the frozen reference
    walk in ``tests/trajectory/reference_kernel.py``) exactly: the state
    at a tree node only depends on the root->node path (sibling branches
    are rolled back), so a linear walk reproduces it.
    """
    network = analyzer.network
    vl = network.vl(vl_name)
    root = ports[0]
    own_c = vl.s_max_bits / analyzer._port_rate[root]
    competitors: Dict[object, Tuple[float, float, float]] = {
        vl_name: (own_c, vl.bag_us, 0.0)
    }
    entries: List[Tuple[str, PortId, Tuple[float, float, float], str]] = [
        (vl_name, root, competitors[vl_name], "studied")
    ]
    for other in analyzer._port_vls[root]:
        if other == vl_name:
            continue
        entry = analyzer._competitor_entry(vl_name, other, root)
        competitors[other] = entry
        entries.append((other, root, entry, "competitor"))

    safe = analyzer.serialization_mode == "safe"
    gains: List[Tuple[PortId, float]] = []
    for port in ports[1:]:
        key = (vl_name, port)
        cached = analyzer._meeting_cache.get(key)
        if cached is None:
            # batch coordinators never ran a sweep themselves: discover
            # (and memoize) the structural meeting info on demand
            cached = analyzer._discover_meetings(vl_name, port, competitors)
            analyzer._meeting_cache[key] = cached
        added, readded, port_gain = cached
        gains.append((port, port_gain))
        for other in added:
            entry = analyzer._competitor_entry(vl_name, other, port)
            competitors[other] = entry
            entries.append((other, port, entry, "competitor"))
        if safe:
            for other in readded:
                entry = analyzer._competitor_entry(vl_name, other, port)
                competitors[(other, port)] = entry
                entries.append((other, port, entry, "re-meeting"))
    return entries, gains


def _workload_children(
    analyzer, entries, horizon: float, critical_instant: float, workload: float
) -> Tuple[Term, ...]:
    """Per-competitor charges at the critical instant, closed exactly.

    Each charge is the frames of one flow released early enough to be
    served before the studied packet (``count * C``), tagged with the
    input link the flow arrived through at its meeting port; an
    ``fp-residual`` child absorbs the (tiny) difference between the
    independently computed charges and the walk's accumulated workload
    so the children sum to the parent bit-exactly.
    """
    children: List[Term] = []
    for name, port, (c, period, offset), kind in entries:
        base, events = _flow_events(c, period, offset, horizon)
        count = interference_count(0.0, offset, period)
        charge = base
        for t, event_c in events:  # sorted ascending by construction
            if t <= critical_instant + _EPS:
                charge += event_c
                count += 1
            else:
                break
        upstream = analyzer._upstream.get((name, port))
        group = (
            f"{upstream[0]}->{upstream[1]}" if upstream is not None else "source"
        )
        detail = f"{kind}: {count} frame(s) x {c:.6f} us"
        children.append(
            Term(
                "competitor-charge",
                charge,
                port=port,
                group=group,
                detail=detail,
            )
        )
    residual = closing_residual([c.value_us for c in children], workload)
    if residual != 0.0:
        children.append(Term(FP_RESIDUAL, residual, group="workload"))
    return tuple(children)


def trajectory_provenance(analyzer, result) -> Dict[Tuple[str, int], Decomposition]:
    """Exact per-path decompositions of a Trajectory result.

    Requires the analyzer to have run with ``explain=True`` (so the
    final sweep's ``Smax`` snapshot and prefix bounds are available);
    every decomposition is checked before return.
    """
    bounds = getattr(analyzer, "_explain_bounds", None)
    snapshot = getattr(analyzer, "_explain_smax", None)
    if bounds is None or snapshot is None:
        raise ProvenanceError(
            "trajectory provenance needs an analyzer run with explain=True"
        )
    network = analyzer.network
    out: Dict[Tuple[str, int], Decomposition] = {}
    # the walk replay must read the exact Smax map the final sweep used
    live_smax = analyzer._smax
    analyzer._smax = snapshot
    try:
        for vl_name, path_index, node_path in network.flow_paths():
            ports = [(a, b) for a, b in zip(node_path, node_path[1:])]
            record = bounds[(vl_name, ports[-1])]
            entries, gains = _path_walk_state(analyzer, vl_name, ports)
            horizon = analyzer._root_horizon(ports[0])
            if horizon != record.busy_period_us:
                raise ProvenanceError(
                    f"trajectory replay of {vl_name}[{path_index}]: busy "
                    f"period {horizon!r} != recorded {record.busy_period_us!r}"
                )
            if len(entries) - 1 != record.n_competitors:
                raise ProvenanceError(
                    f"trajectory replay of {vl_name}[{path_index}]: "
                    f"{len(entries) - 1} competitors != recorded "
                    f"{record.n_competitors}"
                )

            terms: List[Term] = [
                Term(
                    "workload",
                    record.workload_us,
                    detail=f"busy period <= {horizon:.6f} us",
                    children=_workload_children(
                        analyzer,
                        entries,
                        horizon,
                        record.critical_instant_us,
                        record.workload_us,
                    ),
                )
            ]

            transition_acc = ExactAccumulator()
            for hop, port in enumerate(ports[1:], start=2):
                value = analyzer._port_max_c[port]
                transition_acc.add(value)
                terms.append(Term("counted-twice", value, hop=hop, port=port))
            if transition_acc.value != record.transition_us:
                raise ProvenanceError(
                    f"trajectory replay of {vl_name}[{path_index}]: "
                    f"transitions {transition_acc.value!r} != recorded "
                    f"{record.transition_us!r}"
                )
            for residual in transition_acc.residuals:
                terms.append(
                    Term(FP_RESIDUAL, residual, group="counted-twice")
                )

            latency_acc = ExactAccumulator()
            for hop, port in enumerate(ports, start=1):
                latency = network.node(port[0]).technological_latency_us
                latency_acc.add(latency)
                if latency != 0.0:
                    terms.append(
                        Term("node-latency", latency, hop=hop, port=port)
                    )
            if latency_acc.value != record.latency_us:
                raise ProvenanceError(
                    f"trajectory replay of {vl_name}[{path_index}]: "
                    f"latencies {latency_acc.value!r} != recorded "
                    f"{record.latency_us!r}"
                )
            for residual in latency_acc.residuals:
                terms.append(Term(FP_RESIDUAL, residual, group="node-latency"))

            gain_acc = ExactAccumulator()
            for hop, (port, port_gain) in enumerate(gains, start=2):
                gain_acc.add(port_gain)
                if port_gain != 0.0:
                    terms.append(
                        Term(
                            "serialization-gain", -port_gain, hop=hop, port=port
                        )
                    )
            if gain_acc.value != record.serialization_gain_us:
                raise ProvenanceError(
                    f"trajectory replay of {vl_name}[{path_index}]: gain "
                    f"{gain_acc.value!r} != recorded "
                    f"{record.serialization_gain_us!r}"
                )
            # the ledger carries -gain: negate the captured errors too
            # (negation is exact in IEEE arithmetic)
            for residual in gain_acc.residuals:
                terms.append(
                    Term(FP_RESIDUAL, -residual, group="serialization-gain")
                )

            # constant = (transitions + latencies) - gain, then
            # bound = (workload + constant) - t*, replayed exactly
            constant_acc = ExactAccumulator()
            constant_acc.add(record.transition_us)
            constant_acc.add(record.latency_us)
            constant_acc.add(-record.serialization_gain_us)
            for residual in constant_acc.residuals:
                terms.append(Term(FP_RESIDUAL, residual, group="constant"))

            total_acc = ExactAccumulator()
            total_acc.add(record.workload_us)
            total_acc.add(constant_acc.value)
            if record.critical_instant_us != 0.0:
                total_acc.add(-record.critical_instant_us)
                terms.append(
                    Term("release-offset", -record.critical_instant_us)
                )
            if total_acc.value != record.total_us:
                raise ProvenanceError(
                    f"trajectory replay of {vl_name}[{path_index}]: bound "
                    f"{total_acc.value!r} != recorded {record.total_us!r}"
                )
            for residual in total_acc.residuals:
                terms.append(Term(FP_RESIDUAL, residual, group="total"))

            decomposition = Decomposition(
                method="trajectory",
                vl_name=vl_name,
                path_index=path_index,
                node_path=tuple(node_path),
                bound_us=record.total_us,
                terms=tuple(terms),
                hop_bounds_us=tuple(
                    bounds[(vl_name, port)].total_us for port in ports
                ),
            )
            decomposition.check()
            out[(vl_name, path_index)] = decomposition
    finally:
        analyzer._smax = live_smax
    return out
