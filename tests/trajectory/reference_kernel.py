"""The frozen reference trajectory walk: the oracle of the kernel gate.

The dict-based tree walk of the paper's per-candidate formula, as a
:class:`TrajectoryAnalyzer` subclass.  The library's flat-table walk
must reproduce every float it emits bit for bit
(``tests/trajectory/test_kernels.py``, ``scripts/kernel_gate.py``);
only ``n_candidates`` may be smaller there, thanks to the dominance
prune.  Do not optimize this file: its value is that it does not change.

The oracle overrides only :meth:`sweep_vls`, so the fixed point,
seeding and result assembly are the library's own.  It refuses the
incremental cache, so an oracle result can never enter a
:class:`~repro.incremental.cache.BoundCache`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.network.port import PortId
from repro.trajectory.analyzer import _EPS, TrajectoryAnalyzer, _flow_events
from repro.trajectory.busy_period import interference_count
from repro.trajectory.results import TrajectoryPathBound
from repro.trajectory.timing import FlowPortKey

__all__ = ["ReferenceTrajectoryAnalyzer"]


class ReferenceTrajectoryAnalyzer(TrajectoryAnalyzer):
    """:class:`TrajectoryAnalyzer` sweeping with the frozen reference walk."""

    def __init__(self, network, *args, **kwargs):
        super().__init__(network, *args, **kwargs)
        if self.incremental:
            raise ValueError(
                "the reference oracle never runs incremental: its results "
                "must not enter a BoundCache"
            )

    def sweep_vls(
        self, vl_names: List[str]
    ) -> Dict[FlowPortKey, TrajectoryPathBound]:
        if not self._prepared:
            raise RuntimeError("prepare() must run before sweep_vls()")
        bounds: Dict[FlowPortKey, TrajectoryPathBound] = {}
        for vl_name in vl_names:
            self._walk_tree(vl_name, bounds)
        return bounds

    def _walk_tree(
        self, vl_name: str, bounds: Dict[FlowPortKey, TrajectoryPathBound]
    ) -> None:
        """DFS one VL's tree, maintaining the interference state.

        State carried down the recursion (and rolled back on return):

        * ``competitors`` — ``{name: (C, T, A)}`` for every flow met so
          far (the studied flow included, with ``A = 0``);
        * ``base_workload`` — ``sum_j N_j(0) C_j`` over that set;
        * ``events`` — candidate jump instants ``(t, C)`` inside the
          source busy period;
        * per-port serialization groups for the gain bookkeeping.
        """
        network = self.network
        vl = network.vl(vl_name)
        root, children = self._trees[vl_name]

        own_c = vl.s_max_bits / self._port_rate[root]
        competitors: Dict[object, Tuple[float, float, float]] = {
            vl_name: (own_c, vl.bag_us, 0.0)
        }
        safe = self.serialization_mode == "safe"

        # ---- root-level quantities -----------------------------------
        root_added: List[str] = []
        for other in self._port_vls[root]:
            if other == vl_name:
                continue
            competitors[other] = self._competitor_entry(vl_name, other, root)
            root_added.append(other)

        horizon = self._root_horizon(root)

        base_workload = 0.0
        events: List[Tuple[float, float]] = []
        event_cache = self._event_cache
        event_counters = self._cache_counters["events"]

        def add_flow(entry: Tuple[float, float, float]) -> int:
            """Fold one flow into the workload state; return #events added."""
            nonlocal base_workload
            c, period, offset = entry
            key = (c, period, offset, horizon)
            cached = event_cache.get(key)
            if cached is None:
                event_counters[1] += 1
                cached = _flow_events(c, period, offset, horizon)
                event_cache[key] = cached
            else:
                event_counters[0] += 1
            base, flow_events = cached
            base_workload += base
            events.extend(flow_events)
            return len(flow_events)

        def remove_flow(entry: Tuple[float, float, float]) -> None:
            nonlocal base_workload
            c, period, offset = entry
            base_workload -= interference_count(0.0, offset, period) * c

        add_flow(competitors[vl_name])
        for name in root_added:
            add_flow(competitors[name])

        meeting_cache = self._meeting_cache
        meeting_counters = self._cache_counters["meetings"]

        # ---- recursive descent ---------------------------------------
        def visit(
            port: PortId,
            depth: int,
            transitions: float,
            latencies: float,
            gain: float,
            n_met: int,
        ) -> None:
            latencies += network.node(port[0]).technological_latency_us
            if depth > 0:
                transitions += self._port_max_c[port]

            added: Tuple[str, ...] = ()
            readded: Tuple[str, ...] = ()
            port_gain = 0.0
            rollback: List[object] = []
            added_events = 0
            if depth > 0:
                key = (vl_name, port)
                cached = meeting_cache.get(key)
                if cached is None:
                    meeting_counters[1] += 1
                    cached = self._discover_meetings(vl_name, port, competitors)
                    meeting_cache[key] = cached
                else:
                    meeting_counters[0] += 1
                added, readded, port_gain = cached
                for other in added:
                    entry = self._competitor_entry(vl_name, other, port)
                    competitors[other] = entry
                    rollback.append(other)
                    added_events += add_flow(entry)
                if safe:
                    # A re-met competitor's frames can overtake the
                    # studied packet on the off-path detour, so they may
                    # interfere again here.  Charge the re-meeting as an
                    # extra competitor (the first meeting's charge stays
                    # in place); synthetic keys keep the name-membership
                    # test in `_discover_meetings` intact.
                    for other in readded:
                        entry = self._competitor_entry(vl_name, other, port)
                        remeet_key = (other, port)
                        competitors[remeet_key] = entry
                        rollback.append(remeet_key)
                        added_events += add_flow(entry)
                    n_met += len(readded)
            gain += port_gain
            n_met += len(added)

            constant = transitions + latencies - gain
            best, best_t, best_w, n_cand = self._maximize(
                base_workload, events, constant
            )
            bounds[(vl_name, port)] = TrajectoryPathBound(
                vl_name=vl_name,
                path_index=-1,  # prefix record; path index filled by analyze()
                node_path=(),
                port_ids=(port,),
                total_us=best,
                critical_instant_us=best_t,
                busy_period_us=horizon,
                workload_us=best_w,
                transition_us=transitions,
                latency_us=latencies,
                serialization_gain_us=gain,
                n_competitors=n_met,
                n_candidates=n_cand,
            )

            for child in children.get(port, ()):
                visit(child, depth + 1, transitions, latencies, gain, n_met)

            # rollback this port's additions
            for entry_key in rollback:
                remove_flow(competitors.pop(entry_key))
            if added_events:
                del events[-added_events:]

        visit(root, 0, 0.0, 0.0, 0.0, len(root_added))

    @staticmethod
    def _maximize(
        base_workload: float,
        events: List[Tuple[float, float]],
        constant: float,
    ) -> Tuple[float, float, float, int]:
        """Maximize ``W(t) + constant - t`` over the candidate instants.

        ``W(0) = base_workload``; each event ``(t, C)`` raises the
        workload by ``C`` at instant ``t``.  Between events the
        objective strictly decreases, so only ``t = 0`` and the event
        instants need evaluation.  Returns ``(best value, argmax t,
        workload at argmax, number of candidates)``.
        """
        best_value = base_workload + constant
        best_t = 0.0
        best_workload = base_workload
        n_candidates = 1
        if not events:
            return best_value, best_t, best_workload, n_candidates

        workload = base_workload
        idx = 0
        ordered = sorted(events)
        while idx < len(ordered):
            t = ordered[idx][0]
            while idx < len(ordered) and ordered[idx][0] <= t + _EPS:
                workload += ordered[idx][1]
                idx += 1
            n_candidates += 1
            value = workload + constant - t
            if value > best_value + _EPS:
                best_value = value
                best_t = t
                best_workload = workload
        return best_value, best_t, best_workload, n_candidates
