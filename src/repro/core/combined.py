"""The combined approach: per-path best of both analyses.

Paper Sec. II-C: *"The combined approach keeps for each VL path the
best obtained by either trajectory or network calculus approach"* —
sound because each method independently produces a valid upper bound,
so their minimum is one too.
"""

from __future__ import annotations

from typing import Optional

from repro.core.results import AnalysisResult, PathComparison
from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.results import NetworkCalculusResult
from repro.network.topology import Network
from repro.trajectory.analyzer import analyze_trajectory
from repro.trajectory.results import TrajectoryResult

__all__ = ["analyze_network", "build_comparison"]


def build_comparison(
    nc_result: NetworkCalculusResult, trajectory_result: TrajectoryResult
) -> AnalysisResult:
    """Merge per-path bounds of the two methods into an :class:`AnalysisResult`.

    Both results must come from the same configuration (same path keys);
    a mismatch raises :class:`ValueError`.
    """
    if set(nc_result.paths) != set(trajectory_result.paths):
        raise ValueError(
            "the two results cover different VL paths; "
            "run both analyses on the same configuration"
        )
    result = AnalysisResult()
    for key in sorted(nc_result.paths):
        nc_path = nc_result.paths[key]
        traj_path = trajectory_result.paths[key]
        nc_us = nc_path.total_us
        traj_us = traj_path.total_us
        best_us = min(nc_us, traj_us)
        result.paths[key] = PathComparison(
            vl_name=nc_path.vl_name,
            path_index=nc_path.path_index,
            node_path=nc_path.node_path,
            network_calculus_us=nc_us,
            trajectory_us=traj_us,
            best_us=best_us,
            benefit_trajectory_pct=100.0 * (nc_us - traj_us) / nc_us,
            benefit_best_pct=100.0 * (nc_us - best_us) / nc_us,
        )
    return result


def analyze_network(
    network: Network,
    grouping: bool = True,
    serialization: bool = True,
    refine_smax: bool = True,
    nc_result: Optional[NetworkCalculusResult] = None,
    trajectory_result: Optional[TrajectoryResult] = None,
    collect_stats: bool = False,
    progress=None,
    explain: bool = False,
) -> AnalysisResult:
    """Run both methods on ``network`` and combine them per path.

    Parameters
    ----------
    grouping / serialization / refine_smax:
        Forwarded to the respective analyzers (all default to the
        paper's tool configuration).
    nc_result / trajectory_result:
        Pre-computed results to reuse instead of re-running an analysis
        (e.g. in parameter sweeps that only perturb one method's input).
    collect_stats / progress:
        Observability hooks forwarded to both analyzers (see
        :mod:`repro.obs`); the collected snapshots live on the
        per-method results' ``stats`` fields.
    explain:
        Attach bound provenance ledgers to both per-method results
        (see :mod:`repro.explain`); bounds are bit-identical either
        way.  Ignored for a method whose result was passed in.
    """
    if nc_result is None:
        nc_result = analyze_network_calculus(
            network,
            grouping=grouping,
            collect_stats=collect_stats,
            progress=progress,
            explain=explain,
        )
    if trajectory_result is None:
        trajectory_result = analyze_trajectory(
            network,
            serialization=serialization,
            refine_smax=refine_smax,
            collect_stats=collect_stats,
            progress=progress,
            explain=explain,
        )
    return build_comparison(nc_result, trajectory_result)
