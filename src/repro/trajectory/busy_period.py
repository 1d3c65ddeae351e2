"""Busy-period bounds and the interference counter.

A *busy period* of an output port is a maximal interval during which
the port always has a frame to transmit (paper Sec. II-B).  The packet
under study is released inside a busy period of its **first** port (a
release outside one would see an empty source queue and a strictly
easier scenario), so the maximization variable ``t`` of the Trajectory
formula ranges over ``[0, BP)`` where ``BP`` bounds the longest busy
period of the source port.

The workload function ``W(t) - t`` is piecewise decreasing between the
jump instants of the interference counters, so only ``t = 0`` and the
jump instants inside ``[0, BP)`` need to be evaluated.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

from repro.errors import ConvergenceError, UnstableNetworkError

__all__ = ["interference_count", "busy_period_bound"]

#: Hard cap on fixed-point iterations (a stable port converges far sooner).
_MAX_ITERATIONS = 10_000


def _multiple_le(k: int, period: float, shifted: float) -> bool:
    """Exact test ``k * period <= shifted`` over the floats' real values.

    ``float.as_integer_ratio`` is exact (every binary float is a dyadic
    rational), so the comparison is performed in integer arithmetic with
    no rounding at all.
    """
    pn, pd = period.as_integer_ratio()
    sn, sd = shifted.as_integer_ratio()
    return k * pn * sd <= sn * pd


def interference_count(t: float, offset: float, period: float) -> int:
    """Frames of a sporadic ``(C, T)`` flow able to delay a release at ``t``.

    ``(1 + floor((t + A) / T))+`` — the Martin & Minet counter: the
    flow's frames that may reach the shared port no later than the
    packet under study, given the relative arrival offset ``A``.  The
    boundary is inclusive: at ``t + A`` exactly ``k * T`` the ``k``-th
    periodic frame still counts.

    The floor is evaluated *exactly* on the real values of the floats
    (``shifted = fl(t + A)`` is the defined input): the rounded quotient
    seeds the answer and is then corrected against the exact integer
    comparison ``k * T <= shifted``.  A historical ``+ 1e-9`` epsilon
    fudge both over-counted a frame whenever ``t + A`` landed just
    below a multiple of ``T`` (a tightness loss) and under-protected
    once the quotient grew past ``~1e9`` ulps (where the division error
    exceeds 1e-9).
    """
    shifted = t + offset
    if shifted < 0:
        return 0
    quotient = shifted / period
    k = math.floor(quotient)
    # Fast path: division is correctly rounded (error <= 0.5 ulp), so a
    # fractional part safely away from both 0 and 1 proves the floor is
    # already exact.  `quotient - k` is itself exact (Sterbenz).
    fraction = quotient - k
    tolerance = (quotient + 1.0) * 2.0 ** -50
    if tolerance < fraction < 1.0 - tolerance:
        return 1 + k
    # Near a boundary: settle k = max{j : j * T <= shifted} exactly.
    while k > 0 and not _multiple_le(k, period, shifted):
        k -= 1
    while _multiple_le(k + 1, period, shifted):
        k += 1
    return 1 + k


def busy_period_bound(
    flows: Iterable[Tuple[float, float, float]],
    max_iterations: int = _MAX_ITERATIONS,
) -> float:
    """Longest busy period of a port serving sporadic flows.

    Parameters
    ----------
    flows:
        Triples ``(C, T, A)`` — transmission time, period (BAG) and
        arrival offset of every flow crossing the port.

    Returns the least fixed point of
    ``b = sum_j count_j(b) * C_j`` reached by ascending iteration.

    Raises
    ------
    UnstableNetworkError
        If the port utilization is >= 1 (no finite busy period).
    ConvergenceError
        If the iteration budget is exhausted (defensive; cannot happen
        for utilization < 1).
    """
    flow_list = list(flows)
    if not flow_list:
        return 0.0
    utilization = math.fsum(c / t for c, t, _ in flow_list)
    if utilization >= 1.0 - 1e-12:
        raise UnstableNetworkError(
            f"port utilization {utilization:.4f} >= 1: busy period is unbounded"
        )
    value = math.fsum(c for c, _, _ in flow_list)
    for _ in range(max_iterations):
        new_value = math.fsum(
            interference_count(value, offset, period) * c
            for c, period, offset in flow_list
        )
        if new_value <= value + 1e-9:
            return max(value, new_value)
        value = new_value
    raise ConvergenceError(
        f"busy-period iteration did not converge within {max_iterations} steps"
    )

