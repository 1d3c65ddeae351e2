"""Busy-period fixed points and the interference counter."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnstableNetworkError
from repro.trajectory.busy_period import busy_period_bound, interference_count


def _exact_count(t: float, offset: float, period: float) -> int:
    """Ground-truth counter via exact rational arithmetic."""
    shifted = t + offset  # the float the counter is defined on
    if shifted < 0:
        return 0
    return 1 + math.floor(Fraction(shifted) / Fraction(period))


class TestInterferenceCount:
    def test_single_frame_at_zero(self):
        assert interference_count(0.0, 0.0, 4000.0) == 1

    def test_counts_periodic_releases(self):
        assert interference_count(4000.0, 0.0, 4000.0) == 2
        assert interference_count(8000.0, 0.0, 4000.0) == 3

    def test_positive_offset_adds_frames(self):
        # a competitor with arrival jitter 4500 us can land two frames
        assert interference_count(0.0, 4500.0, 4000.0) == 2

    def test_negative_offset_blocks_interference(self):
        assert interference_count(10.0, -100.0, 4000.0) == 0

    def test_boundary_is_inclusive(self):
        # exactly at the period boundary the next frame counts
        assert interference_count(0.0, 4000.0, 4000.0) == 2


class TestInterferenceCountBoundaries:
    """The counter is exact on float boundaries — no epsilon fudge.

    The historical ``floor(shifted / period + 1e-9)`` over-counted one
    frame whenever ``t + A`` landed within 1e-9 quotient units *below*
    a multiple of ``T``, and under-protected once the quotient grew
    large enough that the true division error exceeded 1e-9.
    """

    def test_one_ulp_below_boundary_does_not_count(self):
        # shifted one ulp below an exactly-representable multiple: the
        # old fudge rounded the quotient up and over-counted a frame
        period = 4000.0
        for k in (1, 3, 7, 1001):
            boundary = k * period  # exactly representable
            shifted = math.nextafter(boundary, 0.0)
            assert interference_count(shifted, 0.0, period) == k  # not k + 1
            assert interference_count(shifted, 0.0, period) == _exact_count(
                shifted, 0.0, period
            )

    def test_one_ulp_above_boundary_counts(self):
        period = 4000.0
        shifted = math.nextafter(3 * period, math.inf)
        assert interference_count(shifted, 0.0, period) == 4

    def test_offset_places_shifted_on_boundary(self):
        # t + A exactly on a multiple through the *sum* rounding
        t, offset, period = 1500.0, 2500.0, 4000.0
        assert interference_count(t, offset, period) == 2

    def test_large_quotient_exceeds_old_epsilon(self):
        # quotient ~ 6.4e9: one ulp of the quotient (~1.5e-6) dwarfs the
        # old 1e-9 guard, so only the exact comparison gets this right
        period = math.pi * 2.0 ** -20
        shifted = 19175.5
        assert interference_count(shifted, 0.0, period) == _exact_count(
            shifted, 0.0, period
        )

    def test_non_representable_period_boundary(self):
        # 0.1 is not a dyadic rational; k * fl(0.1) boundaries must be
        # decided on the floats' exact values, not on a re-rounded product
        period = 0.1
        for k in (3, 7, 1000003):
            product = k * period
            for shifted in (
                math.nextafter(product, 0.0),
                product,
                math.nextafter(product, math.inf),
            ):
                assert interference_count(shifted, 0.0, period) == _exact_count(
                    shifted, 0.0, period
                )

    @given(
        t=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        offset=st.floats(min_value=-1e6, max_value=1e9, allow_nan=False),
        period=st.floats(min_value=1e-6, max_value=1e8, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_matches_exact_rational(self, t, offset, period):
        assert interference_count(t, offset, period) == _exact_count(
            t, offset, period
        )


class TestBusyPeriod:
    def test_single_flow(self):
        assert busy_period_bound([(40.0, 4000.0, 0.0)]) == pytest.approx(40.0)

    def test_two_flows(self):
        assert busy_period_bound(
            [(40.0, 4000.0, 0.0), (40.0, 4000.0, 0.0)]
        ) == pytest.approx(80.0)

    def test_empty_is_zero(self):
        assert busy_period_bound([]) == 0.0

    def test_period_recursion(self):
        # C=30, T=50: utilization 0.6; with two flows C=30,T=100 (0.3):
        # total 0.9 -> busy period spans several periods
        value = busy_period_bound([(30.0, 50.0, 0.0), (30.0, 100.0, 0.0)])
        # fixed point: b = 30*ceil-ish(b/50) + 30*ceil(b/100) -> 270
        assert value >= 90.0
        # consistency: applying the workload once more does not grow it
        total = (
            interference_count(value, 0.0, 50.0) * 30.0
            + interference_count(value, 0.0, 100.0) * 30.0
        )
        assert total <= value + 1e-6

    def test_unstable_raises(self):
        with pytest.raises(UnstableNetworkError):
            busy_period_bound([(60.0, 100.0, 0.0), (50.0, 100.0, 0.0)])

    def test_exactly_full_raises(self):
        with pytest.raises(UnstableNetworkError):
            busy_period_bound([(100.0, 100.0, 0.0)])

    def test_jitter_extends_busy_period(self):
        base = busy_period_bound([(40.0, 4000.0, 0.0), (40.0, 4000.0, 0.0)])
        jittered = busy_period_bound([(40.0, 4000.0, 0.0), (40.0, 4000.0, 4500.0)])
        assert jittered > base

