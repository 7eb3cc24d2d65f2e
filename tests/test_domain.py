import ast
import itertools
import math
import struct
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jensengap import domain
from jensengap.domain import (
    EPS_EQ,
    AffineConfig,
    Check,
    CheckSet,
    IntervalR,
    Mt1Scenario,
    StructureError,
    WeightedGroup,
    barycenter,
    combination_value,
    moment,
    spread,
    validate_affine_config,
)


def cfg(a_pts, a_ws, b_pts, b_ws, c_pts=(), c_ws=()):
    return AffineConfig(
        WeightedGroup(a_pts, a_ws), WeightedGroup(b_pts, b_ws), WeightedGroup(c_pts, c_ws)
    )


class TestBarycenter:
    def test_weighted_mean(self):
        assert barycenter(WeightedGroup((0, 4), (0.25, 0.75))) == pytest.approx(3.0)

    def test_singleton(self):
        assert barycenter(WeightedGroup((7,), (0.3,))) == pytest.approx(7.0, abs=1e-12)

    def test_uniform(self):
        g = WeightedGroup((1, 2, 3), (1 / 3, 1 / 3, 1 / 3))
        assert barycenter(g) == pytest.approx(2.0)

    def test_zero_total_weight(self):
        with pytest.raises(StructureError):
            barycenter(WeightedGroup((1, 2), (0.0, 0.0)))

    def test_products_of_both_signs_past_float_range(self):
        # the products are +inf and -inf, whose fsum is an error of its own
        with pytest.raises(StructureError, match=r"^barycenter sum\(w \* p\) past the float"):
            barycenter(WeightedGroup((1e4, -1e4), (1e305, 1e305)))

    def test_products_of_one_sign_past_float_range(self):
        # the products are +inf twice, whose fsum is +inf from finite factors
        with pytest.raises(StructureError, match=r"^barycenter sum\(w \* p\) past the float"):
            barycenter(WeightedGroup((1e4, 1e4), (1e305, 1e305)))

    def test_infinite_points_stay_infinite(self):
        assert barycenter(WeightedGroup((math.inf, 1.0), (0.5, 0.5))) == math.inf

    def test_weight_rescale_invariance(self):
        g = WeightedGroup((1.0, 4.0, -2.0), (0.2, 0.5, 0.3))
        scaled = WeightedGroup(g.points, tuple(7.5 * w for w in g.weights))
        assert barycenter(scaled) == pytest.approx(barycenter(g), abs=1e-12)


class TestHullMembership:
    """Membership in the hull [lo, hi] of two barycenters is ``CheckSet.admits``."""

    def test_interior(self):
        assert CheckSet().admits(1, 0, 2)

    def test_endpoint(self):
        assert CheckSet().admits(0, 0, 2)

    def test_outside_by_more_than_tol(self):
        assert not CheckSet(1e-9).admits(2.0000001, 0, 2)

    def test_orientation_free(self):
        # combination_value orders the barycenters itself: plus_a's is 2 here
        assert combination_value(cfg((2,), (0.6,), (0,), (0.6,), (1,), (0.2,))) == pytest.approx(1.0)


class TestValidate:
    def test_convex_case_valid(self):
        report = validate_affine_config(cfg((0,), (0.5,), (2,), (0.5,)))
        assert report.ok and report.violations == ()

    def test_minus_group_valid(self):
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.2,)))
        assert report.ok

    def test_hull_violation(self):
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (5,), (0.2,)))
        assert not report.ok
        assert any(name.startswith("hull") for name, _ in report.violations)

    def test_nan_minus_point_is_outside_the_hull(self):
        # its distance to the hull is NaN, which no tolerance admits
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (math.nan,), (0.2,)))
        ((name, residual),) = report.violations
        assert name == "hull[0]" and math.isnan(residual) and not report.ok

    def test_mass_balance_violation(self):
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.1,)))
        assert ("mass_balance", pytest.approx(0.1)) in report.violations

    def test_alpha_out_of_range(self):
        report = validate_affine_config(cfg((0,), (1.4,), (2,), (0.6,), (1,), (1.0,)))
        assert any(name == "alpha_range" for name, _ in report.violations)

    def test_zero_weight_point_not_hull_checked(self):
        # inert far-away minus point must not fail the hull check
        report = validate_affine_config(cfg((0,), (0.5,), (2,), (0.5,), (99.0,), (0.0,)))
        assert report.ok

    def test_report_follows_its_checks(self):
        report = CheckSet()
        assert report.ok and report.checks == [] and report.violations == ()
        report.record("a", 0.0, True)
        assert report.ok and report.violations == ()
        report.record("b", 0.5, False)
        assert not report.ok and report.violations == (("b", 0.5),)
        assert [(c.name, c.residual, c.ok) for c in report.checks] == [
            ("a", 0.0, True), ("b", 0.5, False),
        ]

    def test_validate_returns_the_checkset_it_recorded_in(self):
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.1,)), tol=0.5)
        assert type(report) is CheckSet and report.tol == 0.5 and report.ok
        assert all(type(c) is Check for c in report.checks)

    def test_structural_errors(self):
        with pytest.raises(StructureError):
            WeightedGroup((1, 2), (0.5,))
        with pytest.raises(StructureError):
            validate_affine_config(
                AffineConfig(WeightedGroup((), ()), WeightedGroup((1,), (1.0,)))
            )


def _equality(tol, residual, scale):
    """The relative equality rule written out as a reference: the (residual,
    ok) of |residual| against tol * max(1, |scale|)."""
    residual = float(abs(residual))
    scale = abs(scale)
    return residual, residual <= tol * (scale if scale > 1.0 else 1.0)


#: signed zeros, the smallest subnormal, the smallest normal, the extremes
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
          1.5, 1e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_EDGES)
_TOLS = st.sampled_from([0.0, 1e-300, 1e-12, EPS_EQ, 0.5])


def _recorded(cs, ok, residual, want):
    """cs holds one check, whose (residual, ok) is the reference's bit for
    bit; the method returned that ok, and cs.ok follows it."""
    (check,) = cs.checks
    assert ok is check.ok is want is cs.ok
    assert type(check.residual) is float
    assert struct.pack("<d", check.residual) == struct.pack("<d", residual)


def _same_record(a, b, tol):
    """matched(a, b) records the reference rule's (residual, ok) for a - b on
    the scale max(|a|, |b|), bit for bit, in this argument order."""
    cs = CheckSet(tol)
    ok = cs.matched("m", a, b)
    _recorded(cs, ok, *_equality(tol, a - b, max(abs(a), abs(b))))


class TestMatched:
    @given(_ANY_FLOAT, _ANY_FLOAT, _TOLS)
    @example(math.inf, 1.0, EPS_EQ)
    @example(math.nan, 2.0, EPS_EQ)
    @example(-0.0, 5e-324, 0.0)
    def test_records_the_equality_rule_in_both_orders(self, a, b, tol):
        _same_record(a, b, tol)
        _same_record(b, a, tol)

    @pytest.mark.parametrize("tol", [0.0, EPS_EQ])
    def test_every_pair_of_edge_values(self, tol):
        for a, b in itertools.product(_EDGES, repeat=2):
            _same_record(a, b, tol)

    def test_relative_and_absolute_bounds(self):
        cs = CheckSet(1e-9)
        assert cs.matched("big", 1e6, 1e6 + 1e-4)  # 1e-4 <= 1e-9 * 1e6
        assert not cs.matched("small", 0.5, 0.5 + 2e-9)  # the bound is at least tol
        assert cs.unit_total("total", 1.0 + 5e-10) and not cs.unit_total("total", 1.0 + 2e-9)
        assert cs.at_least("ordered", -1e-4, scale=1e6)
        assert not cs.at_least("ordered", -2e-9)
        assert cs.bound(-1e6) == 1e-9 * 1e6 and cs.bound(0.5) == 1e-9

    def test_relative_checks_read_bound_at_every_scale(self):
        """``bound`` is the one relative rule: a CheckSet that widens it widens
        matched, at_least and admits at scale 1 too."""

        class Widened(CheckSet):
            __slots__ = ()

            def bound(self, scale):
                return 2.0 * super().bound(scale)

        cs = Widened(1e-9)
        assert cs.matched("near", 1.0, 1.0 + 1.5e-9)
        assert cs.at_least("ordered", -1.5e-9)
        assert cs.admits(1.0 + 1.5e-9, hi=1.0) and cs.admits(-1.5e-9, lo=0.0)
        assert not CheckSet(1e-9).admits(1.0 + 1.5e-9, hi=1.0)


def _ordering(tol, margin, scale):
    """The relative ordering rule written out as a reference: the (residual,
    ok) of margin against -tol * max(1, |scale|)."""
    scale = abs(scale)
    return float(margin), margin >= -tol * (scale if scale > 1.0 else 1.0)


#: scales below 1, above 1 and negative, besides the edge values
_SCALES = _EDGES + [0.5, -0.5, 2.5, -2.5, 1e6]


class TestAtLeast:
    @given(_ANY_FLOAT, _ANY_FLOAT | st.sampled_from(_SCALES), _TOLS)
    @example(-0.0, 1.0, 0.0)
    @example(-2e-9, -1e6, EPS_EQ)
    @example(math.nan, 2.0, EPS_EQ)
    def test_records_the_ordering_rule(self, margin, scale, tol):
        cs = CheckSet(tol)
        _recorded(cs, cs.at_least("o", margin, scale=scale), *_ordering(tol, margin, scale))

    @pytest.mark.parametrize("tol", [0.0, EPS_EQ])
    def test_every_pair_of_edge_values(self, tol):
        for margin, scale in itertools.product(_SCALES, repeat=2):
            cs = CheckSet(tol)
            _recorded(cs, cs.at_least("o", margin, scale=scale), *_ordering(tol, margin, scale))

    @pytest.mark.parametrize("margin", _SCALES)
    def test_default_scale_is_one(self, margin):
        cs = CheckSet(EPS_EQ)
        _recorded(cs, cs.at_least("o", margin), *_ordering(EPS_EQ, margin, 1.0))


class TestUnitTotal:
    @given(_ANY_FLOAT, _TOLS)
    @example(1.0 + 2e-9, EPS_EQ)
    @example(-0.0, 1.0)
    def test_records_the_absolute_rule(self, total, tol):
        cs = CheckSet(tol)
        residual = float(abs(total - 1.0))
        _recorded(cs, cs.unit_total("t", total), residual, residual <= tol)

    @pytest.mark.parametrize("tol", [0.0, EPS_EQ, 0.5])
    def test_every_edge_value(self, tol):
        for total in _SCALES:
            cs = CheckSet(tol)
            residual = float(abs(total - 1.0))
            _recorded(cs, cs.unit_total("t", total), residual, residual <= tol)


class TestWitness:
    @pytest.mark.parametrize("A", [*_SCALES, 3, -2, 0])
    def test_a_found_constant_is_recorded_as_its_value(self, A):
        cs = CheckSet(EPS_EQ)
        _recorded(cs, cs.witness("w", A), float(A), True)

    def test_no_constant_fails_at_zero(self):
        cs = CheckSet(EPS_EQ)
        _recorded(cs, cs.witness("w", None), 0.0, False)


def _inside_ref(tol, values, interval):
    """The range rule as ``functional._inside`` wrote it before it moved into
    ``CheckSet.inside``: the (residual, ok) of the largest excess past an end."""
    worst = max(max(interval.lo - x, x - interval.hi, 0.0) for x in values)
    return worst, worst <= tol


def _outside_ref(tol, values, inner):
    """The rule as ``functional._outside_open`` wrote it before it moved into
    ``CheckSet.outside``: the (residual, ok) of the largest depth inside."""
    depth = max(min(x - inner.lo, inner.hi - x) for x in values)
    return max(depth, 0.0), depth <= tol


#: 2**-30: an excess exactly at this tolerance is exactly representable
_TOL_BITS = 2.0**-30
_CONTAINMENT_TOLS = [0.0, _TOL_BITS, EPS_EQ]
#: signed zero and touching ends, the extremes, and a unit interval
_CONTAINMENT_INTERVALS = [
    IntervalR(-0.0, 0.0), IntervalR(0.0, 0.0), IntervalR(-0.0, -0.0), IntervalR(-0.0, 1.0),
    IntervalR(-1.0, 1.0), IntervalR(2.0, 2.0), IntervalR(-1e308, 1e308), IntervalR(0.0, 1.0),
    IntervalR(-1.0, 0.0),
]
#: single values, signed zeros in either order (of equal excesses, max keeps
#: the first), ±1e308, the ends of [0, 1] and of [-1, 1], excesses past 1
#: and below 0 just below, at and above 2**-30, and the endpoints of
#: [-0.5, 0.5] and [-2, 0.5] read as the values of a nesting
_CONTAINMENT_VALUES = [
    (0.0,), (-0.0,), (0.0, -0.0), (-0.0, 0.0), (1.0, 0.0), (-0.0, -1.0),
    (1e308,), (-1e308,), (1e308, -1e308),
    (1.0,), (0.0, 1.0), (-1.0, 1.0), (2.0,), (2.0, 2.0),
    *[(1.0 + k * 2.0**-31,) for k in (1, 2, 4)],
    *[(-k * 2.0**-31, 0.5) for k in (1, 2, 4)],
    (-0.5, 0.5), (-2.0, 0.5),
]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES[:10])


class TestInsideOutside:
    """``inside`` and ``outside`` record the range rules they replaced bit
    for bit: the residual (its sign of zero too), ``ok`` and ``cs.ok``."""

    @staticmethod
    def _same(method, reference, tol, values, interval):
        cs = CheckSet(tol)
        residual, want = reference(tol, values, interval)
        _recorded(cs, getattr(cs, method)("r", values, interval), residual, want)
        (check,) = cs.checks
        assert math.copysign(1.0, check.residual) == math.copysign(1.0, residual)

    @pytest.mark.parametrize("method, reference", [("inside", _inside_ref), ("outside", _outside_ref)])
    @pytest.mark.parametrize("tol", _CONTAINMENT_TOLS)
    def test_every_edge_case(self, method, reference, tol):
        for interval, values in itertools.product(_CONTAINMENT_INTERVALS, _CONTAINMENT_VALUES):
            self._same(method, reference, tol, values, interval)

    @given(st.lists(_FINITE, min_size=1, max_size=4), _FINITE, _FINITE, _TOLS)
    def test_any_finite_values(self, values, a, b, tol):
        interval = IntervalR(min(a, b), max(a, b))
        self._same("inside", _inside_ref, tol, values, interval)
        self._same("outside", _outside_ref, tol, values, interval)

    def test_excess_against_the_tolerance(self):
        cs = CheckSet(_TOL_BITS)
        unit = IntervalR(0.0, 1.0)
        below, at, above = (1.0 + k * 2.0**-31 for k in (1, 2, 4))
        assert cs.inside("below", (below,), unit) and cs.inside("at", (at,), unit) and cs.ok
        assert cs.inside("nested", (-0.5, 0.5), IntervalR(-1, 1)) and cs.ok
        assert not cs.inside("above", (above,), unit) and not cs.ok
        assert not cs.inside("sticks_out", (-2.0, 0.5), IntervalR(-1, 1))
        residuals = [2.0**-31, 2.0**-30, 0.0, 2.0**-29, 1.0]
        assert [c.residual for c in cs.checks] == residuals


def _around(*bounds):
    """Each bound and the floats one ulp either side, with the signed zeros,
    the infinities and NaN."""
    near = (math.nextafter(b, d) for b in bounds for d in (-math.inf, math.inf))
    return [*bounds, *near, 0.0, -0.0, math.inf, -math.inf, math.nan]


#: the ends that the verifiers pass: signed zeros, unit values, a large
#: one, the infinities of a one-sided test, and NaN
_ENDS = [0.0, -0.0, 1.0, -1.0, 1e6, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("tol", _CONTAINMENT_TOLS)
class TestAdmits:
    """``admits`` answers each comparison with tol that the package once
    wrote by hand, bit for bit: each rewrite is checked against the
    expression it replaced, at the bound, one ulp either side, at signed
    zeros, infinities and NaN."""

    def test_two_sided(self, tol):
        # the removed IntervalR.contains(x, tol) and AInterval.contains(x,
        # tol), c in [a_tt, r_tt], ic3/mc3's inclusion, and mt3's sandwich
        # diagnostics in either orientation
        cs = CheckSet(tol)
        for lo, hi in itertools.product(_ENDS, repeat=2):
            for x in _around(lo - tol, hi + tol):
                assert cs.admits(x, lo, hi) is (lo - tol <= x <= hi + tol)

    def test_barycenter_hull(self, tol):
        # combination_value's postcondition, once hull_membership(x, a, b,
        # tol * max(1, |a|, |b|)): on the scale max(|a|, |b|), the same slack
        cs = CheckSet(tol)
        for a, b in itertools.product([*_ENDS, 0.5, -2.5], repeat=2):
            lo, hi, t = min(a, b), max(a, b), tol * max(1.0, abs(a), abs(b))
            for x in _around(lo - t, hi + t):
                assert cs.admits(x, lo, hi, max(abs(a), abs(b))) is (lo - t <= x <= hi + t)

    def test_certificate_order(self, tol):
        # is_3convex and is_3concave (sign * a <= sign * b + tol), and the
        # feasibility of a K interval and of K1 and K2's meet (lo <= hi + tol)
        cs = CheckSet(tol)
        for b in _ENDS:
            for a, sign in itertools.product(_around(b + tol, b - tol), (1.0, -1.0)):
                assert cs.admits(sign * a, hi=sign * b) is (sign * a <= sign * b + tol)

    def test_one_sided(self, tol):
        # the f'' sign of gates a (>= -tol) and b (<= tol), the sign regime
        # of A, the verdict rule (min(margins) >= -tol) and the hull (<= tol)
        cs = CheckSet(tol)
        for x in _around(-tol, tol):
            assert cs.admits(x, lo=0.0) is (x >= -tol)
            assert cs.admits(x, hi=0.0) is (x <= tol)

    def test_mass_range(self, tol):
        # alpha_range and beta_range: 0 < alpha <= 1 + tol
        cs = CheckSet(tol)
        for x in _around(0.0, 1.0 + tol):
            assert (0.0 < x and cs.admits(x, hi=1.0)) is (0.0 < x <= 1.0 + tol)

    def test_spread_order(self, tol):
        # the spread orders of gates a and b: s_a <= s_b + bound(scale)
        cs = CheckSet(tol)
        for y, scale in itertools.product(_ENDS, [*_ENDS, 0.5, -2.5]):
            t = cs.bound(scale)
            for x in _around(y + t):
                assert cs.admits(x, hi=y, scale=scale) is (x <= y + t)

    def test_strict_excess(self, tol):
        # hull[k] (once dist > tol) and an empty K interval (once lo > hi +
        # tol), each one admits call now: the same answer, except that a
        # NaN, which the strict test passed, is outside
        cs = CheckSet(tol)
        for x in _around(tol):
            assert (not cs.admits(x, hi=0.0)) is (x > tol or math.isnan(x))
        for hi in _ENDS:
            for lo in _around(hi, hi + tol):
                nan = math.isnan(lo) or math.isnan(hi)
                assert (not cs.admits(lo, hi=hi)) is (lo > hi + tol or nan)


def test_checkset_ok_is_every_recorded_verdict():
    cs = CheckSet(EPS_EQ)
    # admits records nothing and leaves ok as it is, whatever it answers
    assert not cs.admits(2.0, 0.0, 1.0) and cs.ok is True and cs.checks == []
    verdicts = [
        cs.matched("m", 1.0, 1.0),
        cs.at_least("o", -1.0),
        cs.unit_total("t", 1.0),
        cs.witness("w", 2.0),
        cs.record("r", 0.0, True),
        cs.inside("i", (0.5,), IntervalR(0.0, 1.0)),
        cs.outside("x", (0.5,), IntervalR(0.0, 1.0)),
    ]
    assert verdicts == [True, False, True, True, True, True, False]
    assert cs.ok is False
    assert cs.admits(0.5, 0.0, 1.0) and cs.ok is False
    assert [c.ok for c in cs.checks] == verdicts


class TestCombinationValue:
    def test_signed_sum(self):
        assert combination_value(cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.2,))) == pytest.approx(1.0)

    def test_all_points_equal(self):
        assert combination_value(cfg((5,), (0.5,), (5,), (0.5,))) == pytest.approx(5.0)

    def test_midpoint(self):
        assert combination_value(cfg((0,), (0.5,), (2,), (0.5,))) == pytest.approx(1.0)

    def test_invalid_config_is_measured_not_judged(self):
        # the minus point 5 leaves the hull [0, 2] of the barycenters: the
        # measurements still compute, and only the validity check judges it
        bad = cfg((0,), (0.6,), (2,), (0.6,), (5,), (0.2,))
        assert combination_value(bad) == pytest.approx(0.2)
        assert spread(bad) == pytest.approx(-2.64)
        report = validate_affine_config(bad)
        assert not report.ok
        assert "hull" in dict(report.violations)


class TestSpread:
    def test_worked_value(self):
        assert spread(cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.2,))) == pytest.approx(1.2)

    def test_degenerate_zero(self):
        assert spread(cfg((3,), (0.6,), (3,), (0.6,), (3,), (0.2,))) == pytest.approx(0.0, abs=1e-12)

    def test_two_point(self):
        assert spread(cfg((0,), (0.5,), (2,), (0.5,))) == pytest.approx(1.0)

    def test_nonnegative_for_valid(self):
        assert spread(cfg((0,), (0.6,), (2,), (0.6,), (1.7,), (0.2,))) >= -1e-9

    def test_moment_past_float_range_is_an_input_error(self):
        # the square overflows, and so does the sum of finite products; a
        # zero weight times an overflowed square is NaN, past the range too
        cases = (((1e200,), (1.0,)), ((1e154, 1e154), (1.0, 1.0)), ((1e200,), (0.0,)))
        for points, weights in cases:
            with pytest.raises(StructureError, match=r"sum\(w \* p\*\*2\) past the float"):
                moment(weights, points, "group moment sum(w * p**2)")
        assert moment((1.0,), (1e200,), "group moment sum(w * p**1)", 1) == 1e200

    @pytest.mark.parametrize("weights", [(1e300, 1e300), (1e300, -1e300)])
    def test_moment_of_overflowing_products_is_an_input_error(self, weights):
        # each product is past the float range: inf, or +inf and -inf
        with pytest.raises(StructureError, match=r"sum\(w \* p\*\*2\) past the float"):
            moment(weights, (1e6, -1e6), "group moment sum(w * p**2)")

    def test_moment_of_infinite_points_stays_infinite(self):
        assert moment((1.0,), (math.inf,), "group moment sum(w * p**2)") == math.inf


class TestInterval:
    def test_reversed_raises(self):
        with pytest.raises(StructureError):
            IntervalR(1.0, 0.0)

    def test_degenerate_allowed(self):
        iv = IntervalR(2.0, 2.0)
        assert iv.contains(2.0) and not iv.contains(2.1)


class TestSplitPoint:
    """One split-point rule: ``sides`` for the functional forms (its errors
    are tested through every verifier in test_functional), and the same rule
    when a two-sided scenario is built."""

    def test_sides_of_each_mode(self):
        iv = IntervalR(-1.0, 3.0)
        lo, hi = domain.sides("region_restricted", iv, 0.5)
        assert (lo.lo, lo.hi, hi.lo, hi.hi) == (-1.0, 0.5, 0.5, 3.0)
        assert domain.sides("literal", iv, 0.5) == (iv, iv)

    def test_nan_split_point_is_outside(self):
        with pytest.raises(StructureError, match="^split point must lie in the interval$"):
            domain.sides("literal", IntervalR(-1.0, 3.0), math.nan)

    def test_two_sided_scenario_checks_c(self):
        left = cfg((-0.5,), (0.5,), (-0.2,), (0.5,))
        right = cfg((0.2,), (0.5,), (0.5,), (0.5,))
        with pytest.raises(StructureError, match="^split point must lie in the interval$"):
            Mt1Scenario(left, right, 5.0, IntervalR(-1, 1))
        assert Mt1Scenario(left, right, 1.0, IntervalR(-1, 1)).c == 1.0

    def test_second_inner_of_each_mode(self):
        first, second = IntervalR(-1.0, 0.0), IntervalR(0.0, 1.0)
        assert domain.second_inner("literal", first, None, "second x") is first
        assert domain.second_inner("region_restricted", first, second, "second x") is second
        with pytest.raises(StructureError, match="^literal mode reads no second x: both sides"):
            domain.second_inner("literal", first, second, "second x")
        with pytest.raises(StructureError, match="^region_restricted mode needs a second x$"):
            domain.second_inner("region_restricted", first, None, "second x")


def test_no_module_but_domain_names_fsum():
    """Every sum that feeds a margin or an equality check goes through
    ``domain.checked_fsum``: no other module names ``fsum``, and in ``domain``
    only ``checked_fsum`` does."""
    for path in Path(domain.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "fsum"
            or isinstance(node, ast.Name) and node.id == "fsum"
            or isinstance(node, ast.alias) and node.name == "fsum"
        ]
        if path.name != "domain.py":
            assert not named, path.name
            continue
        kernel = next(
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "checked_fsum"
        )
        in_kernel = {id(node) for node in ast.walk(kernel)}
        assert named and all(id(node) in in_kernel for node in named)


def _reads_tol(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "tol" or (
        isinstance(node, ast.Attribute) and node.attr == "tol"
    )


def test_no_verifier_compares_with_tol_by_hand():
    """``CheckSet`` makes every tolerance decision: no module of the package
    does arithmetic or an ordering comparison on a tol, or takes a
    ``bound`` to compare with itself, outside ``CheckSet``'s body and
    ``scenario.check_tolerance``, which validates a tol given as input.
    Each hit is named file:line."""
    src = Path(domain.__file__).parent
    exempt = {("domain.py", "CheckSet"), ("scenario.py", "check_tolerance")}
    hits, exempted = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = set()
        for node in tree.body:
            if getattr(node, "name", None) and (path.name, node.name) in exempt:
                exempted.add((path.name, node.name))
                skip.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign):
                operands = (node.target, node.value)
            elif isinstance(node, ast.UnaryOp):
                operands = (node.operand,)
            elif isinstance(node, ast.Compare):
                if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                    continue  # `tol is None` asks whether one was given
                operands = (node.left, *node.comparators)
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and node.func.attr == "bound":
                    hits.append(f"{path.name}:{node.lineno}")
                continue
            else:
                continue
            if any(map(_reads_tol, operands)):
                hits.append(f"{path.name}:{node.lineno}")
    assert exempted == exempt
    assert sorted(set(hits)) == []


@pytest.mark.parametrize("empty", ["plus_a", "plus_b"])
def test_an_empty_plus_group_is_a_structure_error(empty):
    one = WeightedGroup((0.0,), (1.0,))
    groups = {"plus_a": one, "plus_b": one, empty: WeightedGroup((), ())}
    with pytest.raises(StructureError, match=f"^{empty} group is empty$"):
        validate_affine_config(AffineConfig(groups["plus_a"], groups["plus_b"]))


def test_first_moments_are_the_moment_kernel(monkeypatch):
    """apply and barycenter form sum(w * x) in domain.moment, under their own names."""
    calls = []
    kernel = domain.moment

    def spy(w, x, what="weighted sum L(u**2)", k=2):
        calls.append((what, k))
        return kernel(w, x, what, k)

    monkeypatch.setattr(domain, "moment", spy)
    assert domain.apply([0.5, 0.5], [1.0, 3.0]) == 2.0
    assert barycenter(WeightedGroup((1.0, 3.0), (0.25, 0.25))) == 2.0
    assert calls == [("weighted sum L(u)", 1), ("barycenter sum(w * p)", 1)]
