import ast
import math
from pathlib import Path

import pytest

from jensengap import domain
from jensengap.domain import (
    AffineConfig,
    IntervalR,
    StructureError,
    WeightedGroup,
    barycenter,
    combination_value,
    hull_membership,
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
    def test_interior(self):
        assert hull_membership(1, 0, 2)

    def test_endpoint(self):
        assert hull_membership(0, 0, 2)

    def test_outside_by_more_than_tol(self):
        assert not hull_membership(2.0000001, 0, 2, tol=1e-9)

    def test_orientation_free(self):
        assert hull_membership(1, 2, 0)


class TestValidate:
    def test_convex_case_valid(self):
        report = validate_affine_config(cfg((0,), (0.5,), (2,), (0.5,)))
        assert report.valid and report.violations == ()

    def test_minus_group_valid(self):
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.2,)))
        assert report.valid

    def test_hull_violation(self):
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (5,), (0.2,)))
        assert not report.valid
        assert any(name.startswith("hull") for name, _ in report.violations)

    def test_mass_balance_violation(self):
        report = validate_affine_config(cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.1,)))
        assert ("mass_balance", pytest.approx(0.1)) in report.violations

    def test_alpha_out_of_range(self):
        report = validate_affine_config(cfg((0,), (1.4,), (2,), (0.6,), (1,), (1.0,)))
        assert any(name == "alpha_range" for name, _ in report.violations)

    def test_zero_weight_point_not_hull_checked(self):
        # inert far-away minus point must not fail the hull check
        report = validate_affine_config(cfg((0,), (0.5,), (2,), (0.5,), (99.0,), (0.0,)))
        assert report.valid

    def test_structural_errors(self):
        with pytest.raises(StructureError):
            WeightedGroup((1, 2), (0.5,))
        with pytest.raises(StructureError):
            validate_affine_config(
                AffineConfig(WeightedGroup((), ()), WeightedGroup((1,), (1.0,)))
            )


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
        assert not report.valid
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
        # the power overflows, and so does the sum of finite products
        for points, weights in (((1e200,), (1.0,)), ((1e154, 1e154), (1.0, 1.0))):
            with pytest.raises(StructureError, match=r"sum\(w \* p\*\*2\) past the float"):
                WeightedGroup(points, weights).moment(2)
        assert WeightedGroup((1e200,), (1.0,)).moment(1) == 1e200

    @pytest.mark.parametrize("weights", [(1e300, 1e300), (1e300, -1e300)])
    def test_moment_of_overflowing_products_is_an_input_error(self, weights):
        # each product is past the float range: inf, or +inf and -inf
        with pytest.raises(StructureError, match=r"sum\(w \* p\*\*2\) past the float"):
            WeightedGroup((1e6, -1e6), weights).moment(2)

    def test_moment_of_infinite_points_stays_infinite(self):
        assert WeightedGroup((math.inf,), (1.0,)).moment(2) == math.inf


class TestInterval:
    def test_reversed_raises(self):
        with pytest.raises(StructureError):
            IntervalR(1.0, 0.0)

    def test_degenerate_allowed(self):
        iv = IntervalR(2.0, 2.0)
        assert iv.contains(2.0) and not iv.contains(2.1)

    def test_contains_interval(self):
        assert IntervalR(-1, 1).contains_interval(IntervalR(-0.5, 0.5))
        assert not IntervalR(-1, 1).contains_interval(IntervalR(-2, 0.5))


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
