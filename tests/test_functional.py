import math

import pytest

from jensengap.domain import IntervalR, StructureError
from jensengap.funclib import catalog
from jensengap.functional import (
    DiscreteFunctional,
    FunctionOnOmega,
    RangeConstraint,
    SampleDomain,
    apply,
    check_range,
    verify_ic1,
    verify_ic2,
    verify_ic3,
    verify_it2,
    verify_it3,
    verify_mc1,
    verify_mc2,
    verify_mc3,
    verify_mt4,
    verify_mt5,
)
from jensengap.report import HOLDS, UNMET

iv = IntervalR
Q2 = catalog("quadratic", 2)  # x^2
SS = catalog("signed_square")
HALF = [0.5, 0.5]


def assert_unmet(rep, check):
    """Hypotheses-unmet with no margins, naming the failed check."""
    assert rep.verdict == UNMET and rep.margins == ()
    assert check in [name for name, _ in rep.hypotheses.violations]


class TestTypesAndApply:
    def test_weighted_sum(self):
        assert apply(HALF, [-1.0, 2.0]) == pytest.approx(0.5)

    def test_point_evaluation(self):
        assert apply([1.0, 0.0, 0.0], [4.0, 9.0, 16.0]) == 4.0

    def test_zero_functional(self):
        assert apply([0.0, 0.0], [3.0, 9.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(StructureError):
            apply(HALF, [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(StructureError):
            DiscreteFunctional((-0.1, 1.1))

    def test_unital_flag(self):
        assert DiscreteFunctional((0.25, 0.75)).is_unital()
        assert not DiscreteFunctional((0.25, 0.5)).is_unital()

    def test_sample_domain_positive(self):
        assert SampleDomain(3).size == 3
        with pytest.raises(StructureError):
            SampleDomain(0)

    def test_unital_apply_stays_in_range(self):
        u = FunctionOnOmega((-3.0, 1.0, 2.5))
        value = apply([0.2, 0.5, 0.3], u)
        assert min(u.values) <= value <= max(u.values)


class TestCheckRange:
    def test_outside_with_closed_endpoint(self):
        rc = RangeConstraint(iv(-1, 1), iv(-3, 3), "outside")
        assert check_range([-1.0, 2.0], rc).valid

    def test_strictly_inside_violates_outside_mode(self):
        rc = RangeConstraint(iv(-1, 1), iv(-3, 3), "outside")
        assert not check_range([0.5, 2.0], rc).valid

    def test_inside_mode(self):
        rc = RangeConstraint(iv(-1, 1), iv(-3, 3), "inside")
        assert check_range([0.2, 0.8], rc).valid
        assert not check_range([0.2, 1.5], rc).valid

    def test_inner_must_sit_in_outer(self):
        with pytest.raises(StructureError):
            RangeConstraint(iv(-5, 5), iv(-1, 1), "inside")


class TestIt2:
    def test_worked_margin(self):
        rep = verify_it2(Q2, HALF, [-0.5, 0.5], HALF, [-1.0, 1.0], inner=iv(-1, 1), interval=iv(-3, 3))
        assert rep.verdict == "holds"
        assert rep.margins[0] == pytest.approx(0.75, abs=1e-12)

    def test_degenerate_equality(self):
        rep = verify_it2(Q2, HALF, [1.0, 1.0], HALF, [1.0, 1.0], inner=iv(1, 1), interval=iv(-3, 3))
        assert rep.verdict == "holds" and rep.margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_affine_function_gives_zero(self):
        from jensengap.funclib import FunctionModel

        lin = FunctionModel("line", iv(-10, 10), lambda x: 2 * x - 1)
        rep = verify_it2(lin, HALF, [-0.5, 0.5], HALF, [-1.0, 1.0], inner=iv(-1, 1), interval=iv(-3, 3))
        assert rep.margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_mean_mismatch_unmet(self):
        rep = verify_it2(Q2, HALF, [-0.5, 0.5], HALF, [-1.0, 1.5], inner=iv(-1, 1), interval=iv(-3, 3))
        assert rep.verdict == "hypotheses-unmet"
        assert any(c.name == "1.4" and not c.ok for c in rep.hypotheses.checks)

    def test_nonconvex_function_unmet(self):
        rep = verify_it2(SS, HALF, [-0.5, 0.5], HALF, [-1.0, 1.0], inner=iv(-1, 1), interval=iv(-3, 3))
        assert rep.verdict == "hypotheses-unmet"

    def test_h_in_open_inner_unmet(self):
        rep = verify_it2(Q2, HALF, [-0.5, 0.5], HALF, [-0.5, 0.5], inner=iv(-1, 1), interval=iv(-3, 3))
        assert rep.verdict == "hypotheses-unmet"


class TestIc1:
    def test_worked_margin(self):
        rep = verify_ic1(Q2, HALF, [0.0, 2.0], inner=iv(0, 2))
        assert rep.verdict == HOLDS and rep.margins == pytest.approx([1.0])

    def test_constant_argument(self):
        rep = verify_ic1(Q2, HALF, [1.3, 1.3], inner=iv(0, 2))
        assert rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_non_unital_raises(self):
        assert_unmet(verify_ic1(Q2, [0.4, 0.4], [0.0, 2.0], inner=iv(0, 2)), "unital.L")


class TestIc2:
    def test_three_level_margins(self):
        rep = verify_ic2(
            Q2,
            [HALF, HALF, HALF],
            [[0.0, 0.0], [-1.0, 1.0], [-3.0, 3.0]],
            inners=[iv(-0.5, 0.5), iv(-1, 1)],
            interval=iv(-3, 3),
        )
        assert rep.verdict == HOLDS
        assert rep.margins == pytest.approx([1.0, 8.0], abs=1e-12)

    def test_two_level_reduces_to_transfer(self):
        rep = verify_ic2(
            Q2, [HALF, HALF], [[-0.5, 0.5], [-1.0, 1.0]], inners=[iv(-1, 1)], interval=iv(-3, 3)
        )
        assert rep.margins == pytest.approx([0.75], abs=1e-12)

    def test_constant_ladder(self):
        rep = verify_ic2(
            Q2, [HALF, HALF], [[0.5, 0.5], [0.5, 0.5]], inners=[iv(0.5, 0.5)], interval=iv(-3, 3)
        )
        assert rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_broken_nesting_raises(self):
        rep = verify_ic2(
            Q2,
            [HALF, HALF],
            [[0.0, 0.0], [-1.0, 1.0]],
            inners=[iv(-2, 2)],  # level-2 values sit strictly inside
            interval=iv(-3, 3),
        )
        assert_unmet(rep, "range.g2")


class TestIc3:
    def test_worked_margin(self):
        rep = verify_ic3(Q2, [[0.5], [0.5]], [[0.0], [2.0]], interval=iv(-3, 3))
        assert rep.verdict == HOLDS and rep.details == {"inclusion": True}
        assert rep.margins == pytest.approx([1.0], abs=1e-12)

    def test_single_unital_family_matches_plain_jensen(self):
        rep = verify_ic3(Q2, [HALF], [[0.0, 2.0]], interval=iv(-3, 3))
        plain = verify_ic1(Q2, HALF, [0.0, 2.0], inner=iv(0, 2))
        assert rep.details["inclusion"] and rep.margins == pytest.approx(plain.margins, abs=1e-12)

    def test_constant_functions(self):
        rep = verify_ic3(Q2, [[0.5], [0.5]], [[1.0], [1.0]], interval=iv(-3, 3))
        assert rep.details["inclusion"] and rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_bad_total_mass(self):
        rep = verify_ic3(Q2, [[0.5], [0.4]], [[0.0], [2.0]], interval=iv(-3, 3))
        assert_unmet(rep, "totals")


class TestIt3:
    def test_split_families_match_it2(self):
        rep = verify_it3(
            Q2,
            [[0.5, 0.0], [0.0, 0.5]],
            [[-0.5, 0.5], [-0.5, 0.5]],
            [HALF],
            [[-1.0, 1.0]],
            inner=iv(-1, 1),
            interval=iv(-3, 3),
        )
        assert rep.verdict == HOLDS and rep.margins == pytest.approx([0.75], abs=1e-12)

    def test_affine_function(self):
        from jensengap.funclib import FunctionModel

        lin = FunctionModel("line", iv(-10, 10), lambda x: -x + 4)
        rep = verify_it3(
            lin, [HALF], [[-0.5, 0.5]], [HALF], [[-1.0, 1.0]], inner=iv(-1, 1), interval=iv(-3, 3)
        )
        assert rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_family_sum_mismatch(self):
        rep = verify_it3(
            Q2, [HALF], [[-0.5, 0.5]], [HALF], [[-1.0, 2.0]], inner=iv(-1, 1), interval=iv(-3, 3)
        )
        assert_unmet(rep, "1.11")


WORKED_MT4 = dict(
    c=0.0,
    interval=iv(-3, 3),
    inner=iv(-2, -1),
    inner2=iv(1, 2),
)


class TestMt4:
    def test_worked_region_example(self):
        rep = verify_mt4(
            SS, HALF, HALF, [-2, -1], [-3, 0], [1, 2], [0, 3], mode="region_restricted", **WORKED_MT4
        )
        assert rep.verdict == "holds"
        assert rep.gap_left == pytest.approx(-2.0, abs=1e-12)
        assert rep.gap_right == pytest.approx(2.0, abs=1e-12)
        assert rep.chain == pytest.approx((-2.0, 0.0, 0.0, 2.0), abs=1e-12)
        assert rep.spread_left == pytest.approx(2.0) and rep.spread_right == pytest.approx(2.0)

    def test_quadratic_mirror_equality(self):
        rep = verify_mt4(
            catalog("quadratic", 2),
            HALF,
            HALF,
            [-2, -1],
            [-3, 0],
            [1, 2],
            [0, 3],
            mode="region_restricted",
            **WORKED_MT4,
        )
        assert rep.verdict == "holds"
        assert rep.margins[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.details["refine_left"] == pytest.approx(0.0, abs=1e-12)
        assert rep.details["refine_right"] == pytest.approx(0.0, abs=1e-12)

    def test_literal_straddle_fails(self):
        s = math.sqrt(9.36)
        rep = verify_mt4(
            SS,
            HALF,
            HALF,
            [0.5, 0.5],
            [-1.0, 2.0],
            [0.2, 0.8],
            [(1 - s) / 2, (1 + s) / 2],
            c=0.0,
            interval=iv(-3, 3),
            inner=iv(-1, 1),
            mode="literal",
        )
        assert rep.verdict == "fails"
        assert rep.margins[0] == pytest.approx(-0.06029414592216457, abs=1e-6)

    def test_region_mode_rejects_straddle(self):
        s = math.sqrt(9.36)
        rep = verify_mt4(
            SS,
            HALF,
            HALF,
            [0.5, 0.5],
            [-1.0, 2.0],
            [0.2, 0.8],
            [(1 - s) / 2, (1 + s) / 2],
            c=0.0,
            interval=iv(-3, 3),
            inner=iv(-1, 1),
            inner2=iv(0.1, 0.9),
            mode="region_restricted",
        )
        assert rep.verdict == "hypotheses-unmet"

    def test_moment_mismatch_unmet(self):
        rep = verify_mt4(
            SS, HALF, HALF, [-2, -1], [-3, 0], [1, 2], [0.5, 2.5], mode="region_restricted", **WORKED_MT4
        )
        assert rep.verdict == "hypotheses-unmet"
        assert any(c.name == "2.12.moment" and not c.ok for c in rep.hypotheses.checks)


class TestMc1:
    def test_worked_margin(self):
        rep = verify_mc1(SS, HALF, [-2, -1], [1, 2], c=0.0, inner=iv(-2, 2), interval=iv(-3, 3))
        assert rep.verdict == HOLDS and rep.margins == pytest.approx([0.5], abs=1e-12)

    def test_quadratic_identity_margin_zero(self):
        rep = verify_mc1(
            catalog("quadratic", 3), HALF, [-2, -1], [1, 2], c=0.0, inner=iv(-2, 2), interval=iv(-3, 3)
        )
        assert rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_identical_arguments(self):
        rep = verify_mc1(
            SS, HALF, [1.0, 2.0], [1.0, 2.0], c=0.0, inner=iv(-2, 2), interval=iv(-3, 3), mode="literal"
        )
        assert rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_variance_mismatch_raises(self):
        rep = verify_mc1(SS, HALF, [-2, -1], [0.5, 2.0], c=0.0, inner=iv(-2, 2), interval=iv(-3, 3))
        assert_unmet(rep, "2.17")

    def test_region_placement_enforced(self):
        rep = verify_mc1(SS, HALF, [-2, 0.5], [1, 2], c=0.0, inner=iv(-2, 2), interval=iv(-3, 3))
        assert_unmet(rep, "region.g1_left_of_c")


class TestMc2:
    def test_two_level_from_mc1_data(self):
        rep = verify_mc2(
            SS,
            [HALF, HALF],
            [[-1.5, -1.5], [-2.0, -1.0]],
            [[1.5, 1.5], [1.0, 2.0]],
            c=0.0,
            interval=iv(-3, 3),
            g_inners=[iv(-1.5, -1.5)],
            h_inners=[iv(1.5, 1.5)],
        )
        assert rep.verdict == HOLDS and rep.margins == pytest.approx([0.5], abs=1e-12)

    def test_identical_families_zero(self):
        rep = verify_mc2(
            SS,
            [HALF, HALF],
            [[1.5, 1.5], [1.0, 2.0]],
            [[1.5, 1.5], [1.0, 2.0]],
            c=0.0,
            interval=iv(-3, 3),
            g_inners=[iv(1.5, 1.5)],
            mode="literal",
        )
        assert rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_quadratic_margin_zero(self):
        rep = verify_mc2(
            catalog("quadratic", 2),
            [HALF, HALF],
            [[-1.5, -1.5], [-2.0, -1.0]],
            [[1.5, 1.5], [1.0, 2.0]],
            c=0.0,
            interval=iv(-3, 3),
            g_inners=[iv(-1.5, -1.5)],
            h_inners=[iv(1.5, 1.5)],
        )
        assert rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_moment_increment_mismatch(self):
        rep = verify_mc2(
            SS,
            [HALF, HALF],
            [[-1.5, -1.5], [-2.0, -1.0]],
            [[1.5, 1.5], [0.5, 2.5]],
            c=0.0,
            interval=iv(-3, 3),
            g_inners=[iv(-1.5, -1.5)],
            h_inners=[iv(1.5, 1.5)],
        )
        assert_unmet(rep, "2.20[1]")


class TestMc3:
    def test_split_replicates_mc1(self):
        rep = verify_mc3(
            SS,
            [[0.5, 0.0], [0.0, 0.5]],
            [[-2.0, -1.0], [-2.0, -1.0]],
            [[1.0, 2.0], [1.0, 2.0]],
            c=0.0,
            interval=iv(-3, 3),
        )
        assert rep.verdict == HOLDS and rep.details == {"inclusion": True}
        assert rep.margins == pytest.approx([0.5], abs=1e-12)

    def test_single_family_reduces_to_mc1(self):
        rep = verify_mc3(
            SS, [HALF], [[-2.0, -1.0]], [[1.0, 2.0]], c=0.0, interval=iv(-3, 3)
        )
        assert rep.details["inclusion"]
        plain = verify_mc1(SS, HALF, [-2, -1], [1, 2], c=0.0, inner=iv(-2, 2), interval=iv(-3, 3))
        assert rep.margins == pytest.approx(plain.margins, abs=1e-12)

    def test_quadratic_zero(self):
        rep = verify_mc3(
            catalog("quadratic", 2), [HALF], [[-2.0, -1.0]], [[1.0, 2.0]], c=0.0, interval=iv(-3, 3)
        )
        assert rep.details["inclusion"] and rep.margins == pytest.approx([0.0], abs=1e-12)

    def test_variance_mismatch(self):
        rep = verify_mc3(SS, [HALF], [[-2.0, -1.0]], [[0.5, 2.0]], c=0.0, interval=iv(-3, 3))
        assert_unmet(rep, "2.22")


class TestMt5:
    def test_singleton_families_match_mt4(self):
        rep = verify_mt5(
            SS,
            [HALF],
            [[-2.0, -1.0]],
            [HALF],
            [[-3.0, 0.0]],
            [HALF],
            [[1.0, 2.0]],
            [HALF],
            [[0.0, 3.0]],
            mode="region_restricted",
            **WORKED_MT4,
        )
        assert rep.verdict == "holds"
        assert (rep.gap_left, rep.gap_right) == pytest.approx((-2.0, 2.0), abs=1e-12)

    def test_identical_family_pairs_zero_margin(self):
        rep = verify_mt5(
            SS,
            [HALF],
            [[-2.0, -1.0]],
            [HALF],
            [[-3.0, 0.0]],
            [HALF],
            [[-2.0, -1.0]],
            [HALF],
            [[-3.0, 0.0]],
            c=0.0,
            interval=iv(-3, 3),
            inner=iv(-2, -1),
            mode="literal",
        )
        assert rep.verdict == "holds"
        assert rep.margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_margin_zero(self):
        rep = verify_mt5(
            catalog("quadratic", 2),
            [HALF],
            [[-2.0, -1.0]],
            [HALF],
            [[-3.0, 0.0]],
            [HALF],
            [[1.0, 2.0]],
            [HALF],
            [[0.0, 3.0]],
            mode="region_restricted",
            **WORKED_MT4,
        )
        assert rep.margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_total_mass_violation(self):
        rep = verify_mt5(
            SS,
            [[0.5, 0.4]],
            [[-2.0, -1.0]],
            [HALF],
            [[-3.0, 0.0]],
            [HALF],
            [[1.0, 2.0]],
            [HALF],
            [[0.0, 3.0]],
            mode="region_restricted",
            **WORKED_MT4,
        )
        assert rep.verdict == "hypotheses-unmet"
