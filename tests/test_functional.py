import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensengap.domain import (
    AffineConfig,
    CheckSet,
    IntervalR,
    StructureError,
    WeightedGroup,
    spread,
)
from jensengap.funclib import TabulatedFunction, catalog, fn_spec_from_string, tabulated_model
from jensengap.functional import (
    DiscreteFunctional,
    FunctionOnOmega,
    apply,
    apply_fn,
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
from jensengap.scenario import THEOREMS, model_from_spec, run_payload
from jensengap.scengen import GenSpec, gen_payload

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

    def test_sums_past_float_range_are_input_errors(self):
        with pytest.raises(StructureError, match=r"weighted sum L\(u\) past the float range"):
            apply([1.0, 1.0], [1e308, 1.7e308])
        near_max = tabulated_model(TabulatedFunction((0.0, 1.0), (1e308, 1.7e308)))
        with pytest.raises(StructureError, match=r"L\(f\(u\)\) past the float range"):
            apply_fn([1.0, 1.0], near_max, [0.0, 1.0])
        assert apply_fn([0.5, 0.5], near_max, [0.0, 1.0]) == pytest.approx(1.35e308)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_products_are_input_errors(self, sign):
        # finite weights and values whose products leave the float range:
        # both +inf, or +inf and -inf
        with pytest.raises(StructureError, match=r"weighted sum L\(u\) past the float range"):
            apply([1e300, 1e300], [1e10, sign * 1e10])
        with pytest.raises(StructureError, match=r"L\(f\(u\)\) past the float range"):
            apply_fn([1e300, 1e300], catalog("cubic"), [1e4, sign * 1e4])

    def test_infinite_weights_keep_an_infinite_sum(self):
        assert apply([math.inf, 0.5], [1.0, 2.0]) == math.inf
        assert apply_fn([math.inf, 0.5], catalog("cubic"), [1.0, 2.0]) == math.inf

    def test_negative_weight_rejected(self):
        with pytest.raises(StructureError):
            DiscreteFunctional((-0.1, 1.1))

    def test_unital_flag(self):
        cs = CheckSet()
        assert cs.unit_total("unital.L", DiscreteFunctional((0.25, 0.75)).total)
        assert not cs.unit_total("unital.L", DiscreteFunctional((0.25, 0.5)).total)

    def test_unital_apply_stays_in_range(self):
        u = FunctionOnOmega((-3.0, 1.0, 2.5))
        value = apply([0.2, 0.5, 0.3], u)
        assert min(u.values) <= value <= max(u.values)


def it2_checks(g, h):
    """Name -> ok of every hypothesis check of an it2 scenario with HALF weights."""
    rep = verify_it2(Q2, HALF, g, HALF, h, inner=iv(-1, 1), interval=iv(-3, 3))
    return {c.name: c.ok for c in rep.hypotheses.checks}


class TestIt2Ranges:
    """h lies in the outer interval but outside the open inner one; g lies in
    the closed inner interval."""

    def test_h_on_closed_inner_endpoint_passes(self):
        checks = it2_checks([0.5, 0.5], [-1.0, 2.0])
        assert checks["range.h"] and checks["range.h_outer"] and all(checks.values())

    def test_h_strictly_inside_inner_fails(self):
        checks = it2_checks([0.5, 0.5], [0.5, 2.0])
        assert not checks["range.h"] and checks["range.h_outer"]

    def test_h_beyond_outer_fails(self):
        checks = it2_checks([0.5, 0.5], [-3.5, 4.5])
        assert not checks["range.h_outer"] and checks["range.h"]

    def test_g_inside_inner(self):
        assert it2_checks([0.2, 0.8], [-1.0, 2.0])["range.g"]
        assert not it2_checks([0.2, 1.5], [-1.0, 2.7])["range.g"]


#: (theorem, mode, field, check): moving the low end of the interval ``field``
#: (the last rung of a ladder) 0.5 below the interval's fails ``check`` by 0.5
CONTAINMENT_CASES = [
    ("it2", "standard", "inner", "inner_in_interval"),
    ("it3", "standard", "inner", "inner_in_interval"),
    ("mt4", "literal", "inner", "inner_in_interval"),
    ("mt4", "region_restricted", "inner", "region.inner1"),
    ("ic2", "standard", "inners", "nesting.g[outer]"),
    ("mc2", "literal", "g_inners", "nesting.g[outer]"),
    ("mc2", "region_restricted", "g_inners", "nesting.g[outer]"),
]


@pytest.mark.parametrize("theorem, mode, field, check", CONTAINMENT_CASES)
def test_inner_must_sit_in_interval(theorem, mode, field, check):
    """A failing containment check reports how far out the inner interval is."""
    payload = gen_payload(GenSpec(seed=1), theorem, mode)
    inner = payload[field][-1] if field.endswith("s") else payload[field]
    inner[0] = payload["interval"][0] - 0.5
    f = model_from_spec(fn_spec_from_string(THEOREMS[theorem].default_fn[mode]))
    checks = {c["name"]: c for c in run_payload(theorem, mode, f, payload)["hypotheses"]}
    assert checks[check]["ok"] is False
    assert checks[check]["residual"] == 0.5


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

        lin = FunctionModel(
            "line", iv(-10, 10), lambda x: 2 * x - 1,
            lambda x: 0.0, lambda x: 0.0, lambda lo, hi: (0.0, 0.0),
        )
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

        lin = FunctionModel(
            "line", iv(-10, 10), lambda x: -x + 4,
            lambda x: 0.0, lambda x: 0.0, lambda lo, hi: (0.0, 0.0),
        )
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
        assert rep.values["gap_left"] == pytest.approx(-2.0, abs=1e-12)
        assert rep.values["gap_right"] == pytest.approx(2.0, abs=1e-12)
        assert rep.chain == pytest.approx((-2.0, 0.0, 0.0, 2.0), abs=1e-12)
        spreads = (rep.values["spread_left"], rep.values["spread_right"])
        assert spreads == pytest.approx((2.0, 2.0))

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


#: g1's top value lies 5e-7 right of c = 1000; g2 is g1 moved right by 2
FAR_G1, FAR_G2 = [999.0, 1000.0000005], [1001.0, 1002.0000005]


@pytest.mark.parametrize(
    "verify",
    [
        lambda: verify_mc1(SS, HALF, FAR_G1, FAR_G2, c=1000.0, inner=iv(0, 2000), interval=iv(0, 2000)),
        lambda: verify_mc3(SS, [HALF], [FAR_G1], [FAR_G2], c=1000.0, interval=iv(0, 2000)),
    ],
    ids=["mc1", "mc3"],
)
def test_left_of_c_is_absolute_far_from_0(verify):
    """"Left of c" is within the absolute tol, as for mt1's 2.2, the mt4/mt5
    halves and the mc2 ladders: 5e-7 right of c = 1000 is not left of it,
    though tol * |c| = 1e-6 would let it pass."""
    assert_unmet(verify(), "region.g1_left_of_c")


def test_spread_and_mc1_form_the_same_second_moment():
    """The second moment inside ``spread`` and the one verify_mc1 matches are
    formed alike, bit for bit, also at points where libm's x ** 2.0 rounds
    otherwise than x * x.  With g2 constant, 2.17's residual is g1's variance."""
    rng = random.Random(1)
    xs = [rng.uniform(-1e6, 1e6) for _ in range(20000)]
    points = [x for x in xs if x ** 2.0 != x * x] + xs[:20]
    for x, y in zip(points[::2], points[1::2]):
        s = spread(AffineConfig(WeightedGroup([x], [0.5]), WeightedGroup([y], [0.5])))
        rep = verify_mc1(Q2, HALF, [x, y], [0.0, 0.0], c=0.0, inner=iv(-1e6, 1e6), mode="literal")
        residual = {c.name: c.residual for c in rep.hypotheses.checks}["2.17"]
        assert residual == abs(s), (x, y)


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
        gaps = (rep.values["gap_left"], rep.values["gap_right"])
        assert gaps == pytest.approx((-2.0, 2.0), abs=1e-12)

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


#: split-point verifier -> a call of it, from the worked examples above: the
#: positional arguments and the keywords, c and the interval included
SPLIT_CALLS = {
    "mt4": (verify_mt4, (SS, HALF, HALF, [-2, -1], [-3, 0], [1, 2], [0, 3]), WORKED_MT4),
    "mt5": (
        verify_mt5,
        (SS, [HALF], [[-2.0, -1.0]], [HALF], [[-3.0, 0.0]],
         [HALF], [[1.0, 2.0]], [HALF], [[0.0, 3.0]]),
        WORKED_MT4,
    ),
    "mc1": (
        verify_mc1, (SS, HALF, [-2, -1], [1, 2]), dict(c=0.0, inner=iv(-2, 2), interval=iv(-3, 3))
    ),
    "mc2": (
        verify_mc2,
        (SS, [HALF, HALF], [[-1.5, -1.5], [-2.0, -1.0]], [[1.5, 1.5], [1.0, 2.0]]),
        dict(c=0.0, interval=iv(-3, 3), g_inners=[iv(-1.5, -1.5)], h_inners=[iv(1.5, 1.5)]),
    ),
    "mc3": (
        verify_mc3, (SS, [HALF], [[-2.0, -1.0]], [[1.0, 2.0]]), dict(c=0.0, interval=iv(-3, 3))
    ),
}


class TestSplitPointRule:
    """Every split-point verifier reads its mode and c by one rule: an unknown
    mode, or a c outside the closed interval, is an input error."""

    @pytest.mark.parametrize("theorem", sorted(SPLIT_CALLS))
    def test_unknown_mode(self, theorem):
        verifier, args, kwargs = SPLIT_CALLS[theorem]
        with pytest.raises(StructureError, match="^unknown mode 'sideways'$"):
            verifier(*args, **kwargs, mode="sideways")

    @pytest.mark.parametrize("mode", ["region_restricted", "literal"])
    @pytest.mark.parametrize("c", [-3.5, 5.0])
    @pytest.mark.parametrize("theorem", sorted(SPLIT_CALLS))
    def test_split_point_outside_the_interval(self, theorem, c, mode):
        verifier, args, kwargs = SPLIT_CALLS[theorem]
        with pytest.raises(StructureError, match="^split point must lie in the interval$"):
            verifier(*args, **{**kwargs, "c": c}, mode=mode)

    @pytest.mark.parametrize("c", [-3.0, 3.0])
    @pytest.mark.parametrize("theorem", sorted(SPLIT_CALLS))
    def test_split_point_at_an_end_is_read(self, theorem, c):
        verifier, args, kwargs = SPLIT_CALLS[theorem]
        assert verifier(*args, **{**kwargs, "c": c}, mode="literal").verdict in (HOLDS, UNMET)

    def test_mc1_reads_c_against_inner_without_an_interval(self):
        verifier, args, kwargs = SPLIT_CALLS["mc1"]
        with pytest.raises(StructureError, match="split point"):
            verifier(*args, **{**kwargs, "c": 2.5, "interval": None})


#: mt4's check names, in report order, for each mode
MT4_CHECKS = {
    mode: ["unital.L", "unital.H", *middle, "range.g1", "range.h1_outer", "range.h1", "range.g2",
           "range.h2_outer", "range.h2", "2.12.mean1", "2.12.mean2", "2.12.moment", "witness.K1c"]
    for mode, middle in (
        ("literal", ["inner_in_interval"]),
        ("region_restricted", ["region.inner1", "region.inner2"]),
    )
}
#: mt4 check name -> name of the same check in the report of the singleton mt5 lift
MT4_TO_MT5 = {
    "unital.L": "totals.L",
    "unital.H": "totals.H",
    "range.g2": "range.g*1",
    "range.h2_outer": "range.h*1_outer",
    "range.h2": "range.h*1",
    "2.12.mean1": "2.25.1",
    "2.12.mean2": "2.25.2",
    "2.12.moment": "2.26",
}
MT4_MUTATIONS = ("unital.H", "region.inner1", "range.h2", "2.12.mean2", "2.12.moment")


def mutate_mt4(payload: dict, check: str) -> dict:
    """A copy of an mt4 payload edited so that ``check`` fails."""
    p = copy.deepcopy(payload)
    if check == "unital.H":
        p["H"][0] *= 1.1
    elif check == "region.inner1":  # past the interval's low end: inner_in_interval when literal
        p["inner"] = [p["interval"][0] - 0.5, p["inner"][1]]
    elif check == "range.h2":
        p["h2"] = list(p["g2"])  # inside the open inner interval
    elif check == "2.12.mean2":
        p["h2"] = [x + 1e-3 for x in p["h2"]]
    elif check == "2.12.moment":  # shrink g2 about its mean: same mean, smaller moment
        m = apply(p["L"], p["g2"])
        p["g2"] = [m + 0.5 * (x - m) for x in p["g2"]]
    elif check == "length":
        p["g1"].pop()
    return p


def lift_mt4(payload: dict) -> dict:
    """The mt5 payload with singleton families that share mt4's L and H."""
    lifted = {k: payload[k] for k in ("interval", "c", "inner", "inner2", "A") if k in payload}
    L, H = payload["L"], payload["H"]
    lifted.update(Ls=[L], Hs=[H], Ls_star=[L], Hs_star=[H])
    for key, field in (("gs", "g1"), ("hs", "h1"), ("gs_star", "g2"), ("hs_star", "h2")):
        lifted[key] = [payload[field]]
    return lifted


class TestMt4SharesMt5:
    """mt4 runs through the mt5 code with singleton families, and reports
    under its own check names."""

    @pytest.mark.parametrize("check", MT4_MUTATIONS)
    @pytest.mark.parametrize("mode", ["region_restricted", "literal"])
    def test_unmet_report_lists_mt4_names(self, mode, check):
        payload = mutate_mt4(gen_payload(GenSpec(seed=5), "mt4", mode), check)
        report = run_payload("mt4", mode, SS, payload)
        assert report["verdict"] == UNMET
        names = [c["name"] for c in report["hypotheses"]]
        assert names == MT4_CHECKS[mode]
        assert not any(n.startswith("totals.") or "*" in n for n in names)
        failed = {c["name"]: c["residual"] for c in report["hypotheses"] if not c["ok"]}
        assert failed[check if check in names else "inner_in_interval"] > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        mode=st.sampled_from(["region_restricted", "literal"]),
        fn=st.sampled_from(["signed_square", "quadratic:2", "cubic", "exp"]),
        interval=st.sampled_from([(-1.0, 1.0, 0.0), (-3.0, 5.0, 0.5), (-1e3, 1e3, 10.0)]),
        mutation=st.sampled_from([None, "A", "length", *MT4_MUTATIONS]),
    )
    def test_singleton_lift_reports_the_same(self, seed, mode, fn, interval, mutation):
        lo, hi, c = interval
        payload = gen_payload(GenSpec(seed=seed, interval=iv(lo, hi), c=c), "mt4", mode)
        if mutation == "A":
            payload["A"] = 0.0
        elif mutation:
            payload = mutate_mt4(payload, mutation)
        f = model_from_spec(fn_spec_from_string(fn))
        try:
            mt4 = run_payload("mt4", mode, f, payload)
        except ValueError as err:  # StructureError, or DomainError outside exp's domain
            with pytest.raises(type(err)) as lifted_err:
                run_payload("mt5", mode, f, lift_mt4(payload))
            assert str(lifted_err.value) == str(err)
            return
        mt5 = run_payload("mt5", mode, f, lift_mt4(payload))
        for key in ("verdict", "margins", "margin", "chain", "values", "details"):
            assert mt5[key] == mt4[key], key
        renamed = [{**c, "name": MT4_TO_MT5.get(c["name"], c["name"])} for c in mt4["hypotheses"]]
        checks = {c["name"]: c for c in mt5["hypotheses"]}
        for star in ("L", "H"):
            assert checks[f"totals.{star}*"]["residual"] == checks[f"totals.{star}"]["residual"]
        unstarred = [c for c in mt5["hypotheses"] if c["name"] not in ("totals.L*", "totals.H*")]
        assert unstarred == renamed
        if mutation == "region.inner1":
            name = "region.inner1" if mode == "region_restricted" else "inner_in_interval"
            assert checks[name]["residual"] == lo - payload["inner"][0] > 0.0
