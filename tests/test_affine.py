import copy
import math
import random
import re

import pytest

import oracles
from jensengap import affine
from jensengap.cli import main
from jensengap.affine import (
    Mt1Scenario,
    jensen_affine_gap,
    verify_mt1,
    verify_mt2,
    verify_mt3,
)
from jensengap.domain import (
    EPS_EQ,
    AffineConfig,
    IntervalR,
    StructureError,
    WeightedGroup,
    spread,
    validate_affine_config,
)
from jensengap.funclib import DomainError, FunctionModel, catalog, negate
from jensengap.scenario import (
    THEOREMS,
    config_from,
    config_to,
    dumps,
    fn_spec_from_string,
    make_scenario,
    model_from_spec,
    run_payload,
)
from jensengap.scengen import GenSpec, gen_payload, gen_two_sided_scenario

I11 = IntervalR(-1.0, 1.0)


def cfg(a, wa, b, wb, c=(), wc=()):
    return AffineConfig(WeightedGroup(a, wa), WeightedGroup(b, wb), WeightedGroup(c, wc))


def two_point_side(x, y):
    return cfg((x,), (0.5,), (y,), (0.5,))


MIRRORED = Mt1Scenario(two_point_side(-1.0, 0.0), two_point_side(0.0, 1.0), 0.0, I11)


class TestJensenAffineGap:
    def test_square_equals_spread(self):
        c = cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.2,))
        assert jensen_affine_gap(catalog("quadratic", 2), c) == pytest.approx(1.2)

    def test_affine_function_gives_zero(self):
        lin = FunctionModel(
            "line", IntervalR(-10, 10), lambda x: 3 * x + 1,
            lambda x: 0.0, lambda x: 0.0, lambda lo, hi: (0.0, 0.0),
        )
        c = cfg((0,), (0.6,), (2,), (0.6,), (1,), (0.2,))
        assert jensen_affine_gap(lin, c) == pytest.approx(0.0, abs=1e-12)

    def test_convex_pair(self):
        c = cfg((0,), (0.5,), (2,), (0.5,))
        assert jensen_affine_gap(catalog("quadratic", 2), c) == pytest.approx(1.0)

    def test_invalid_config_is_measured_not_judged(self):
        # the minus point 5 leaves the hull [0, 2] of the barycenters: the gap
        # still computes (for x^2 it is the spread), and the verifier judges
        # the hull hypothesis unmet
        bad = cfg((0,), (0.6,), (2,), (0.6,), (5,), (0.2,))
        gap = jensen_affine_gap(catalog("quadratic", 2), bad)
        assert gap == pytest.approx(spread(bad)) and gap == pytest.approx(-2.64)
        s = Mt1Scenario(bad, two_point_side(6.0, 7.0), 5.5, IntervalR(-10.0, 10.0))
        report = verify_mt1(catalog("quadratic", 2), s)
        assert report.verdict == "hypotheses-unmet"
        assert "left.hull" in dict(report.hypotheses.violations)


class TestValidateOnce:
    """mt1-mt3 record each side's invariants once, straight into the
    verifier's checks; the gaps reuse that result."""

    @pytest.mark.parametrize(
        "verify, f",
        [
            (verify_mt1, catalog("signed_square")),
            (verify_mt2, catalog("signed_square")),
            (verify_mt3, negate(catalog("signed_square"))),
        ],
    )
    def test_each_side_recorded_once(self, monkeypatch, verify, f):
        prefixes = []
        real = affine.record_affine_config
        monkeypatch.setattr(
            affine, "record_affine_config",
            lambda cs, prefix, cfg: prefixes.append(prefix) or real(cs, prefix, cfg),
        )
        monkeypatch.setattr(affine, "validate_affine_config", None)
        report = verify(f, MIRRORED)
        assert report.verdict == "holds"
        assert prefixes == ["left.", "right."]
        names = [c.name for c in report.hypotheses.checks]
        assert len(names) == len(set(names))
        for prefix, side in zip(prefixes, (MIRRORED.left, MIRRORED.right)):
            side_names = [prefix + c.name for c in validate_affine_config(side).checks]
            assert [n for n in names if n.startswith(prefix) and "in_interval" not in n] == (
                side_names
            )


def mt1_hypotheses(s):
    """verify_mt1's hypothesis checks: the side validity, separation ("2.2")
    and spread-equality ("2.1") checks, then "witness.K1c" once they pass."""
    return verify_mt1(catalog("signed_square"), s).hypotheses


class TestMt1Hypotheses:
    def test_mirrored_scenario_passes(self):
        report = mt1_hypotheses(MIRRORED)
        assert report.ok
        sl = spread(MIRRORED.left)
        assert sl == pytest.approx(0.25) and sl == pytest.approx(spread(MIRRORED.right))

    def test_spread_mismatch_recorded(self):
        s = Mt1Scenario(two_point_side(-1.0, 0.0), two_point_side(0.0, 0.4), 0.0, I11)
        report = mt1_hypotheses(s)
        bad = dict(report.violations)
        assert "2.1" in bad
        assert bad["2.1"] == pytest.approx(0.25 - 0.04)

    def test_separation_violation(self):
        s = Mt1Scenario(two_point_side(-1.0, 0.0), two_point_side(-0.2, 1.0), 0.0, I11)
        report = mt1_hypotheses(s)
        assert any(name == "2.2" for name, _ in report.violations)


class TestVerifyMt1:
    def test_signed_square_chain(self):
        rep = verify_mt1(catalog("signed_square"), MIRRORED)
        assert rep.verdict == "holds"
        assert rep.chain == pytest.approx((-0.25, 0.0, 0.0, 0.25), abs=1e-12)

    def test_quadratic_all_margins_zero(self):
        rep = verify_mt1(catalog("quadratic", 2), MIRRORED)
        assert rep.verdict == "holds"
        assert max(abs(m) for m in rep.margins) <= 1e-12

    def test_cubic_chain(self):
        rep = verify_mt1(catalog("cubic"), MIRRORED)
        assert rep.verdict == "holds"
        assert rep.values["gap_left"] == pytest.approx(-0.375)
        assert rep.values["gap_right"] == pytest.approx(0.375)

    def test_certified_constant_used_when_omitted(self):
        rep = verify_mt1(catalog("signed_square"), MIRRORED)
        assert rep.verdict == "holds" and rep.details["A"] == 0.0

    def test_unmet_on_spread_mismatch(self):
        s = Mt1Scenario(two_point_side(-1.0, 0.0), two_point_side(0.0, 0.4), 0.0, I11)
        rep = verify_mt1(catalog("signed_square"), s)
        assert rep.verdict == "hypotheses-unmet"

    def test_literal_alpha_reading(self):
        # differing weights across sides, spreads matched exactly
        y = 2 * math.sqrt(0.21)
        left = cfg((-1.0,), (0.3,), (0.0,), (0.7,))
        right = cfg((0.0,), (0.5,), (y,), (0.5,))
        s = Mt1Scenario(left, right, 0.0, I11)
        matched = verify_mt1(catalog("signed_square"), s)
        literal = verify_mt1(catalog("signed_square"), s, mode="literal_alpha")
        assert matched.details["weight_reading"] == "matched"
        assert literal.details["weight_reading"] == "literal_alpha"
        assert abs(matched.values["gap_right"] - literal.values["gap_right"]) > 1e-3
        # equal weights on both sides make the two readings coincide
        mirrored_literal = verify_mt1(
            catalog("signed_square"), MIRRORED, mode="literal_alpha"
        )
        assert mirrored_literal.chain == pytest.approx((-0.25, 0.0, 0.0, 0.25), abs=1e-12)

    def test_agrees_with_bruteforce_oracle(self):
        rep = verify_mt1(catalog("signed_square"), MIRRORED)
        f = lambda x: x * abs(x)
        left = config_to(MIRRORED.left)
        right = config_to(MIRRORED.right)
        assert rep.values["gap_left"] == pytest.approx(oracles.cfg_gap(f, left), abs=1e-12)
        assert rep.values["gap_right"] == pytest.approx(oracles.cfg_gap(f, right), abs=1e-12)
        oracle_holds = (
            oracles.cfg_gap(f, left) <= 1e-9 + 0.0 <= oracles.cfg_gap(f, right) + 1e-9
        )
        assert (rep.verdict == "holds") == oracle_holds


def scenario_with_spreads(left_pts, right_pts):
    return Mt1Scenario(two_point_side(*left_pts), two_point_side(*right_pts), 0.0, I11)


#: certified catalog models, each also negated below
CERTIFIED = ("quadratic:2", "quadratic:-3", "cubic", "signed_square", "exp")


def _certified_model(name, negated):
    f = catalog(*name.split(":"))
    return negate(f) if negated else f


def _witness_cases(f, c):
    """(theorem, details, A, whether the certified rule applies) for branches
    a and b of mt2 and mt3 on generated scenarios split at c."""
    A = 0.5 * (f.d2_minus(c) + f.d2_plus(c))
    d2_lo, d2_hi = f.d2_plus(I11.lo), f.d2_minus(I11.hi)
    for theorem, verify in (("mt2", verify_mt2), ("mt3", verify_mt3)):
        shaped = d2_lo <= d2_hi if theorem == "mt2" else d2_lo >= d2_hi
        for ratio in (0.5, 2.0):
            for seed in range(4):
                s = gen_two_sided_scenario(GenSpec(seed=seed, c=c), random.Random(seed), ratio)
                for branch in ("a", "b"):
                    d = verify(f, s, mode=branch).details
                    nonneg = (branch == "a") == (theorem == "mt2")
                    applies = (
                        d.get("branch") == branch
                        and d["max_left"] - EPS_EQ <= c <= d["min_right"] + EPS_EQ
                        and shaped
                        and (A >= -EPS_EQ if nonneg else A <= EPS_EQ)
                    )
                    yield theorem, d, A, applies


class TestCertifiedWitness:
    """Branches a and b of mt2 and mt3 take A from the monotone-f'' certificate
    at c whenever its rule applies: c between the side extremes, f 3-convex
    (mt2) or 3-concave (mt3) on the interval, and A of the branch's sign."""

    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("name", CERTIFIED)
    @pytest.mark.parametrize("c", [0.0, 0.3, -0.5])
    def test_A_is_the_certified_midpoint(self, name, negated, c):
        for theorem, d, A, applies in _witness_cases(_certified_model(name, negated), c):
            if applies:
                assert d["A"] == A, (theorem, d)

    def test_the_rule_applies_on_both_theorems(self):
        applied = {
            theorem
            for name in CERTIFIED
            for negated in (False, True)
            for c in (0.0, 0.3, -0.5)
            for theorem, _, _, applies in _witness_cases(_certified_model(name, negated), c)
            if applies
        }
        assert applied == {"mt2", "mt3"}


class TestVerifyMt2:
    def test_exp_branch_a(self):
        # left extreme -0.2, right extreme 0.2; spreads 0.01 <= 0.04
        s = scenario_with_spreads((-0.4, -0.2), (0.2, 0.6))
        rep = verify_mt2(catalog("exp"), s)
        assert rep.verdict == "holds"
        assert rep.details["branch"] == "a"
        assert rep.details["A"] == pytest.approx(1.0)
        assert min(rep.margins) >= -1e-9

    def test_signed_square_branch_c(self):
        rep = verify_mt2(catalog("signed_square"), MIRRORED)
        assert rep.verdict == "holds"
        assert rep.details["branch"] == "c"
        assert rep.details["A"] == 0.0
        assert rep.chain == pytest.approx((-0.25, 0.0, 0.0, 0.25), abs=1e-12)

    def test_branch_b_with_negative_curvature(self):
        # f'' = -exp(-x) < 0 and increasing: 3-convex with A = -exp(-c)
        f = FunctionModel(
            "neg-exp-reflection",
            IntervalR(-5, 5),
            lambda x: -math.exp(-x),
            d2_minus=lambda x: -math.exp(-x),
            d2_plus=lambda x: -math.exp(-x),
            d2_certificate=lambda lo, hi: (-math.exp(-lo), -math.exp(-hi)),
        )
        s = scenario_with_spreads((-0.6, -0.2), (0.2, 0.4))  # spreads 0.04 >= 0.01
        rep = verify_mt2(f, s, mode="b")
        assert rep.verdict == "holds"
        assert rep.details["A"] == -1.0

    def test_nan_certificate_gives_no_witness(self):
        # every K end is NaN: no constant lies in K, so there is no witness
        # and the verdict is unmet, not a chain at the clamped midpoint 0
        f = FunctionModel(
            "nan-certificate",
            IntervalR(-5, 5),
            lambda x: x * x,
            d2_minus=lambda x: 2.0,
            d2_plus=lambda x: 2.0,
            d2_certificate=lambda lo, hi: (math.nan, math.nan),
        )
        s = scenario_with_spreads((-0.4, -0.2), (0.2, 0.6))  # spreads 0.01 <= 0.04
        rep = verify_mt2(f, s, mode="a")
        assert rep.hypotheses.violations == (("witness.K1c", 0.0),)
        assert rep.verdict == "hypotheses-unmet"

    def test_requested_branch_gate_failure_is_unmet(self):
        rep = verify_mt2(catalog("signed_square"), MIRRORED, mode="a")
        assert rep.verdict == "hypotheses-unmet"

    def test_spread_order_violation_never_fails(self):
        # spreads 0.04 > 0.01 break the branch-a ordering for exp
        s = scenario_with_spreads((-0.6, -0.2), (0.2, 0.4))
        for branch in ("a", "auto"):
            rep = verify_mt2(catalog("exp"), s, mode=branch)
            assert rep.verdict == "hypotheses-unmet"

    def test_ordering_violation_is_unmet(self):
        s = Mt1Scenario(two_point_side(-0.5, 0.3), two_point_side(0.1, 0.8), 0.0, I11)
        rep = verify_mt2(catalog("exp"), s)
        assert rep.verdict == "hypotheses-unmet"
        assert any(name == "2.8" for name, _ in rep.hypotheses.violations)


class TestVerifyMt3:
    def test_negated_signed_square_chain(self):
        rep = verify_mt3(negate(catalog("signed_square")), MIRRORED)
        assert rep.verdict == "holds"
        assert rep.details["branch"] == "c"
        assert rep.chain == pytest.approx((0.25, 0.0, 0.0, -0.25), abs=1e-12)

    def test_quadratic_matched_spreads(self):
        rep = verify_mt3(catalog("quadratic", 2), MIRRORED)
        assert rep.verdict == "holds"
        assert max(abs(m) for m in rep.margins) <= 1e-12

    def test_signed_square_is_unmet(self):
        rep = verify_mt3(catalog("signed_square"), MIRRORED)
        assert rep.verdict == "hypotheses-unmet"

    def test_printed_c_convention_rejects_concave_case(self):
        rep = verify_mt3(
            negate(catalog("signed_square")), MIRRORED, mode="c", c_convention="printed"
        )
        assert rep.verdict == "hypotheses-unmet"
        assert rep.details["c_convention"] == "printed"

    def test_stated_branch_a_ordering_can_fail_midchain(self):
        # 3-concave with A = -1; the stated gate admits spread_left > spread_right,
        # under which the middle ordering (A/2)*sl >= (A/2)*sr is genuinely false.
        f = negate(catalog("exp"))
        s = scenario_with_spreads((-0.8, -0.2), (0.2, 0.4))  # spreads 0.09 > 0.01
        rep = verify_mt3(f, s, mode="a")
        assert rep.verdict == "fails"
        assert rep.margins[1] < -1e-9  # middle link is the broken one
        assert rep.margins[0] >= -1e-9 and rep.margins[2] >= -1e-9

    def test_sandwich_orientations_recorded(self):
        rep = verify_mt3(negate(catalog("exp")), MIRRORED, mode="a")
        assert "sandwich_descending_ok" in rep.details
        assert "sandwich_ascending_ok" in rep.details

    def test_branch_b_with_positive_decreasing_curvature(self):
        # f'' = exp(-x) > 0 and decreasing: 3-concave with A = exp(-c) = 1
        f = FunctionModel(
            "exp-reflection",
            IntervalR(-5, 5),
            lambda x: math.exp(-x),
            d2_minus=lambda x: math.exp(-x),
            d2_plus=lambda x: math.exp(-x),
            d2_certificate=lambda lo, hi: (math.exp(-lo), math.exp(-hi)),
        )
        rep = verify_mt3(f, MIRRORED, mode="b")  # spreads 0.25 <= 0.25
        assert rep.verdict == "holds"
        assert rep.details["branch"] == "b"
        assert rep.details["A"] == 1.0
        checks = {c.name: c.ok for c in rep.hypotheses.checks}
        assert checks["branch.b"] and checks["witness.K2c"]
        assert "branch.a" not in checks and "witness.K1c" not in checks
        assert rep.margins[0] > 0.0 and rep.margins[2] > 0.0

    def test_printed_c_convention_accepts_upward_straddle(self):
        # f'' jumps from -2e-12 up to 2e-12 at 0: an upward straddle, and
        # 3-concave within tolerance
        def d2_minus(x):
            return -2e-12 if x <= 0.0 else 2e-12

        def d2_plus(x):
            return -2e-12 if x < 0.0 else 2e-12

        f = FunctionModel(
            "tiny-signed-square",
            IntervalR(-5, 5),
            lambda x: 1e-12 * x * abs(x),
            d2_minus=d2_minus,
            d2_plus=d2_plus,
            d2_certificate=lambda lo, hi: (d2_plus(lo), d2_minus(hi)),
        )
        printed = verify_mt3(f, MIRRORED, mode="c", c_convention="printed")
        assert printed.verdict == "holds"
        assert printed.details["branch"] == "c"
        assert printed.details["c_convention"] == "printed"
        assert printed.details["A"] == 0.0
        mirrored = verify_mt3(f, MIRRORED, mode="c")
        assert mirrored.verdict == "hypotheses-unmet"
        assert mirrored.details["c_convention"] == "mirrored"


class TestHugeCurvature:
    """The witness constant is 0.5 a + 0.5 b, which stays finite for a and b
    near the float maximum, where 0.5 (a + b) overflows."""

    @pytest.mark.parametrize("theorem, verify, q", [("mt2", verify_mt2, -1e308),
                                                    ("mt3", verify_mt3, 1e308)])
    def test_constant_stays_finite(self, theorem, verify, q):
        # branch b of `gen --seed 0`, with f = q x^2 / 2
        payload = gen_payload(GenSpec(seed=0), theorem, "b", random.Random(0))
        s = Mt1Scenario(config_from(payload["left"]), config_from(payload["right"]), 0.0, I11)
        rep = verify(catalog("quadratic", q), s, mode="b")
        assert rep.details["A"] == q
        assert all(map(math.isfinite, rep.margins))


class TestNanPoints:
    """A NaN point is an input error naming its side at every position, not
    only as its side's first point, where min and max see it."""

    @pytest.mark.parametrize("sizes", [(2, 2, 0), (2, 2, 1)])
    @pytest.mark.parametrize(
        "theorem, mode", [(t, m) for t in ("mt1", "mt2", "mt3") for m in THEOREMS[t].modes]
    )
    def test_nan_at_every_position(self, theorem, mode, sizes):
        payload = gen_payload(GenSpec(seed=1, sizes=sizes), theorem, mode, random.Random(1))
        f = model_from_spec(fn_spec_from_string(THEOREMS[theorem].default_fn[mode]))
        positions = [
            (side, group, k)
            for side in ("left", "right")
            for group in ("plus_a", "plus_b", "minus_c")
            for k in range(len(payload[side][group]["points"]))
        ]
        assert len(positions) == 2 * sum(sizes)
        for side, group, k in positions:
            doc = copy.deepcopy(payload)
            doc[side][group]["points"][k] = math.nan
            message = f"{f.name}: {side} points [nan, nan] outside domain "
            with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
                run_payload(theorem, mode, f, doc)


def _affine_doc(theorem, mode, **payload_fields):
    """A generated document of an affine theorem id, with its mode and
    payload fields overridden after generation."""
    payload = gen_payload(GenSpec(seed=1), theorem, "auto", random.Random(1))
    payload.update(payload_fields)
    doc = make_scenario(theorem, "auto", fn_spec_from_string("quadratic:2"), payload, seed=1)
    doc["mode"] = mode
    return doc


class TestUnknownOptions:
    """An unknown mode (mt2's and mt3's branch) or c_convention is a
    StructureError; the mode is checked first.  `check` reports either as
    one error line and exit 1."""

    @pytest.mark.parametrize("verify", [verify_mt2, verify_mt3])
    def test_unknown_branch(self, verify):
        with pytest.raises(StructureError, match="^unknown mode 'd'$"):
            verify(catalog("quadratic", 2), MIRRORED, mode="d")

    def test_unknown_c_convention(self):
        with pytest.raises(StructureError, match="unknown c_convention 'upward'"):
            verify_mt3(catalog("quadratic", 2), MIRRORED, c_convention="upward")

    def test_branch_is_checked_before_c_convention(self):
        with pytest.raises(StructureError, match="unknown mode"):
            verify_mt3(catalog("quadratic", 2), MIRRORED, mode="d", c_convention="upward")

    @pytest.mark.parametrize(
        "doc",
        [
            _affine_doc("mt2", "d"),
            _affine_doc("mt3", "d"),
            _affine_doc("mt3", "auto", c_convention="upward"),
        ],
        ids=["mt2-branch", "mt3-branch", "mt3-c_convention"],
    )
    def test_check_exits_1_with_one_error_line(self, tmp_path, capsys, doc):
        path = tmp_path / "doc.json"
        path.write_text(dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("jensengap: error:")
        assert captured.err.count("\n") == 1


class TestTranslationInvariance:
    def test_margins_shift_free(self):
        base = verify_mt1(catalog("signed_square"), MIRRORED)
        t = 7.5
        shifted_f = FunctionModel(
            "shifted-signed-square",
            IntervalR(-1e6, 1e6),
            lambda x: (x - t) * abs(x - t),
            d2_minus=lambda x: -2.0 if x <= t else 2.0,
            d2_plus=lambda x: -2.0 if x < t else 2.0,
            d2_certificate=lambda lo, hi: (-2.0 if lo < t else 2.0, -2.0 if hi <= t else 2.0),
        )

        def shift_cfg(c):
            def mv(g):
                return WeightedGroup(tuple(p + t for p in g.points), g.weights)

            return AffineConfig(mv(c.plus_a), mv(c.plus_b), mv(c.minus_c))

        moved = Mt1Scenario(
            shift_cfg(MIRRORED.left),
            shift_cfg(MIRRORED.right),
            MIRRORED.c + t,
            IntervalR(I11.lo + t, I11.hi + t),
        )
        rep = verify_mt1(shifted_f, moved)
        assert rep.verdict == base.verdict
        for a, b in zip(rep.margins, base.margins):
            assert a == pytest.approx(b, abs=1e-9)


def test_mt1_without_a_k1c_witness_is_unmet():
    """-x^3 has f'' = -6x decreasing, so no constant A makes it 3-convex at c:
    every hypothesis of the generated scenario holds, and the witness fails."""
    rep = verify_mt1(negate(catalog("cubic")), gen_two_sided_scenario(GenSpec(seed=1)))
    assert rep.verdict == "hypotheses-unmet"
    assert rep.hypotheses.violations == (("witness.K1c", 0.0),)


def test_mt2_a_with_c_outside_the_side_extremes_takes_the_sandwich():
    """With c = 0.9 outside [max_left, min_right] = [-0.6, -0.5], branch a's
    constant comes from the K1 sandwich, which for quadratic:2 is [2, 2]."""
    left, right = two_point_side(-1.0, -0.6), two_point_side(-0.5, 0.5)
    rep = verify_mt2(catalog("quadratic", 2), Mt1Scenario(left, right, 0.9, I11), mode="a")
    assert rep.verdict == "holds" and rep.details["branch"] == "a"
    assert (rep.details["max_left"], rep.details["min_right"]) == (-0.6, -0.5)
    assert rep.details["A"] == 2.0


def test_gaps_weigh_f_through_one_kernel(monkeypatch):
    """Both affine gaps form sum(w * f(p)) in funclib.lift, with the signed
    weights and the points flattened in all_groups order, zeros included."""
    calls = []
    lift = affine.lift

    def spy(f, weights, xs, what, *factors):
        calls.append((list(weights), list(xs), what, factors))
        return lift(f, weights, xs, what, *factors)

    monkeypatch.setattr(affine, "lift", spy)
    s = cfg((-1.0, 0.0), (0.25, 0.0), (1.0,), (0.75,), (0.5,), (0.0,))
    f = catalog("quadratic", 2)
    jensen_affine_gap(f, s)
    affine.cross_weighted_gap(f, s, s)
    signed = ([0.25, 0.0, 0.75, -0.0], [-1.0, 0.0, 1.0, 0.5])
    assert calls == [
        (*signed, "affine gap sum(w * f(p))", ()),
        (*signed, "crossed gap sum(w * f(p))", ()),
    ]
