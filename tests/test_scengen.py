import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensengap import analysis, domain, scengen
from jensengap.affine import verify_mt1
from jensengap.domain import IntervalR, StructureError, spread, validate_affine_config
from jensengap.cli import main
from jensengap.funclib import TabulatedFunction, catalog, tabulated_model
from jensengap.scenario import (
    THEOREMS,
    config_from,
    fn_spec_from_string,
    make_scenario,
    model_from_spec,
    run_payload,
    run_scenario,
)
from jensengap.scengen import (
    GenSpec,
    InfeasibleError,
    draw_config,
    gen_payload,
    gen_two_sided_scenario,
    match_spread,
    search_counterexamples,
    straddle_probe_mt4,
    two_point_from_moments,
)

SPEC = GenSpec(seed=42)


class TestGenSpec:
    def test_split_point_must_be_interior(self):
        with pytest.raises(StructureError):
            GenSpec(seed=1, interval=IntervalR(-1, 1), c=1.0)

    def test_size_floor(self):
        with pytest.raises(StructureError):
            GenSpec(seed=1, sizes=(0, 1, 0))

    @pytest.mark.parametrize("sizes", [(10_001, 2, 1), (2, 10_001, 1), (2, 2, 10_001)])
    def test_size_ceiling(self, sizes):
        with pytest.raises(StructureError, match="^group sizes must be at most 10000$"):
            GenSpec(seed=1, sizes=sizes)
        assert GenSpec(seed=1, sizes=(10_000, 10_000, 10_000)).sizes == (10_000,) * 3


class TestGenPayloadMode:
    """gen_payload reads the mode as the registry does: None is the
    theorem's first mode, and an unknown mode is an error."""

    @pytest.mark.parametrize("theorem_id", list(THEOREMS))
    def test_none_is_the_first_mode(self, theorem_id):
        first = THEOREMS[theorem_id].modes[0]
        payload = gen_payload(SPEC, theorem_id, None, random.Random(1))
        assert payload == gen_payload(SPEC, theorem_id, first, random.Random(1))

    def test_default_mt4_payload_checks_as_labelled(self):
        payload = gen_payload(GenSpec(seed=1), "mt4", None, random.Random(1))
        doc = make_scenario("mt4", None, fn_spec_from_string("signed_square"), payload)
        assert doc["mode"] == "region_restricted" and "inner2" in payload
        assert run_scenario(doc)["verdict"] == "holds"

    @pytest.mark.parametrize("theorem_id", ["mt4", "mc2"])
    @pytest.mark.parametrize("mode", ["bogus", "regionrestricted"])
    def test_unknown_mode_rejected(self, theorem_id, mode):
        with pytest.raises(StructureError, match=f"has no mode '{mode}'"):
            gen_payload(SPEC, theorem_id, mode, random.Random(1))


def _side_config(spec: GenSpec, side: str):
    """draw_config on the left ([lo, c]) or right ([c, hi]) half of the spec."""
    lo, hi = (spec.interval.lo, spec.c) if side == "left" else (spec.c, spec.interval.hi)
    return draw_config(random.Random(spec.seed), lo, hi, spec.sizes)


class TestDrawConfig:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_always_valid(self, seed, side):
        cfg = _side_config(GenSpec(seed=seed), side)
        assert validate_affine_config(cfg).valid

    def test_convex_case_when_minus_empty(self):
        cfg = _side_config(GenSpec(seed=3, sizes=(1, 1, 0)), "left")
        assert len(cfg.minus_c) == 0
        assert validate_affine_config(cfg).valid
        assert cfg.plus_a.total + cfg.plus_b.total == pytest.approx(1.0)

    def test_deterministic(self):
        a = _side_config(GenSpec(seed=42), "right")
        b = _side_config(GenSpec(seed=42), "right")
        assert a == b

    def test_points_confined_to_side(self):
        cfg = _side_config(GenSpec(seed=9), "left")
        assert max(cfg.active_points()) <= 0.0


class TestMatchSpread:
    def test_identity(self):
        cfg = _side_config(SPEC, "left")
        out = match_spread(spread(cfg), cfg, anchor=0.0)
        assert spread(out) == pytest.approx(spread(cfg), abs=1e-12)

    def test_quarter_target_halves_offsets(self):
        cfg = _side_config(SPEC, "left")
        target = 0.25 * spread(cfg)
        out = match_spread(target, cfg, anchor=0.0)
        assert spread(out) == pytest.approx(target, abs=1e-9 * max(1.0, target))
        for p, q in zip(cfg.plus_a.points, out.plus_a.points):
            assert q == pytest.approx(0.5 * p, abs=1e-12)

    def test_zero_spread_input_rejected(self):
        from jensengap.domain import AffineConfig, WeightedGroup

        flat = AffineConfig(WeightedGroup((1.0,), (0.5,)), WeightedGroup((1.0,), (0.5,)))
        with pytest.raises(StructureError):
            match_spread(1.0, flat, anchor=1.0)

    def test_collapse_to_anchor(self):
        cfg = _side_config(SPEC, "left")
        out = match_spread(0.0, cfg, anchor=-0.25)
        assert spread(out) == pytest.approx(0.0, abs=1e-12)


class TestTwoPointMoments:
    def test_roots_reproduce_moments(self):
        lo, hi = two_point_from_moments(1.5, 2.5)
        assert lo + hi == pytest.approx(3.0, abs=1e-12)
        assert lo * lo + hi * hi == pytest.approx(5.0, abs=1e-9)

    def test_zero_variance(self):
        lo, hi = two_point_from_moments(2.0, 4.0)
        assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)

    def test_infeasible_below_mean_square(self):
        with pytest.raises(InfeasibleError):
            two_point_from_moments(2.0, 3.9)

    def test_stable_for_negative_mean(self):
        lo, hi = two_point_from_moments(-1e3, 1e6 + 1.0)
        assert lo + hi == pytest.approx(-2e3)
        assert lo * lo + hi * hi == pytest.approx(2.0 * (1e6 + 1.0), rel=1e-12)


class TestTwoSidedGeneration:
    @pytest.mark.parametrize("seed", range(10))
    def test_hypotheses_pass(self, seed):
        s = gen_two_sided_scenario(GenSpec(seed=seed))
        assert verify_mt1(catalog("signed_square"), s, A=0.0).hypotheses.valid

    def test_spread_ratio_below_one(self):
        s = gen_two_sided_scenario(GenSpec(seed=5), spread_ratio=0.5)
        assert spread(s.left) <= spread(s.right)
        assert spread(s.left) == pytest.approx(0.25 * spread(s.right), rel=1e-9)

    def test_spread_ratio_above_one(self):
        s = gen_two_sided_scenario(GenSpec(seed=5), spread_ratio=2.0)
        assert spread(s.left) == pytest.approx(4.0 * spread(s.right), rel=1e-9)


FUNCTIONS = {
    "mt4": catalog("signed_square"),
    "mt5": catalog("signed_square"),
    "mc1": catalog("signed_square"),
    "mc2": catalog("signed_square"),
    "mc3": catalog("signed_square"),
    "it2": catalog("quadratic", 2),
    "it3": catalog("quadratic", 2),
    "ic1": catalog("quadratic", 2),
    "ic2": catalog("quadratic", 2),
    "ic3": catalog("quadratic", 2),
}


class TestFunctionalGeneration:
    @pytest.mark.parametrize("theorem_id", sorted(FUNCTIONS))
    def test_roundtrip_holds(self, theorem_id):
        mode = "region_restricted" if theorem_id.startswith("m") else "standard"
        for seed in range(15):
            rng = random.Random(1000 + seed)
            payload = gen_payload(SPEC, theorem_id, mode, rng)
            report = run_payload(theorem_id, mode, FUNCTIONS[theorem_id], payload)
            assert report["verdict"] == "holds", (theorem_id, seed, report["hypotheses"])

    def test_variance_matching_is_exact(self):
        for seed in range(20):
            rng = random.Random(seed)
            payload = gen_payload(SPEC, "mc1", "region_restricted", rng)
            w = payload["L"]
            v1, v2 = payload["g1"], payload["g2"]
            m1 = sum(wi * x for wi, x in zip(w, v1))
            m2 = sum(wi * x for wi, x in zip(w, v2))
            var1 = sum(wi * x * x for wi, x in zip(w, v1)) - m1 * m1
            var2 = sum(wi * x * x for wi, x in zip(w, v2)) - m2 * m2
            assert abs(var1 - var2) <= 1e-12

    def test_determinism(self):
        a = gen_payload(SPEC, "mt4", "literal", random.Random(7))
        b = gen_payload(SPEC, "mt4", "literal", random.Random(7))
        assert a == b

    def test_unknown_theorem(self):
        with pytest.raises(StructureError):
            gen_payload(SPEC, "mt9", "literal")


class TestSearch:
    def test_proper_mode_clean_for_signed_square(self):
        results = search_counterexamples(
            catalog("signed_square"), "mt1", "proper", budget=300, seed=11
        )
        assert results == []

    def test_index_sharing_reading_admits_violations(self):
        # the same scenario stream is clean under the matched-weight reading
        # but yields negative margins under the index-sharing one
        clean = search_counterexamples(
            catalog("signed_square"), "mt1", "proper", budget=200, seed=17
        )
        probing = search_counterexamples(
            catalog("signed_square"), "mt1", "literal_alpha", budget=200, seed=17
        )
        assert clean == []
        assert probing and probing[0].margin < -1e-9

    def test_literal_probe_found(self):
        results = search_counterexamples(
            catalog("signed_square"),
            "mt4",
            "literal",
            budget=40,
            seed=3,
            spec=GenSpec(seed=3, interval=IntervalR(-3, 3), c=0.0),
        )
        assert results
        margins = [r.margin for r in results]
        assert margins == sorted(margins)
        probe = [r for r in results if r.seed_trace == ("probe",)]
        assert probe and probe[0].margin == pytest.approx(-0.06029414592216457, abs=1e-6)
        assert probe[0].payload == straddle_probe_mt4()

    def test_probe_can_be_disabled(self):
        results = search_counterexamples(
            catalog("signed_square"),
            "mt4",
            "literal",
            budget=5,
            seed=3,
            spec=GenSpec(seed=3, interval=IntervalR(-3, 3), c=0.0),
            include_probes=False,
        )
        assert all(r.seed_trace != ("probe",) for r in results)

    def test_region_mode_clean(self):
        results = search_counterexamples(
            catalog("signed_square"),
            "mt4",
            "region_restricted",
            budget=150,
            seed=5,
            spec=GenSpec(seed=5, interval=IntervalR(-3, 3), c=0.0),
        )
        assert results == []

    def test_budget_must_be_positive(self):
        with pytest.raises(StructureError):
            search_counterexamples(catalog("signed_square"), "mt1", "proper", budget=0, seed=1)

    def test_budget_ceiling_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a scenario was drawn past the budget check")

        monkeypatch.setattr(scengen, "gen_payload", no_draw)
        with pytest.raises(StructureError, match="^search budget must be at most 100000$"):
            search_counterexamples(catalog("cubic"), "mt1", "proper", budget=100_001, seed=1)

    def test_deterministic_results(self):
        kwargs = dict(budget=25, seed=3, spec=GenSpec(seed=3, interval=IntervalR(-3, 3), c=0.0))
        a = search_counterexamples(catalog("signed_square"), "mt4", "literal", **kwargs)
        b = search_counterexamples(catalog("signed_square"), "mt4", "literal", **kwargs)
        assert [(r.margin, r.seed_trace) for r in a] == [(r.margin, r.seed_trace) for r in b]


def _count_scans(monkeypatch) -> list:
    counted = []
    for name in ("bracket_windows", "third_windows"):
        real = getattr(analysis, name)
        monkeypatch.setattr(
            analysis, name, lambda *a, name=name, real=real: counted.append(name) or real(*a)
        )
    return counted


#: the search-grid benchmark classes
SEARCH_GRID = [
    ("mt2", "auto", ("signed_square",)),
    ("it2", "standard", ("quadratic", 2)),
    ("it3", "standard", ("quadratic", 2)),
    ("ic1", "standard", ("quadratic", 2)),
    ("ic2", "standard", ("quadratic", 2)),
    ("ic3", "standard", ("quadratic", 2)),
]


#: functions tabulated on 201 nodes over [-1, 1]
TABLE_FNS = {"x^2": lambda x: x * x, "x|x|": lambda x: x * abs(x)}
#: table searches: the search-grid classes on tables of their functions, and mt4
TABLE_SEARCHES = [
    ("mt2", "auto", "x|x|"),
    *[(theorem, mode, "x^2") for theorem, mode, _ in SEARCH_GRID[1:]],
    ("mt4", "region_restricted", "x|x|"),
]


#: every (theorem id, mode) of the registry
ALL_MODES = [(theorem, mode) for theorem, entry in THEOREMS.items() for mode in entry.modes]


class TestGridScansPerSearch:
    """The certificate of a catalog function or a table answers every shape
    query without a grid: the grid reference of ``analysis`` is the tests'
    alone."""

    @staticmethod
    def _search(model, theorem, mode):
        results = search_counterexamples(
            model, theorem, mode, budget=100, seed=5, report_threshold=-math.inf
        )
        assert len(results) == 100  # none came back hypotheses-unmet
        return results

    @pytest.mark.parametrize("theorem, mode, fn", TABLE_SEARCHES)
    def test_table_search_scans_nothing(self, monkeypatch, theorem, mode, fn):
        counted = _count_scans(monkeypatch)
        nodes = tuple(-1.0 + i / 100 for i in range(201))
        values = tuple(map(TABLE_FNS[fn], nodes))
        self._search(tabulated_model(TabulatedFunction(nodes, values)), theorem, mode)
        assert counted == []

    @pytest.mark.parametrize("theorem, mode, fn", SEARCH_GRID)
    def test_catalog_search_scans_nothing(self, monkeypatch, theorem, mode, fn):
        counted = _count_scans(monkeypatch)
        self._search(catalog(*fn), theorem, mode)
        assert counted == []

    @pytest.mark.parametrize("theorem, mode", ALL_MODES)
    def test_every_theorem_and_mode_scans_nothing(self, monkeypatch, theorem, mode):
        counted = _count_scans(monkeypatch)
        f = model_from_spec(fn_spec_from_string(THEOREMS[theorem].default_fn[mode]))
        search_counterexamples(f, theorem, mode, budget=20, seed=5, report_threshold=-math.inf)
        assert counted == []

    @pytest.mark.parametrize(
        "fn", ["quadratic:2", "cubic", "signed_square", "neg_signed_square", "exp", "table"]
    )
    def test_analyze_scans_nothing(self, monkeypatch, capsys, tmp_path, fn):
        if fn == "table":
            nodes = [-1.0 + i / 100 for i in range(201)]
            table = tmp_path / "t.txt"
            text = "".join(f"{x!r} {TABLE_FNS['x|x|'](x)!r}\n" for x in nodes)
            table.write_text(text, encoding="utf-8")
            fn = f"tabulated-spline:{table}"
        counted = _count_scans(monkeypatch)
        for point in ("-0.5", "0", "0.3"):
            assert main(["analyze", "--fn", fn, "--point", point]) == 0
        assert counted == []


def test_no_engine_module_names_the_grid_reference():
    """Only ``analysis`` defines the grid scans, and none of its own queries
    calls them (the tests above); no other module may name them."""
    for path in Path(analysis.__file__).parent.glob("*.py"):
        if path.name != "analysis.py":
            text = path.read_text(encoding="utf-8")
            assert "bracket_windows" not in text and "third_windows" not in text, path.name


#: mt1-mt3 generator modes, with mt2's two spread ratios
TWO_SIDED = [("mt1", "proper"), ("mt2", "a"), ("mt2", "b"), ("mt2", "auto"), ("mt3", "auto")]


class TestTwoSidedSidesValidByConstruction:
    """Generation builds each side valid (draw_config, then rescaling) and
    does not validate it; the verifiers validate what they judge.  Every
    configuration check, validate_affine_config's too, is recorded by
    record_affine_config."""

    @pytest.mark.parametrize("theorem, mode", TWO_SIDED)
    def test_generation_validates_nothing(self, monkeypatch, theorem, mode):
        calls = []
        real = domain.record_affine_config
        monkeypatch.setattr(
            domain, "record_affine_config", lambda *a: calls.append(a) or real(*a)
        )
        gen_payload(GenSpec(seed=7), theorem, mode)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lo=st.floats(min_value=-1e3, max_value=999.0),
        width=st.floats(min_value=1e-2, max_value=2e3),
        frac=st.floats(min_value=0.05, max_value=0.95),
        case=st.sampled_from(TWO_SIDED),
    )
    def test_every_generated_side_is_valid(self, seed, lo, width, frac, case):
        hi = min(lo + width, 1e3)
        spec = GenSpec(seed=seed, interval=IntervalR(lo, hi), c=lo + frac * (hi - lo))
        payload = gen_payload(spec, *case)
        for side in ("left", "right"):
            report = validate_affine_config(config_from(payload[side]))
            assert report.valid, (side, report.violations)
