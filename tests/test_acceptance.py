"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

import oracles
from jensengap.affine import verify_mt1, verify_mt2
from jensengap.analysis import classify_at_point
from jensengap.cli import main
from jensengap.domain import IntervalR, spread
from jensengap.funclib import FunctionModel, catalog
from jensengap.scenario import dumps, make_scenario, run_payload
from jensengap.scengen import (
    GenSpec,
    draw_config,
    gen_payload,
    gen_two_sided_scenario,
    straddle_probe_mt4,
)

TOL = 1e-9
I11 = IntervalR(-1.0, 1.0)
I33 = IntervalR(-3.0, 3.0)

SS = catalog("signed_square")
CUBIC = catalog("cubic")
EXP = catalog("exp")
X2 = catalog("quadratic", 2)
#: f'' = 12 x^2 falls to 0 at 0 and rises after, so its certificate lists 0
#: between the ends of an interval that straddles 0
QUARTIC = FunctionModel(
    "quartic",
    IntervalR(-1e6, 1e6),
    lambda x: x**4,
    lambda x: 12.0 * x * x,
    lambda x: 12.0 * x * x,
    lambda lo, hi: (12.0 * lo * lo, 0.0, 12.0 * hi * hi) if lo < 0.0 < hi
    else (12.0 * lo * lo, 12.0 * hi * hi),
)

PY_SS = lambda x: x * abs(x)
PY_X2 = lambda x: x * x
PY_EXP = math.exp
PY_CUBE = lambda x: x**3


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    print(f"PASS criterion {number:2d}: {description}")


def random_configs(count, lo=-5.0, hi=5.0, base_seed=90000):
    sizes_cycle = [(1, 1, 0), (2, 2, 1), (3, 2, 2)]
    for i in range(count):
        yield draw_config(random.Random(base_seed + i), lo, hi, sizes_cycle[i % 3])


def test_criterion_1_affine_jensen_positivity():
    with criterion(1, "Jensen gap >= -1e-9 for convex functions on 10,000 configs, < 5 s"):
        start = time.perf_counter()
        worst = math.inf
        for cfg in random_configs(10_000):
            for f in (X2, EXP, QUARTIC):
                worst = min(worst, jensen_gap := _gap(f, cfg))
        elapsed = time.perf_counter() - start
        assert worst >= -1e-9, f"worst gap {worst}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s"


def _gap(f, cfg):
    from jensengap.affine import jensen_affine_gap

    return jensen_affine_gap(f, cfg)


def test_criterion_2_quadratic_identity():
    with criterion(2, "gap == (q/2)*spread to 1e-9 relative for q in {-3, 0.5, 2}"):
        for cfg in random_configs(1_000, base_seed=91000):
            s = spread(cfg)
            for q in (-3.0, 0.5, 2.0):
                gap = _gap(catalog("quadratic", q), cfg)
                assert abs(gap - 0.5 * q * s) <= 1e-9 * max(1.0, abs(gap))


def test_criterion_3_two_sided_chain():
    with criterion(3, "four-term chain holds on 1,000 matched scenarios; worked chain exact"):
        for i in range(1_000):
            s = gen_two_sided_scenario(GenSpec(seed=92000 + i))
            for f in (SS, CUBIC):
                rep = verify_mt1(f, s, A=0.0)
                assert rep.verdict == "holds"
                assert min(rep.margins) >= -1e-9
        from jensengap.affine import Mt1Scenario
        from jensengap.domain import AffineConfig, WeightedGroup

        mirrored = Mt1Scenario(
            AffineConfig(WeightedGroup((-1.0,), (0.5,)), WeightedGroup((0.0,), (0.5,))),
            AffineConfig(WeightedGroup((0.0,), (0.5,)), WeightedGroup((1.0,), (0.5,))),
            0.0,
            I11,
        )
        rep = verify_mt1(SS, mirrored, A=0.0)
        assert rep.chain == pytest.approx((-0.25, 0.0, 0.0, 0.25), abs=1e-12)


def test_criterion_4_weakened_hypothesis_branches():
    with criterion(4, "branch gates hold for exp (a) and signed_square (c); misordering is unmet"):
        for i in range(500):
            rng = random.Random(93000 + i)
            ratio = rng.uniform(0.4, 0.95)
            s = gen_two_sided_scenario(GenSpec(seed=93000 + i), rng, spread_ratio=ratio)
            rep = verify_mt2(EXP, s, branch="a")
            assert rep.verdict == "holds", (i, rep.hypotheses.violations)
            assert rep.details["A"] == pytest.approx(1.0)
            assert min(rep.margins) >= -1e-9
        for i in range(500):
            s = gen_two_sided_scenario(GenSpec(seed=94000 + i))
            rep = verify_mt2(SS, s, branch="c")
            assert rep.verdict == "holds"
            assert min(rep.margins) >= -1e-9
        for i in range(50):
            rng = random.Random(95000 + i)
            ratio = 1.0 / rng.uniform(0.4, 0.9)  # spread_left > spread_right
            s = gen_two_sided_scenario(GenSpec(seed=95000 + i), rng, spread_ratio=ratio)
            for branch in ("a", "auto"):
                rep = verify_mt2(EXP, s, branch=branch)
                assert rep.verdict == "hypotheses-unmet", (i, branch, rep.verdict)


def test_criterion_5_feasible_interval_accuracy():
    with criterion(5, "feasible intervals: cubic width <= 12h + 1e-6, signed_square [-2, 2]"):
        n = 1_000
        for c in (-0.5, 0.0, 0.7):
            h = max(c - (-1.0), 1.0 - c) / (n - 1)
            iv = classify_at_point(CUBIC, c, I11).k1_interval
            assert iv.feasible
            assert iv.contains(6 * c, tol=1e-12)
            assert iv.hi - iv.lo <= 12 * h + 1e-6
        iv = classify_at_point(SS, 0.0, I11).k1_interval
        assert iv.lo == pytest.approx(-2.0, abs=1e-6)
        assert iv.hi == pytest.approx(2.0, abs=1e-6)


def test_criterion_6_functional_margins():
    with criterion(6, "transfer/Jensen margins >= -1e-9 on 2,000 instances; worked value 0.75"):
        spec = GenSpec(seed=96000)
        ids = ("it2", "ic1", "ic2", "ic3", "it3")
        for j, theorem_id in enumerate(ids):
            for i in range(400):
                rng = random.Random(96000 + 1000 * j + i)
                payload = gen_payload(spec, theorem_id, "standard", rng)
                f = X2 if i % 2 == 0 else EXP
                report = run_payload(theorem_id, "standard", f, payload)
                assert report["verdict"] == "holds", (theorem_id, i, report["hypotheses"])
                assert min(report["margins"]) >= -1e-9
        from jensengap.functional import verify_it2

        rep = verify_it2(
            X2, [0.5, 0.5], [-0.5, 0.5], [0.5, 0.5], [-1.0, 1.0], inner=I11, interval=I33
        )
        assert rep.margins[0] == pytest.approx(0.75, abs=1e-12)


def test_criterion_7_split_point_transfer_region_mode():
    with criterion(7, "split-point transfer: worked diffs (-2, 2); 500 scenarios hold per function"):
        from jensengap.functional import verify_mt4

        rep = verify_mt4(
            SS,
            [0.5, 0.5],
            [0.5, 0.5],
            [-2, -1],
            [-3, 0],
            [1, 2],
            [0, 3],
            c=0.0,
            interval=I33,
            inner=IntervalR(-2, -1),
            inner2=IntervalR(1, 2),
            mode="region_restricted",
        )
        assert rep.values["gap_left"] == pytest.approx(-2.0, abs=1e-12)
        assert rep.values["gap_right"] == pytest.approx(2.0, abs=1e-12)
        assert rep.chain[0] <= rep.chain[1] + 1e-12 and rep.chain[2] <= rep.chain[3] + 1e-12
        spec = GenSpec(seed=97000, interval=I33, c=0.0)
        for i in range(500):
            rng = random.Random(97000 + i)
            payload = gen_payload(spec, "mt4", "region_restricted", rng)
            for f in (SS, CUBIC):
                report = run_payload("mt4", "region_restricted", f, payload)
                assert report["verdict"] == "holds", (i, f.name, report["hypotheses"])


def test_criterion_8_literal_mode_probe(tmp_path, capsys):
    with criterion(8, "literal-mode straddle scenario fails with margin -0.06029 +- 1e-4"):
        doc = make_scenario("mt4", "literal", {"name": "signed_square"}, straddle_probe_mt4())
        path = tmp_path / "straddle.json"
        path.write_text(dumps(doc), encoding="utf-8")
        code = main(["check", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["verdict"] == "fails"
        assert report["mode"] == "literal"  # hypothesis-reading finding, not a library defect
        assert report["margin"] == pytest.approx(-0.06029, abs=1e-4)


def _oracle_affine_values(report, payload, fn):
    left, right = payload["left"], payload["right"]
    return {
        "gap_left": oracles.cfg_gap(fn, left),
        "gap_right": oracles.cfg_gap(fn, right),
        "spread_left": oracles.cfg_spread(left),
        "spread_right": oracles.cfg_spread(right),
    }


def _check_close(got, expected, context):
    for key, want in expected.items():
        assert got[key] == pytest.approx(want, abs=1e-12), (context, key)


def test_criterion_9_oracle_equivalence():
    with criterion(9, "brute-force oracle agrees with every verifier to 1e-12 (100/theorem)"):
        sq = PY_X2
        plans = {
            "mt1": ("proper", SS, PY_SS),
            "mt2": ("a", EXP, PY_EXP),
            "mt3": ("auto", X2, PY_X2),
            "it2": ("standard", X2, PY_X2),
            "ic1": ("standard", X2, PY_X2),
            "ic2": ("standard", EXP, PY_EXP),
            "ic3": ("standard", X2, PY_X2),
            "it3": ("standard", EXP, PY_EXP),
            "mt4": ("region_restricted", SS, PY_SS),
            "mt5": ("region_restricted", SS, PY_SS),
            "mc1": ("region_restricted", SS, PY_SS),
            "mc2": ("region_restricted", SS, PY_SS),
            "mc3": ("region_restricted", SS, PY_SS),
        }
        for theorem_id, (mode, model, fn) in plans.items():
            spec = (
                GenSpec(seed=98000, interval=I33, c=0.0)
                if theorem_id.startswith("m")
                else GenSpec(seed=98000)
            )
            for i in range(100):
                rng = random.Random(98000 + i)
                p = gen_payload(spec, theorem_id, mode, rng)
                report = run_payload(theorem_id, mode, model, p)
                assert report["verdict"] == "holds", (theorem_id, i)
                ctx = (theorem_id, i)
                if theorem_id in ("mt1", "mt2", "mt3"):
                    _check_close(report["values"], _oracle_affine_values(report, p, fn), ctx)
                elif theorem_id == "it2":
                    _check_close(
                        report["values"],
                        {
                            "gap_left": oracles.fn_sum(p["L"], p["g"], fn),
                            "gap_right": oracles.fn_sum(p["H"], p["h"], fn),
                        },
                        ctx,
                    )
                elif theorem_id == "ic1":
                    want = oracles.jensen_gap(p["L"], p["g"], fn)
                    assert report["margins"][0] == pytest.approx(want, abs=1e-12), ctx
                elif theorem_id == "ic2":
                    lifted = [oracles.fn_sum(w, v, fn) for w, v in zip(p["Ls"], p["gs"])]
                    want = [lifted[k + 1] - lifted[k] for k in range(len(lifted) - 1)]
                    assert report["margins"] == pytest.approx(want, abs=1e-12), ctx
                elif theorem_id == "ic3":
                    value = oracles.family_mean(p["Ls"], p["gs"])
                    want = oracles.family_sum(p["Ls"], p["gs"], fn) - fn(value)
                    assert report["margins"][0] == pytest.approx(want, abs=1e-12), ctx
                elif theorem_id == "it3":
                    want = oracles.family_sum(p["Hs"], p["hs"], fn) - oracles.family_sum(
                        p["Ls"], p["gs"], fn
                    )
                    assert report["margins"][0] == pytest.approx(want, abs=1e-12), ctx
                elif theorem_id == "mt4":
                    _check_close(
                        report["values"],
                        {
                            "gap_left": oracles.fn_sum(p["H"], p["h1"], fn)
                            - oracles.fn_sum(p["L"], p["g1"], fn),
                            "gap_right": oracles.fn_sum(p["H"], p["h2"], fn)
                            - oracles.fn_sum(p["L"], p["g2"], fn),
                            "spread_left": oracles.fn_sum(p["H"], p["h1"], sq)
                            - oracles.fn_sum(p["L"], p["g1"], sq),
                            "spread_right": oracles.fn_sum(p["H"], p["h2"], sq)
                            - oracles.fn_sum(p["L"], p["g2"], sq),
                        },
                        ctx,
                    )
                elif theorem_id == "mt5":
                    _check_close(
                        report["values"],
                        {
                            "gap_left": oracles.family_sum(p["Hs"], p["hs"], fn)
                            - oracles.family_sum(p["Ls"], p["gs"], fn),
                            "gap_right": oracles.family_sum(p["Hs_star"], p["hs_star"], fn)
                            - oracles.family_sum(p["Ls_star"], p["gs_star"], fn),
                        },
                        ctx,
                    )
                elif theorem_id == "mc1":
                    want = oracles.jensen_gap(p["L"], p["g2"], fn) - oracles.jensen_gap(
                        p["L"], p["g1"], fn
                    )
                    assert report["margins"][0] == pytest.approx(want, abs=1e-12), ctx
                elif theorem_id == "mc2":
                    g_lift = [oracles.fn_sum(w, v, fn) for w, v in zip(p["Ls"], p["gs"])]
                    h_lift = [oracles.fn_sum(w, v, fn) for w, v in zip(p["Ls"], p["hs"])]
                    want = [
                        (h_lift[k + 1] - h_lift[k]) - (g_lift[k + 1] - g_lift[k])
                        for k in range(len(g_lift) - 1)
                    ]
                    assert report["margins"] == pytest.approx(want, abs=1e-12), ctx
                elif theorem_id == "mc3":
                    g_mean = oracles.family_mean(p["Ls"], p["gs"])
                    h_mean = oracles.family_mean(p["Ls"], p["hs"])
                    want = (oracles.family_sum(p["Ls"], p["hs"], fn) - fn(h_mean)) - (
                        oracles.family_sum(p["Ls"], p["gs"], fn) - fn(g_mean)
                    )
                    assert report["margins"][0] == pytest.approx(want, abs=1e-12), ctx


def test_criterion_10_byte_determinism(tmp_path):
    with criterion(10, "gen and search emit byte-identical files for fixed seeds"):
        for args_base, name in (
            (["gen", "--theorem", "mt1", "--seed", "5"], "gen-mt1"),
            (["gen", "--theorem", "mt4", "--mode", "region_restricted", "--seed", "1"], "gen-mt4"),
            (
                [
                    "search",
                    "--theorem",
                    "mt4",
                    "--mode",
                    "literal",
                    "--fn",
                    "signed_square",
                    "--interval=-3,3",
                    "--budget",
                    "25",
                    "--seed",
                    "3",
                ],
                "search-mt4",
            ),
        ):
            paths = [tmp_path / f"{name}-{k}.json" for k in (1, 2)]
            codes = [main(args_base + ["--out", str(p)]) for p in paths]
            assert codes[0] == codes[1]
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert len(paths[0].read_bytes()) > 0
