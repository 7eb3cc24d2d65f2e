import math
import random
import sys
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensengap.affine import jensen_affine_gap, verify_mt1
from jensengap.analysis import bracket_windows
from jensengap.domain import (
    AffineConfig,
    IntervalR,
    StructureError,
    WeightedGroup,
    barycenter,
    checked_fsum,
    combination_value,
    hull_membership,
    spread,
)
from jensengap.funclib import FunctionModel, catalog
from jensengap.functional import apply
from jensengap.scengen import GenSpec, draw_config, gen_two_sided_scenario

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
small_pos = st.floats(min_value=0.05, max_value=5, allow_nan=False)


def seeded_config(seed, lo=-5.0, hi=5.0, sizes=(2, 2, 1)):
    return draw_config(random.Random(seed), lo, hi, sizes)


@given(q=st.floats(min_value=-8, max_value=8, allow_nan=False), x1=finite, width=small_pos)
def test_brackets_exact_on_quadratics(q, x1, width):
    slope_part = FunctionModel(
        "quad-with-line",
        IntervalR(-1e6, 1e6),
        lambda x: 0.5 * q * x * x + 3 * x - 7,
        lambda x: q,
        lambda x: q,
        lambda lo, hi: (q, q),
    )
    assert bracket_windows(slope_part, x1, x1 + width, 4) == pytest.approx([q, q], abs=1e-6)


@given(a=finite, b=finite, x=finite)
def test_hull_membership_matches_sorting(a, b, x):
    assert hull_membership(x, a, b, tol=0.0) == (min(a, b) <= x <= max(a, b))


@given(scale=st.floats(min_value=0.01, max_value=100, allow_nan=False), seed=st.integers(0, 500))
def test_barycenter_invariant_under_weight_rescale(scale, seed):
    g = seeded_config(seed).plus_a
    rescaled = WeightedGroup(g.points, tuple(scale * w for w in g.weights))
    assert barycenter(rescaled) == pytest.approx(barycenter(g), rel=1e-9)


@given(
    k=st.floats(min_value=0.1, max_value=3, allow_nan=False),
    t=st.floats(min_value=-20, max_value=20, allow_nan=False),
    seed=st.integers(0, 500),
)
@settings(max_examples=60)
def test_affine_covariance(k, t, seed):
    cfg = seeded_config(seed)

    def mapped(g):
        return WeightedGroup(tuple(k * p + t for p in g.points), g.weights)

    moved = AffineConfig(mapped(cfg.plus_a), mapped(cfg.plus_b), mapped(cfg.minus_c))
    v = combination_value(cfg)
    scale = max(1.0, abs(k * v + t))
    assert combination_value(moved) == pytest.approx(k * v + t, abs=1e-9 * scale)
    assert spread(moved) == pytest.approx(k * k * spread(cfg), abs=1e-9 * max(1.0, k * k))


@given(seed=st.integers(0, 400))
@settings(max_examples=60)
def test_spread_nonnegative_and_gap_identity(seed):
    cfg = seeded_config(seed)
    s = spread(cfg)
    assert s >= -1e-9
    for q in (-3.0, 0.5, 2.0):
        gap = jensen_affine_gap(catalog("quadratic", q), cfg)
        assert gap == pytest.approx(0.5 * q * s, abs=1e-9 * max(1.0, abs(gap)))


@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=1, allow_nan=False), min_size=1, max_size=6),
    data=st.data(),
)
def test_unital_apply_within_range(weights, data):
    total = sum(weights)
    unital = [w / total for w in weights]
    values = data.draw(st.lists(finite, min_size=len(weights), max_size=len(weights)))
    out = apply(unital, values)
    assert min(values) - 1e-9 <= out <= max(values) + 1e-9


@given(seed=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_generated_scenarios_verify(seed):
    s = gen_two_sided_scenario(GenSpec(seed=seed))
    rep = verify_mt1(catalog("signed_square"), s, A=0.0)
    assert rep.verdict == "holds"
    assert min(rep.margins) >= -1e-9


#: finite floats near either end of the float range, and the non-finite ones
EXTREME = st.one_of(
    st.floats(min_value=1.6e308, max_value=sys.float_info.max),
    st.floats(min_value=-sys.float_info.max, max_value=-1.6e308),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@given(
    terms=st.lists(EXTREME, max_size=4),
    factors=st.lists(st.lists(st.floats(), max_size=3), max_size=2),
)
@settings(max_examples=300)
def test_checked_fsum_is_fsum_or_an_input_error(terms, factors):
    """checked_fsum returns exactly what math.fsum returns, unless fsum raises,
    or the total is infinite or NaN while factors are given and all of them
    are finite: then the sum is past the float range, an input error."""
    try:
        expected = math.fsum(terms)
    except (OverflowError, ValueError):
        expected = None
    finite = all(map(math.isfinite, chain(*factors)))
    if expected is None or factors and not math.isfinite(expected) and finite:
        with pytest.raises(StructureError, match=r"^terms sum past the float range$"):
            checked_fsum(iter(terms), "terms sum", *factors)
    else:
        # repr tells NaN, infinities and signed zeros apart
        assert repr(checked_fsum(iter(terms), "terms sum", *factors)) == repr(expected)
