import itertools
import math

import pytest

from jensengap.analysis import (
    SCAN_CACHE_SIZE,
    _cached_extremes,
    _scan_extremes,
    bracket_windows,
    classify_at_point,
    convexity_margin,
    dd2,
    dd3,
    feasible_A_interval,
    is_3convex,
    third_windows,
)
from jensengap.domain import IntervalR, StructureError
from jensengap.funclib import (
    DomainError,
    FunctionModel,
    TabulatedFunction,
    catalog,
    negate,
    tabulated_model,
)

I11 = IntervalR(-1.0, 1.0)


class TestDd2:
    def test_square_gives_two(self):
        f = catalog("quadratic", 2)  # x^2
        assert dd2(f, -0.3, 0.1, 0.9) == pytest.approx(2.0, abs=1e-12)

    def test_cubic_matches_midpoint_curvature(self):
        assert dd2(catalog("cubic"), 0.0, 1.0, 2.0) == pytest.approx(6.0)

    def test_constant_gives_zero(self):
        const = FunctionModel("const", IntervalR(-5, 5), lambda x: 4.25)
        assert dd2(const, -1.0, 0.5, 2.0) == pytest.approx(0.0)

    def test_permutation_symmetry(self):
        f = catalog("exp")
        nodes = (-0.4, 0.15, 0.8)
        values = {dd2(f, *perm) for perm in itertools.permutations(nodes)}
        assert max(values) - min(values) <= 1e-9

    def test_coincident_nodes(self):
        with pytest.raises(StructureError):
            dd2(catalog("cubic"), 0.0, 0.0, 1.0)


class TestDd3:
    def test_cubic_leading_coefficient(self):
        assert dd3(catalog("cubic"), -0.7, 0.1, 0.4, 1.2) == pytest.approx(1.0)

    def test_low_degree_vanishes(self):
        assert dd3(catalog("quadratic", 2), -1.0, 0.0, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_signed_square_nonnegative(self):
        assert dd3(catalog("signed_square"), -1.0, -0.5, 0.5, 1.0) >= 0.0

    def test_third_windows_sign(self):
        for name in ("cubic", "signed_square", "exp"):
            assert min(third_windows(catalog(name), -1.0, 1.0, 101)) >= -1e-9


class TestFeasibleInterval:
    def test_cubic_centered(self):
        n = 1000
        h = 1.0 / (n - 1)
        iv = feasible_A_interval(catalog("cubic"), 0.0, I11, n)
        assert iv.feasible and iv.contains(0.0)
        assert iv.hi - iv.lo <= 12 * h + 1e-9

    def test_signed_square(self):
        iv = feasible_A_interval(catalog("signed_square"), 0.0, I11, 1000)
        assert iv.lo == pytest.approx(-2.0, abs=1e-6)
        assert iv.hi == pytest.approx(2.0, abs=1e-6)

    def test_quadratic_pinches(self):
        iv = feasible_A_interval(catalog("quadratic", 3), 0.25, I11, 400)
        assert iv.lo == pytest.approx(3.0, abs=1e-9)
        assert iv.hi == pytest.approx(3.0, abs=1e-9)

    def test_point_must_be_interior(self):
        with pytest.raises(StructureError):
            feasible_A_interval(catalog("cubic"), -1.0, I11, 100)

    def test_monotone_refinement(self):
        for name, c in (("exp", 0.0), ("cubic", 0.2)):
            f = catalog(name, point=c)
            coarse = feasible_A_interval(f, c, I11, 250)
            fine = feasible_A_interval(f, c, I11, 500)
            assert fine.lo >= coarse.lo - 1e-9
            assert fine.hi <= coarse.hi + 1e-9


class TestClassify:
    def test_signed_square_is_convex_type(self):
        cls = classify_at_point(catalog("signed_square"), 0.0, I11, 1000)
        assert cls.kind == "K1c"
        assert cls.witness_A == pytest.approx(0.0, abs=1e-6)

    def test_quadratic_is_both(self):
        cls = classify_at_point(catalog("quadratic", 2), 0.5, I11, 400)
        assert cls.kind == "both"
        assert cls.witness_A == pytest.approx(2.0, abs=1e-6)

    def test_quartic_table_is_neither(self):
        nodes = tuple(-1.0 + i / 1000 for i in range(2001))
        tab = TabulatedFunction(nodes, tuple(x**4 for x in nodes))
        cls = classify_at_point(tabulated_model(tab), 0.0, I11, 301)
        assert cls.kind == "neither"
        assert not cls.k1_interval.feasible and not cls.k2_interval.feasible

    def test_negated_signed_square_is_concave_type(self):
        from jensengap.funclib import negate

        cls = classify_at_point(negate(catalog("signed_square")), 0.0, I11, 500)
        assert cls.kind == "K2c"
        assert cls.witness_A == pytest.approx(0.0, abs=1e-6)

    def test_declared_constant_lies_in_interval(self):
        for name, point in (("signed_square", 0.0), ("cubic", 0.0), ("exp", 0.0), ("cubic", 0.3)):
            f = catalog(name, point=point)
            cls = classify_at_point(f, point, I11, 1000)
            kc = f.known_class
            assert cls.k1_interval.contains(kc.A, tol=1e-6)
            assert cls.kind in ("K1c", "both")


def _table(fn):
    nodes = tuple(-1.0 + i / 100 for i in range(201))
    return tabulated_model(TabulatedFunction(nodes, tuple(fn(x) for x in nodes)))


K2_MODELS = {
    "quadratic:2": lambda: catalog("quadratic", 2),
    "quadratic:-3": lambda: catalog("quadratic", -3),
    "quadratic:0": lambda: catalog("quadratic", 0),
    "cubic": lambda: catalog("cubic"),
    "signed_square": lambda: catalog("signed_square"),
    "exp": lambda: catalog("exp"),
    "linear table": lambda: _table(lambda x: 2.0 * x + 1.0),
    "x|x| table": lambda: _table(lambda x: x * abs(x)),
}


class TestK2FromTheSameScan:
    """The K2 bounds read off f's brackets equal those of the K1 scan of -f,
    bit for bit, including the sign of a zero bound."""

    @pytest.mark.parametrize("grid_n", [3, 17, 512])
    @pytest.mark.parametrize("name", sorted(K2_MODELS))
    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_k2_is_negated_k1_of_negation(self, name, grid_n, c):
        f = K2_MODELS[name]()
        k2 = classify_at_point(f, c, I11, grid_n).k2_interval
        neg = feasible_A_interval(negate(f), c, I11, grid_n)
        assert k2.feasible == neg.feasible
        for got, want in ((k2.lo, -neg.hi), (k2.hi, -neg.lo)):
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


def _same_bits(got, want):
    """Equal floats with the same sign, so -0.0 and 0.0 count as different."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _fresh_extremes(f, lo, hi, n, order):
    windows = (bracket_windows if order == 2 else third_windows)(f, lo, hi, n)
    return min(windows), max(windows)


SCAN_MODELS = {
    **K2_MODELS,
    # f(-0.0) = -0.0 beside f = +0.0 on the left: the sign of a zero
    # endpoint reaches the brackets of a 3-point grid
    "relu": lambda: FunctionModel("relu", I11, fn=lambda x: max(x, 0.0)),
}

#: each signed zero is looked up while the other is cached
ZERO_ENDS = [
    (-1.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0), (-0.0, 1.0), (0.0, 1.0), (-0.0, 1.0),
]


class TestScanMemo:
    """_scan_extremes serves a scan's (min, max) from a bounded per-process
    cache; what it serves must be what a fresh scan gives."""

    @pytest.mark.parametrize("grid_n", [3, 17, 512])
    @pytest.mark.parametrize("name", sorted(SCAN_MODELS))
    def test_cached_extremes_equal_a_fresh_scan(self, name, grid_n):
        f = SCAN_MODELS[name]()
        for order in (2, 3):
            for lo, hi in ZERO_ENDS:
                if order == 3 and grid_n < 4:
                    with pytest.raises(StructureError):
                        _scan_extremes(f, lo, hi, grid_n, order)
                    continue
                want = _fresh_extremes(f, lo, hi, grid_n, order)
                for _ in range(2):  # a miss, then a hit
                    got = _scan_extremes(f, lo, hi, grid_n, order)
                    assert all(map(_same_bits, got, want)), (order, lo, hi, got, want)

    @pytest.mark.parametrize("grid_n", [3, 17, 512])
    @pytest.mark.parametrize("name", sorted(SCAN_MODELS))
    def test_split_points_at_signed_zero(self, name, grid_n):
        f = SCAN_MODELS[name]()
        for c in (0.0, -0.0, 0.0, -0.0):
            k1 = classify_at_point(f, c, I11, grid_n).k1_interval
            assert _same_bits(k1.lo, max(bracket_windows(f, -1.0, c, grid_n)))
            assert _same_bits(k1.hi, min(bracket_windows(f, c, 1.0, grid_n)))

    def test_tables_with_different_data_do_not_share_entries(self):
        square, signed = _table(lambda x: x * x), _table(lambda x: x * abs(x))
        interval = IntervalR(-0.5, 0.5)
        assert convexity_margin(square, interval) > 1.0
        assert convexity_margin(signed, interval) < -1.0
        assert _scan_extremes(square, -0.5, 0.5, 17, 3) != _scan_extremes(signed, -0.5, 0.5, 17, 3)

    def test_two_loads_of_one_table_are_two_entries(self):
        first, second = _table(lambda x: x * x), _table(lambda x: x * x)
        convexity_margin(first, I11)
        before = _cached_extremes.cache_info()
        convexity_margin(second, I11)
        after = _cached_extremes.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: _scan_extremes(catalog("cubic"), -1.0, 1.0, 3, 3), StructureError),
            (lambda: is_3convex(catalog("cubic"), I11, grid_n=3), StructureError),
            (lambda: _scan_extremes(catalog("exp"), -20.0, 20.0, 17, 2), DomainError),
            (lambda: convexity_margin(catalog("exp"), IntervalR(-20.0, 20.0)), DomainError),
        ],
    )
    def test_errors_are_raised_on_every_call(self, call, error):
        for _ in range(3):
            with pytest.raises(error):
                call()

    def test_cache_stays_bounded(self):
        f = catalog("quadratic", 2)
        for k in range(1000):
            _scan_extremes(f, -1.0, 1.0 + k / 1000, 3, 2)
            assert _cached_extremes.cache_info().currsize <= SCAN_CACHE_SIZE
        assert _cached_extremes.cache_info().maxsize == SCAN_CACHE_SIZE
