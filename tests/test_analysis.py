import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensengap import analysis
from jensengap.analysis import (
    AInterval,
    bracket_windows,
    classify_at_point,
    convexity_margin,
    curvature_sandwich,
    is_3concave,
    is_3convex,
    k1_witness,
    third_windows,
)
from jensengap.domain import EPS_EQ, CheckSet, IntervalR, StructureError
from jensengap.funclib import (
    DomainError,
    FunctionModel,
    TabulatedFunction,
    catalog,
    negate,
    tabulated_model,
)

I11 = IntervalR(-1.0, 1.0)


def _grid_sandwich(f, lo, c, hi, n):
    """The K1 and K2 bounds of n-point grids on [lo, c] and [c, hi], read
    off their brackets as curvature_sandwich reads them off the certificate:
    K2 from the brackets of -f, 0.0 - w for each bracket w of f."""
    left, right = bracket_windows(f, lo, c, n), bracket_windows(f, c, hi, n)
    k1 = (max(left), min(right))
    k2 = (-(0.0 - max(right)), -(0.0 - min(left)))
    return k1, k2


class TestBracketWindows:
    """The grid reference: doubled second divided differences over the
    consecutive triples of a uniform grid."""

    def test_square_gives_two(self):
        f = catalog("quadratic", 2)  # x^2
        assert bracket_windows(f, -0.3, 0.9, 3) == pytest.approx([2.0], abs=1e-12)

    def test_cubic_matches_midpoint_curvature(self):
        assert bracket_windows(catalog("cubic"), 0.0, 2.0, 3) == pytest.approx([6.0])

    def test_constant_gives_zero(self):
        const = tabulated_model(TabulatedFunction((-5.0, 5.0), (4.25, 4.25)))
        assert bracket_windows(const, -1.0, 2.0, 3) == pytest.approx([0.0])

    def test_coincident_nodes(self):
        with pytest.raises(StructureError):
            bracket_windows(catalog("cubic"), 0.0, 0.0, 3)


class TestThirdWindows:
    def test_cubic_leading_coefficient(self):
        assert third_windows(catalog("cubic"), -0.7, 1.2, 4) == pytest.approx([1.0])

    def test_low_degree_vanishes(self):
        assert third_windows(catalog("quadratic", 2), -1.0, 1.0, 4) == pytest.approx(
            [0.0], abs=1e-12
        )

    def test_signed_square_nonnegative(self):
        assert third_windows(catalog("signed_square"), -1.0, 1.0, 4)[0] >= 0.0

    def test_third_windows_sign(self):
        for name in ("cubic", "signed_square", "exp"):
            assert min(third_windows(catalog(name), -1.0, 1.0, 101)) >= -1e-9

    def test_grid_too_small_for_the_order(self):
        with pytest.raises(StructureError):
            bracket_windows(catalog("cubic"), -1.0, 1.0, 2)
        with pytest.raises(StructureError):
            third_windows(catalog("cubic"), -1.0, 1.0, 3)


class TestFeasibleInterval:
    def test_cubic_centered(self):
        iv = classify_at_point(catalog("cubic"), 0.0, I11).k1_interval
        assert iv.feasible and (iv.lo, iv.hi) == (0.0, 0.0)
        # a grid's brackets close in on it at the grid's resolution
        n = 1000
        h = 1.0 / (n - 1)
        (lo, hi), _ = _grid_sandwich(catalog("cubic"), -1.0, 0.0, 1.0, n)
        assert CheckSet(EPS_EQ).admits(0.0, lo, hi)
        assert hi - lo <= 12 * h + 1e-9

    def test_signed_square(self):
        iv = classify_at_point(catalog("signed_square"), 0.0, I11).k1_interval
        assert iv.lo == pytest.approx(-2.0, abs=1e-6)
        assert iv.hi == pytest.approx(2.0, abs=1e-6)

    def test_quadratic_pinches(self):
        iv = classify_at_point(catalog("quadratic", 3), 0.25, I11).k1_interval
        assert iv.lo == pytest.approx(3.0, abs=1e-9)
        assert iv.hi == pytest.approx(3.0, abs=1e-9)

    def test_point_must_be_interior(self):
        with pytest.raises(StructureError):
            classify_at_point(catalog("cubic"), -1.0, I11)

    def test_monotone_refinement(self):
        # a finer grid's K1 interval lies within a coarser one's
        for name, c in (("exp", 0.0), ("cubic", 0.2)):
            f = catalog(name)
            coarse, _ = _grid_sandwich(f, -1.0, c, 1.0, 250)
            fine, _ = _grid_sandwich(f, -1.0, c, 1.0, 500)
            assert fine[0] >= coarse[0] - 1e-9
            assert fine[1] <= coarse[1] + 1e-9


class TestClassify:
    def test_signed_square_is_convex_type(self):
        cls = classify_at_point(catalog("signed_square"), 0.0, I11)
        assert cls.kind == "K1c"
        assert cls.witness_A == pytest.approx(0.0, abs=1e-6)

    def test_quadratic_is_both(self):
        cls = classify_at_point(catalog("quadratic", 2), 0.5, I11)
        assert cls.kind == "both"
        assert cls.witness_A == pytest.approx(2.0, abs=1e-6)

    def test_quartic_table_is_neither(self):
        nodes = tuple(-1.0 + i / 1000 for i in range(2001))
        tab = TabulatedFunction(nodes, tuple(x**4 for x in nodes))
        cls = classify_at_point(tabulated_model(tab), 0.0, I11)
        assert cls.kind == "neither"
        assert not cls.k1_interval.feasible and not cls.k2_interval.feasible

    def test_negated_signed_square_is_concave_type(self):
        from jensengap.funclib import negate

        cls = classify_at_point(negate(catalog("signed_square")), 0.0, I11)
        assert cls.kind == "K2c"
        assert cls.witness_A == pytest.approx(0.0, abs=1e-6)

    def test_certified_constant_lies_in_interval(self):
        for name, point in (("signed_square", 0.0), ("cubic", 0.0), ("exp", 0.0), ("cubic", 0.3)):
            f = catalog(name)
            cls = classify_at_point(f, point, I11)
            A = 0.5 * (f.d2_minus(point) + f.d2_plus(point))
            assert CheckSet(1e-6).admits(A, cls.k1_interval.lo, cls.k1_interval.hi)
            assert cls.kind in ("K1c", "both")


def _table(fn):
    nodes = tuple(-1.0 + i / 100 for i in range(201))
    return tabulated_model(TabulatedFunction(nodes, tuple(fn(x) for x in nodes)))


#: 201-node tables over [-1, 1], whose spline's f'' is their certificate
TABLES = {
    "x^2 table": lambda: _table(lambda x: x * x),
    "x^3 table": lambda: _table(lambda x: x**3),
    "x|x| table": lambda: _table(lambda x: x * abs(x)),
    "linear table": lambda: _table(lambda x: 2.0 * x + 1.0),
}


class TestTables:
    """A table's spline has an exact, piecewise-constant f'', so its shape
    is read from its piece curvatures, as a catalog function's is."""

    @pytest.mark.parametrize("name, kind", [("x|x| table", "K1c"), ("x^3 table", "K1c"),
                                            ("x^2 table", "both")])
    def test_classify_at_zero(self, name, kind):
        assert classify_at_point(TABLES[name](), 0.0, I11).kind == kind

    def test_signed_square_table_has_the_catalog_interval(self):
        k1 = classify_at_point(TABLES["x|x| table"](), 0.0, I11).k1_interval
        assert k1.lo == pytest.approx(-2.0, abs=1e-9) and k1.hi == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["x^2 table", "x^3 table", "x|x| table"])
    def test_3convex(self, name):
        assert is_3convex(TABLES[name](), I11)

    def test_square_table_is_also_3concave(self):
        assert is_3concave(TABLES["x^2 table"](), I11)
        assert not is_3concave(TABLES["x^3 table"](), I11)

    def test_no_grid_is_scanned(self, monkeypatch):
        for name in ("bracket_windows", "third_windows"):
            monkeypatch.setattr(analysis, name, None)
        for make in TABLES.values():
            f = make()
            classify_at_point(f, 0.3, I11)
            is_3convex(f, I11)
            is_3concave(f, I11)
            convexity_margin(f, I11)


#: catalog models (f'' monotone)
CATALOG_MODELS = {
    "quadratic:2": lambda: catalog("quadratic", 2),
    "quadratic:-3": lambda: catalog("quadratic", -3),
    "quadratic:0": lambda: catalog("quadratic", 0),
    "cubic": lambda: catalog("cubic"),
    "signed_square": lambda: catalog("signed_square"),
    "exp": lambda: catalog("exp"),
}
#: the catalog models and the tables
MODELS = {**CATALOG_MODELS, **TABLES}


def _same_bits(got, want):
    """Equal floats with the same sign, so -0.0 and 0.0 count as different."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestK2FromTheSameScan:
    """The K2 bounds read off f's brackets equal those of the K1 interval of
    -f, bit for bit, including the sign of a zero bound."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("c", [0.0, -0.0, 0.3])
    def test_k2_is_negated_k1_of_negation(self, name, c):
        # quadratic:0 has d2 = 0.0 and its negation -0.0: the bounds must
        # still match in the sign of zero
        f = MODELS[name]()
        k2 = classify_at_point(f, c, I11).k2_interval
        neg = classify_at_point(negate(f), c, I11).k1_interval
        assert k2.feasible == neg.feasible
        assert _same_bits(k2.lo, -neg.hi) and _same_bits(k2.hi, -neg.lo)

    @pytest.mark.parametrize("grid_n", [3, 17, 512])
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_grid_k2_is_negated_k1_of_negation(self, name, grid_n, c):
        # the grid reference reads K2 by the same rule
        f = MODELS[name]()
        _, k2 = _grid_sandwich(f, -1.0, c, 1.0, grid_n)
        neg, _ = _grid_sandwich(negate(f), -1.0, c, 1.0, grid_n)
        assert _same_bits(k2[0], -neg[1]) and _same_bits(k2[1], -neg[0])


class TestMidpoint:
    @pytest.mark.parametrize("lo, hi", [(1e308, 1.7e308), (-1.7e308, -1e308), (-1.0, 3.0)])
    def test_midpoint_is_half_of_each_end(self, lo, hi):
        # 0.5 * (lo + hi) overflows for the first two
        assert AInterval(lo, hi, True).midpoint() == 0.5 * lo + 0.5 * hi
        assert math.isfinite(AInterval(lo, hi, True).midpoint())


class TestK1Witness:
    """k1_witness reads its constant off curvature_sandwich's K1 interval; for
    a catalog model that is the certificate's (f''(c-) + f''(c+)) / 2."""

    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("c", [0.0, 0.3, -0.5])
    def test_midpoint_of_the_k1_interval(self, name, negated, c):
        f = MODELS[name]()
        f = negate(f) if negated else f
        k1 = curvature_sandwich(f, I11, c, c)[0]
        assert k1_witness(f, c, I11) == (k1.midpoint() if k1.feasible else None)

    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("name", sorted(CATALOG_MODELS))
    @pytest.mark.parametrize("c", [0.0, 0.3, -0.5])
    def test_certified_constant(self, name, negated, c):
        f = CATALOG_MODELS[name]()
        f = negate(f) if negated else f
        k1 = curvature_sandwich(f, I11, c, c)[0]
        A = k1_witness(f, c, I11)
        assert A == (k1.midpoint() if k1.feasible else None)
        if k1.feasible:
            assert A == 0.5 * (f.d2_minus(c) + f.d2_plus(c))

    @pytest.mark.parametrize("c", [-1.0, 1.0, 2.0])
    def test_split_point_not_interior(self, c):
        assert k1_witness(catalog("cubic"), c, I11) is None


#: every catalog function with a monotone f'', and the negation of each
MONOTONE = {
    **CATALOG_MODELS,
    "neg_signed_square": lambda: catalog("neg_signed_square"),
    **{f"neg {name}": lambda make=make: negate(make()) for name, make in CATALOG_MODELS.items()},
}
#: every certified model: those, and the tables and their negations
CERTIFIED = {
    **MONOTONE,
    **TABLES,
    **{f"neg {name}": lambda make=make: negate(make()) for name, make in TABLES.items()},
}
#: intervals with each signed zero as an end
ZERO_ENDS = [(-1.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-0.0, 1.0), (0.0, 1.0)]


class TestSignedZeroEnds:
    """For a monotone f'' the brackets on [lo, hi] range between f''(lo+)
    and f''(hi-), so every query is decided by those two values, bit for
    bit, at ends and split points that are signed zeros; an exact zero
    extreme comes back as +0.0."""

    @pytest.mark.parametrize("lo, hi", ZERO_ENDS)
    @pytest.mark.parametrize("name", sorted(MONOTONE))
    def test_queries_read_the_one_sided_values(self, name, lo, hi):
        f = MONOTONE[name]()
        a, b = f.d2_plus(lo), f.d2_minus(hi)
        interval = IntervalR(lo, hi)
        for _ in range(2):
            assert _same_bits(convexity_margin(f, interval), min(a, b) + 0.0)
            assert is_3convex(f, interval) == (a <= b + EPS_EQ)
            assert is_3concave(f, interval) == (a >= b - EPS_EQ)

    @pytest.mark.parametrize("c", [0.0, -0.0])
    @pytest.mark.parametrize("name", sorted(MONOTONE))
    def test_split_points_at_signed_zero(self, name, c):
        f = MONOTONE[name]()
        left = (f.d2_plus(-1.0), f.d2_minus(c))
        right = (f.d2_plus(c), f.d2_minus(1.0))
        cls = classify_at_point(f, c, I11)
        assert _same_bits(cls.k1_interval.lo, max(left) + 0.0)
        assert _same_bits(cls.k1_interval.hi, min(right) + 0.0)
        assert (cls.k2_interval.lo, cls.k2_interval.hi) == (max(right), min(left))


#: certificate values: signed zeros, values an ulp apart at 1 and at 2**-30,
#: the extremes, and NaN
_CERT_VALUES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 2.0**-30, -(2.0**-30),
                1e308, -1e308, math.inf, -math.inf, math.nan]


class TestOneShapeBody:
    """is_3convex and is_3concave share one body, which negates the
    certificate for 3-concavity; negation is exact, so each answers its own
    comparison, a <= b + tol or a >= b - tol, bit for bit."""

    @pytest.mark.parametrize("tol", [0.0, 2.0**-30, EPS_EQ])
    def test_every_pair_and_triple(self, tol):
        values = [(a, b) for a in _CERT_VALUES for b in _CERT_VALUES]
        values += [(a, b, a) for a, b in values[::7]]
        for d2 in values:
            f = FunctionModel("cert", IntervalR(-1.0, 1.0), abs, abs, abs, lambda lo, hi: d2)
            pairs = list(zip(d2, d2[1:]))
            assert is_3convex(f, I11, tol=tol) is all(a <= b + tol for a, b in pairs)
            assert is_3concave(f, I11, tol=tol) is all(a >= b - tol for a, b in pairs)


#: grid of the reference scans the certificate is compared with
PROBE_GRID = 17
EPS = 2.0**-52


@st.composite
def _split_interval(draw, domain):
    """An in-domain interval of width at most 200 and an interior split point,
    which is a signed zero about a third of the time."""
    span = min(-domain.lo, domain.hi, 100.0)
    c = draw(st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-0.9 * span, 0.9 * span, allow_nan=False),
    ))
    width = st.floats(1e-3, span, allow_nan=False)
    lo, hi = max(-span, c - draw(width)), min(span, c + draw(width))
    return IntervalR(lo, hi), c


def _rounding(f, lo, hi, order):
    """Generous bound on the rounding error of order-2 or order-3 divided
    differences of f on a PROBE_GRID grid over [lo, hi]."""
    h = (hi - lo) / (PROBE_GRID - 1)
    size = max(abs(f.fn(lo)), abs(f.fn(hi)), 1.0)
    return 64.0 * EPS * size / h**order


def _window_spread(f, lo, hi):
    """How far the grid's extreme end window can sit from the exact
    extreme: the variation of the monotone f'' over three grid steps at
    either end."""
    w = 3.0 * (hi - lo) / (PROBE_GRID - 1)
    return max(
        abs(f.d2_minus(min(lo + w, hi)) - f.d2_plus(lo)),
        abs(f.d2_minus(hi) - f.d2_plus(max(hi - w, lo))),
    )


class TestCertificate:
    """Every model answers every shape query exactly, from the f'' values of
    its certificate (d2_plus(lo) and d2_minus(hi) for a catalog function,
    the piece curvatures for a table); the grid reference (bracket_windows,
    third_windows) on the same function must agree with it."""

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_catalog_models_and_tables_are_certified(self, name):
        # the certificate runs from f''(lo+) to f''(hi-)
        f = CERTIFIED[name]()
        for lo, hi in ((-1.0, 1.0), (-0.5, 0.3), (0.0, 0.7), (-0.95, -0.0)):
            d2 = f.d2_certificate(lo, hi)
            assert (d2[0], d2[-1]) == (f.d2_plus(lo), f.d2_minus(hi))

    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    @given(data=st.data())
    def test_certificate_against_grid(self, name, data):
        f = CERTIFIED[name]()
        interval, c = data.draw(_split_interval(f.domain))
        lo, hi = interval.lo, interval.hi
        left, right = _rounding(f, lo, c, 2), _rounding(f, c, hi, 2)
        k1, k2 = curvature_sandwich(f, interval, c, c)
        g1, g2 = _grid_sandwich(f, lo, c, hi, PROBE_GRID)
        # the grid samples the brackets, the certificate has their exact range
        assert k1.lo >= g1[0] - left and k1.hi <= g1[1] + right
        assert k2.lo >= g2[0] - right and k2.hi <= g2[1] + left
        cls = classify_at_point(f, c, interval)
        assert (cls.k1_interval.lo, cls.k1_interval.hi) == (k1.lo, k1.hi)
        assert (cls.k2_interval.lo, cls.k2_interval.hi) == (k2.lo, k2.hi)

        d2 = f.d2_certificate(lo, hi)
        exact = convexity_margin(f, interval)
        assert exact == min(d2)
        # every bracket is an average of f'' over its triple, so it lies
        # within the certified extremes
        brackets = bracket_windows(f, lo, hi, PROBE_GRID)
        noise = _rounding(f, lo, hi, 2)
        assert exact - noise <= min(brackets) and max(brackets) <= max(d2) + noise
        if name in MONOTONE:
            assert min(brackets) <= exact + _window_spread(f, lo, hi) + noise

        windows = third_windows(f, lo, hi, PROBE_GRID)
        decisive = _rounding(f, lo, hi, 3) + EPS_EQ
        # a nondecreasing f'' has nonnegative third divided differences
        if is_3convex(f, interval):
            assert min(windows) >= -decisive
        if is_3concave(f, interval):
            assert max(windows) <= decisive
        if name not in MONOTONE:
            return
        if min(windows) > decisive or min(windows) < -decisive:
            assert is_3convex(f, interval) == (min(windows) >= -EPS_EQ)
        if max(windows) > decisive or max(windows) < -decisive:
            assert is_3concave(f, interval) == (max(windows) <= EPS_EQ)

    @pytest.mark.parametrize("q", [2.0, -3.0, 0.0, -0.0])
    def test_constant_curvature_is_3convex_and_3concave(self, q):
        for f in (catalog("quadratic", q), negate(catalog("quadratic", q))):
            interval = IntervalR(-1e3, 1e3)
            assert is_3convex(f, interval) and is_3concave(f, interval)
            assert convexity_margin(f, interval) == -convexity_margin(negate(f), interval)

    @pytest.mark.parametrize(
        "query",
        [
            lambda f, iv: convexity_margin(f, iv),
            lambda f, iv: curvature_sandwich(f, iv, 0.0, 0.0),
            lambda f, iv: classify_at_point(f, 0.0, iv),
            lambda f, iv: is_3convex(f, iv),
            lambda f, iv: is_3concave(f, iv),
        ],
        ids=["convexity_margin", "curvature_sandwich", "classify_at_point", "is_3convex",
             "is_3concave"],
    )
    @pytest.mark.parametrize("interval", [(-20.0, 20.0), (-1.0, 20.0), (-20.0, 1.0)])
    def test_errors_are_raised_on_every_call(self, query, interval):
        f = catalog("exp")
        for _ in range(3):
            with pytest.raises(DomainError):
                query(f, IntervalR(*interval))


@pytest.mark.parametrize("shaped", [is_3convex, is_3concave])
def test_zero_width_interval_has_no_shape(shaped):
    assert shaped(catalog("cubic"), IntervalR(0.5, 0.5)) is False


@pytest.mark.parametrize("lo, hi, mid", [(1.0, math.inf, 1.0), (-math.inf, 2.0, 2.0)])
def test_midpoint_with_one_infinite_end_is_the_finite_end(lo, hi, mid):
    assert AInterval(lo, hi, True).midpoint() == mid
