import math

import pytest

from jensengap.analysis import k1_witness
from jensengap.domain import IntervalR, StructureError
from jensengap.funclib import (
    TABLE_CACHE_SIZE,
    DomainError,
    TabulatedFunction,
    _parse_table,
    catalog,
    eval_fn,
    fn_spec_from_string,
    load_table,
    negate,
    tabulated_model,
)
from jensengap.scenario import model_from_spec


class TestEval:
    def test_cubic(self):
        assert eval_fn(catalog("cubic"), 2.0) == 8.0

    def test_signed_square(self):
        assert eval_fn(catalog("signed_square"), -3.0) == -9.0

    def test_quadratic(self):
        assert eval_fn(catalog("quadratic", 2), 3.0) == 9.0

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            eval_fn(catalog("exp"), 11.0)


class TestOneSidedSecondDerivative:
    def test_signed_square_at_kink(self):
        f = catalog("signed_square")
        assert f.d2_minus(0.0) == -2.0
        assert f.d2_plus(0.0) == 2.0

    def test_cubic_analytic(self):
        f = catalog("cubic")
        for c in (-0.7, 0.0, 1.3):
            assert f.d2_minus(c) == pytest.approx(6 * c)
            assert f.d2_plus(c) == pytest.approx(6 * c)

    def test_quadratic_constant(self):
        f = catalog("quadratic", 5)
        assert f.d2_minus(-2.0) == 5.0
        assert f.d2_plus(3.0) == 5.0


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(StructureError):
            catalog("sigmoid")

    def test_quadratic_requires_param(self):
        with pytest.raises(StructureError):
            catalog("quadratic")

    def test_neg_signed_square(self):
        f = catalog("neg_signed_square")
        assert eval_fn(f, -3.0) == 9.0 and eval_fn(f, 2.0) == -4.0
        assert (f.d2_minus(0.0), f.d2_plus(0.0)) == (2.0, -2.0)

    @pytest.mark.parametrize(
        "name", ["quadratic:2", "cubic", "signed_square", "neg_signed_square", "exp"]
    )
    def test_parse_fn_spec(self, name):
        assert model_from_spec(fn_spec_from_string(name)).name

    def test_parse_rejects_stray_param(self):
        with pytest.raises(StructureError):
            model_from_spec(fn_spec_from_string("cubic:3"))

    @pytest.mark.parametrize("name", ["cubic", "signed_square", "neg_signed_square", "exp"])
    def test_catalog_rejects_stray_param(self, name):
        with pytest.raises(StructureError, match="takes no parameter"):
            catalog(name, 3.0)


class TestNegate:
    def test_values_and_curvature_flip(self):
        f = catalog("exp")
        g = negate(f)
        assert eval_fn(g, 1.0) == -math.e
        assert g.d2_minus(0.3) == pytest.approx(-math.exp(0.3))


class TestTabulated:
    def test_load_table_with_comments(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("# node value\n0 0\n1 1   # one\n\n2 8\n3 27\n", encoding="utf-8")
        tab = load_table(path)
        assert tab.nodes == (0.0, 1.0, 2.0, 3.0)
        assert tab.values == (0.0, 1.0, 8.0, 27.0)

    def test_nodes_must_increase(self):
        with pytest.raises(StructureError):
            TabulatedFunction((0.0, 0.0, 1.0), (1.0, 2.0, 3.0))

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1\n", encoding="utf-8")
        with pytest.raises(StructureError):
            load_table(path)

    def test_quadratic_reproduced_exactly(self):
        nodes = tuple(-2.0 + 0.5 * i for i in range(9))
        tab = TabulatedFunction(nodes, tuple(3 * x * x - x + 1 for x in nodes))
        f = tabulated_model(tab)
        for x in (-1.9, -0.3, 0.0, 0.26, 1.99):
            assert eval_fn(f, x) == pytest.approx(3 * x * x - x + 1, abs=1e-12)

    def test_interpolation_tracks_smooth_function(self):
        nodes = tuple(-1.0 + i / 200 for i in range(401))
        tab = TabulatedFunction(nodes, tuple(x**4 for x in nodes))
        f = tabulated_model(tab)
        for x in (-0.77, -0.2, 0.33, 0.95):
            assert eval_fn(f, x) == pytest.approx(x**4, abs=1e-6)

    def test_two_node_table_is_linear(self):
        f = tabulated_model(TabulatedFunction((0.0, 2.0), (1.0, 5.0)))
        assert eval_fn(f, 1.0) == pytest.approx(3.0)

    def test_signed_square_table_is_reproduced(self):
        # the kink of x|x| sits at a node, so the spline is x|x| itself
        nodes = tuple(-1.0 + i / 100 for i in range(201))
        f = tabulated_model(TabulatedFunction(nodes, tuple(x * abs(x) for x in nodes)))
        for x in (-0.7312, -0.0051, -0.0049, 0.0, 0.0049, 0.0051, 0.4999, 0.5, 1.0):
            assert eval_fn(f, x) == pytest.approx(x * abs(x), rel=1e-9, abs=1e-12)
        assert (f.d2_minus(0.0), f.d2_plus(0.0)) == pytest.approx((-2.0, 2.0), abs=1e-9)
        assert (f.d2_minus(0.5), f.d2_plus(-0.5)) == pytest.approx(
            (2.0, -2.0), abs=1e-9
        )

    @pytest.mark.parametrize("fn", [lambda x: x**3, math.sin, lambda x: x * abs(x)])
    def test_spline_is_continuous_with_continuous_slope(self, fn):
        nodes = tuple(-1.0 + i / 100 for i in range(201))
        tab = TabulatedFunction(nodes, tuple(fn(x) for x in nodes))
        f = tabulated_model(tab)
        for i in range(1, 200):
            # at each node and between each two
            for x in (nodes[i], 0.5 * (nodes[i - 1] + nodes[i])):
                h = 1e-7
                assert abs(eval_fn(f, x + 1e-10) - eval_fn(f, x - 1e-10)) <= 1e-8
                left = (eval_fn(f, x) - eval_fn(f, x - h)) / h
                right = (eval_fn(f, x + h) - eval_fn(f, x)) / h
                assert left == pytest.approx(right, abs=1e-5)
            assert eval_fn(f, nodes[i]) == pytest.approx(tab.values[i], abs=1e-12)

    def test_curvature_is_constant_on_each_piece(self):
        nodes = (0.0, 0.5, 1.5, 2.0, 3.0)
        tab = TabulatedFunction(nodes, (1.0, -2.0, 0.5, 4.0, 3.0))
        f = tabulated_model(tab)
        for i, (a, b) in enumerate(zip(nodes, nodes[1:])):
            kappa = tab.curvatures[i]
            assert f.d2_plus(a) == f.d2_minus(b) == kappa
            mid = 0.5 * (a + b)
            assert f.d2_plus(mid) == f.d2_minus(mid) == kappa
        assert f.d2_certificate(0.25, 1.5) == tab.curvatures[:2]
        assert f.d2_certificate(0.5, 1.6) == tab.curvatures[1:3]

    @pytest.mark.parametrize("values", [(0.0, math.inf, 1.0), (0.0, math.nan, 1.0),
                                        (-1e308, 1e308, -1e308)])
    def test_non_finite_spline_is_malformed(self, values):
        with pytest.raises(StructureError, match="spline must be finite"):
            TabulatedFunction((0.0, 1.0, 2.0), values)


def write_table(path, fn, n=201):
    """An n-node table of fn over [-1, 1]."""
    nodes = [-1.0 + 2.0 * i / (n - 1) for i in range(n)]
    path.write_text("".join(f"{x!r} {fn(x)!r}\n" for x in nodes), encoding="utf-8")
    return path


class TestTableFileCache:
    """A table file is read on every load but parsed and fitted once per
    content."""

    I11 = IntervalR(-1.0, 1.0)

    def test_unchanged_file_is_parsed_and_fitted_once(self, tmp_path):
        path = write_table(tmp_path / "sq.txt", lambda x: x * x)
        f = catalog("tabulated-spline", str(path))
        g = catalog("tabulated-spline", str(path))
        assert load_table(path) is load_table(str(path)) is f.fn is g.fn
        assert k1_witness(g, 0.0, self.I11) == k1_witness(f, 0.0, self.I11)

    def test_rewritten_file_gets_a_new_fit(self, tmp_path):
        path = write_table(tmp_path / "sq.txt", lambda x: x * x)
        f = catalog("tabulated-spline", str(path))
        assert k1_witness(f, 0.0, self.I11) == pytest.approx(2.0, rel=1e-9)
        write_table(path, lambda x: 3.0 * x * x)
        g = catalog("tabulated-spline", str(path))
        assert g.fn is not f.fn
        assert k1_witness(g, 0.0, self.I11) == pytest.approx(6.0, rel=1e-9)

    def test_malformed_file_raises_on_every_call(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n1 1\n2 x\n", encoding="utf-8")
        for _ in range(3):
            with pytest.raises(StructureError, match=f"{path}:3: "):
                catalog("tabulated-spline", str(path))

    def test_tables_differing_in_the_sign_of_a_zero_keep_their_own_fits(self, tmp_path):
        # equal as values, but f(0) = -0.0 + 0.0 * slope is -0.0 only for the
        # first table
        neg, pos = tmp_path / "neg.txt", tmp_path / "pos.txt"
        neg.write_text("0 -0.0\n1 -1\n", encoding="utf-8")
        pos.write_text("0 0.0\n1 -1\n", encoding="utf-8")
        f = catalog("tabulated-spline", str(neg))
        g = catalog("tabulated-spline", str(pos))
        assert math.copysign(1.0, eval_fn(f, 0.0)) == -1.0
        assert math.copysign(1.0, eval_fn(g, 0.0)) == 1.0

    def test_cache_stays_bounded(self, tmp_path):
        tables = []
        for k in range(4 * TABLE_CACHE_SIZE):
            path = write_table(tmp_path / f"t{k}.txt", lambda x, k=k: (k + 1) * x * x, n=5)
            tables.append(catalog("tabulated-spline", str(path)).fn)
            assert _parse_table.cache_info().currsize <= TABLE_CACHE_SIZE
        assert len({id(t) for t in tables}) == len(tables)
