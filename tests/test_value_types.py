"""The value types: plain slotted classes whose constructors validate and
convert their fields."""

import inspect
import math
import re

import pytest

from jensengap.analysis import AInterval, ConvexityClass
from jensengap.domain import (
    AffineConfig,
    Check,
    DiscreteFunctional,
    FunctionOnOmega,
    IntervalR,
    Mt1Scenario,
    StructureError,
    ValidityReport,
    WeightedGroup,
)
from jensengap.funclib import FunctionModel, TabulatedFunction, catalog
from jensengap.report import HOLDS, ChainReport
from jensengap import scenario
from jensengap.scenario import THEOREMS, Theorem
from jensengap.scengen import GenSpec, SearchResult

VALUE_TYPES = [
    IntervalR, WeightedGroup, AffineConfig, Check, ValidityReport, FunctionModel,
    TabulatedFunction, AInterval, ConvexityClass, Mt1Scenario, FunctionOnOmega,
    DiscreteFunctional, ChainReport, Theorem, GenSpec, SearchResult,
]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntervalR(1, 0), "empty interval [1.0, 0.0]"),
        (lambda: IntervalR(0.0, math.inf), "interval endpoints must be finite"),
        (lambda: IntervalR(math.nan, 1.0), "interval endpoints must be finite"),
        (lambda: WeightedGroup((0.0, 1.0), (1.0,)), "points and weights must have equal length"),
        (lambda: FunctionOnOmega(()), "a function needs at least one value"),
        (lambda: FunctionOnOmega((1.0, math.inf)), "function values must be finite"),
        (lambda: DiscreteFunctional(()), "a functional needs at least one weight"),
        (lambda: DiscreteFunctional((0.5, -0.1)), "functional weights must be nonnegative"),
        (lambda: TabulatedFunction((0.0, 1.0), (0.0,)), "nodes and values must have equal length"),
        (lambda: TabulatedFunction((0.0,), (0.0,)), "a table needs at least 2 nodes"),
        (
            lambda: TabulatedFunction((0.0, 1.0, 1.0), (0.0, 1.0, 2.0)),
            "table nodes must be strictly increasing",
        ),
        (lambda: GenSpec(seed=0, c=1.0), "split point must be interior to the interval"),
        (
            lambda: GenSpec(seed=0, sizes=(0, 2, 1)),
            "group sizes must satisfy n >= 1, m >= 1, l >= 0",
        ),
    ],
)
def test_constructor_validation(build, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        build()


def test_fields_are_converted_to_float_tuples():
    iv = IntervalR(0, 1)
    assert (type(iv.lo), type(iv.hi)) == (float, float)
    g = WeightedGroup([1, 2], [0, 1])
    assert g.points == (1.0, 2.0) and g.weights == (0.0, 1.0)
    assert type(g.points[0]) is float
    assert DiscreteFunctional([1]).weights == (1.0,)
    assert FunctionOnOmega(iter([2])).values == (2.0,)
    assert TabulatedFunction([0, 1], [1, 0]).nodes == (0.0, 1.0)


def test_keyword_construction_and_defaults():
    left = AffineConfig(WeightedGroup((-1.0,), (0.5,)), WeightedGroup((0.0,), (0.5,)))
    assert len(left.minus_c) == 0
    s = Mt1Scenario(left, left, c=0.0, interval=IntervalR(-1, 1))
    assert (s.left, s.c, s.interval.hi) == (left, 0.0, 1.0)
    spec = GenSpec(seed=4)
    assert (spec.interval.lo, spec.interval.hi, spec.c, spec.sizes) == (-1.0, 1.0, 0.0, (2, 2, 1))
    rep = ChainReport(HOLDS, margins=(0.5,))
    assert rep.values == {} and rep.hypotheses is None and rep.margin == 0.5
    assert ValidityReport().checks == ()


@pytest.mark.parametrize("left_out", ["d2_minus", "d2_plus", "d2_certificate"])
def test_function_model_needs_both_d2_maps_and_the_certificate(left_out):
    maps = {
        "d2_minus": lambda x: 0.0,
        "d2_plus": lambda x: 0.0,
        "d2_certificate": lambda lo, hi: (0.0, 0.0),
    }
    del maps[left_out]
    with pytest.raises(TypeError, match=left_out):
        FunctionModel("id", IntervalR(0, 1), fn=float, **maps)


def test_mutable_defaults_are_not_shared():
    a, b = ChainReport(HOLDS), ChainReport(HOLDS)
    a.details["x"] = 1.0
    assert b.details == {}
    assert a.values is not b.values
    r1, r2 = SearchResult({}, -1.0), SearchResult({}, -1.0)
    assert r1.details is not r2.details and r1.seed_trace == ()
    t1, t2 = Theorem("verify_x", {"m": "f"}, ()), Theorem("verify_y", {"m": "f"}, ())
    # optional is a tuple, immutable, so two entries may share it
    assert t1.optional == t2.optional == () and t1.mode_values is not t2.mode_values


@pytest.mark.parametrize("theorem_id", list(THEOREMS))
def test_optional_fields_take_the_verifiers_default(theorem_id):
    """The registry names each optional field and holds no value for it: a
    field left out takes the default of the verifier's keyword."""
    entry = THEOREMS[theorem_id]
    params = inspect.signature(getattr(scenario, entry.verifier)).parameters
    for key in entry.optional:
        assert params[key].default is not inspect.Parameter.empty


def test_groups_and_configurations_compare_by_value():
    a = WeightedGroup((0.0, 1.0), (0.5, 0.5))
    assert a == WeightedGroup([0, 1], [0.5, 0.5])
    assert a != WeightedGroup((0.0, 1.0), (0.25, 0.75))
    assert AffineConfig(a, a) == AffineConfig(a, WeightedGroup((0.0, 1.0), (0.5, 0.5)))
    assert AffineConfig(a, a) != AffineConfig(a, a, a)


def test_models_and_tables_hash_by_identity():
    """The scan and table-model memos key on these objects: equal contents
    must not make two of them one key."""
    t1, t2 = (TabulatedFunction((0.0, 1.0), (0.0, -1.0)) for _ in range(2))
    assert t1 != t2 and len({t1, t2}) == 2
    m1, m2 = (catalog("exp") for _ in range(2))
    assert m1 != m2 and len({m1, m2}) == 2


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_value_types_have_slots_and_no_instance_dict(cls):
    assert "__slots__" in vars(cls)
    assert "__dict__" not in dir(cls)
