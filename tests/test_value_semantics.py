"""Which inputs the weighted-sum value types and their sums reject, and
with what exception and message.

``WeightedGroup``, ``DiscreteFunctional``, ``FunctionOnOmega``, ``apply``
and ``apply_fn`` sit on the per-scenario path of every verifier, so they
must reject exactly these inputs and accept exactly the others, whatever
their sums are computed with.
"""

import math
import re

import pytest

from jensengap.domain import (
    CheckSet,
    DiscreteFunctional,
    FunctionOnOmega,
    IntervalR,
    StructureError,
    WeightedGroup,
    apply,
)
from jensengap.funclib import DomainError, catalog
from jensengap.functional import apply_fn, verify_ic3, verify_it3, verify_mc3, verify_mt4

NAN, INF = math.nan, math.inf
QUAD = catalog("quadratic", 2.0)


def _raises(build, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build, exc, message",
    [
        (lambda: WeightedGroup((0.0, 1.0), (1.0,)), StructureError,
         "points and weights must have equal length"),
        (lambda: WeightedGroup((), (1.0,)), StructureError,
         "points and weights must have equal length"),
        (lambda: WeightedGroup(("x",), (1.0,)), ValueError,
         "could not convert string to float: 'x'"),
        (lambda: DiscreteFunctional(()), StructureError, "a functional needs at least one weight"),
        (lambda: DiscreteFunctional((0.5, -0.1)), StructureError,
         "functional weights must be nonnegative"),
        # a NaN ahead of a negative weight must not hide it
        (lambda: DiscreteFunctional((NAN, -0.5)), StructureError,
         "functional weights must be nonnegative"),
        (lambda: DiscreteFunctional((-INF,)), StructureError,
         "functional weights must be nonnegative"),
        (lambda: FunctionOnOmega(()), StructureError, "a function needs at least one value"),
        (lambda: FunctionOnOmega((0.0, NAN)), StructureError, "function values must be finite"),
        (lambda: FunctionOnOmega((-INF, 0.0)), StructureError, "function values must be finite"),
    ],
)
def test_constructors_reject(build, exc, message):
    _raises(build, exc, message)


def test_constructors_accept():
    """Negative, NaN and infinite group weights, empty groups, NaN and
    infinite functional weights and negative function values pass."""
    assert len(WeightedGroup((), ())) == 0
    g = WeightedGroup((0.0, INF), (-1.0, NAN))
    assert g.points == (0.0, INF) and g.weights[0] == -1.0 and math.isnan(g.weights[1])
    assert math.isnan(g.total)
    assert WeightedGroup((1.0, 2.0), (-0.5, 0.25)).total == -0.25
    L = DiscreteFunctional((NAN, 0.5))
    assert math.isnan(L.weights[0]) and math.isnan(L.total)
    assert not CheckSet().unit_total("unital.L", L.total)
    assert DiscreteFunctional((INF, 0.0)).total == INF
    assert DiscreteFunctional((0.0, 0.0)).total == 0.0
    assert FunctionOnOmega((-1.0, -2.0)).values == (-1.0, -2.0)


def test_totals_are_exactly_rounded_sums():
    weights = (0.1, 0.2, 0.3, 1e16, -1e16)
    assert WeightedGroup((0.0,) * 5, weights).total == math.fsum(weights)
    assert DiscreteFunctional((0.1,) * 10).total == 1.0
    assert CheckSet(0.0).unit_total("unital.L", DiscreteFunctional((0.1,) * 10).total)


@pytest.mark.parametrize(
    "fn", [apply, lambda L, u: apply_fn(L, QUAD, u)], ids=["apply", "apply_fn"]
)
@pytest.mark.parametrize(
    "L, u, exc, message",
    [
        ([0.5, 0.5], [1.0, 2.0, 3.0], StructureError, "length mismatch: 2 weights vs 3 values"),
        ([1.0], [], StructureError, "a function needs at least one value"),
        ([], [1.0], StructureError, "a functional needs at least one weight"),
        # the functional is converted first
        ([], [], StructureError, "a functional needs at least one weight"),
        ([-1.0], [NAN], StructureError, "functional weights must be nonnegative"),
        ([1.0], [INF], StructureError, "function values must be finite"),
        ([0.5, 0.5], [1.0, NAN], StructureError, "function values must be finite"),
        (DiscreteFunctional([1.0]), FunctionOnOmega([1.0, 2.0]), StructureError,
         "length mismatch: 1 weights vs 2 values"),
    ],
)
def test_sums_reject(fn, L, u, exc, message):
    _raises(lambda: fn(L, u), exc, message)


def test_sums_accept():
    assert apply([0.25, 0.75], [4.0, -8.0]) == -5.0
    assert apply(DiscreteFunctional([1.0]), FunctionOnOmega([3.0])) == 3.0
    assert math.isnan(apply([NAN, 0.5], [1.0, 1.0]))
    assert apply([0.1] * 10, [1.0] * 10) == 1.0
    assert apply_fn([0.5, 0.5], QUAD, [1.0, 3.0]) == 5.0
    # a zero weight skips its value, so no evaluation can fail on it
    assert apply_fn([1.0, 0.0], QUAD, [1.0, 1e300]) == 1.0
    assert math.isnan(apply_fn([NAN, 0.0], QUAD, [1.0, 1.0]))


def test_apply_fn_evaluates_in_the_domain():
    _raises(lambda: apply_fn([1.0], catalog("exp"), [11.0]), DomainError,
            "exp: x=11.0 outside domain [-10.0, 10.0]")


def test_split_transfer_rejects_squares_that_overflow():
    """Values whose squares overflow pass every range check; their second
    moments are then past the float range."""
    big = 1e200
    iv = IntervalR(-1e300, 1e300)
    _raises(
        lambda: verify_mt4(
            QUAD, [0.5, 0.5], [0.5, 0.5], [big, big], [-3 * big, 3 * big],
            [big, big], [-3 * big, 3 * big],
            c=0.0, interval=iv, inner=IntervalR(-2 * big, 2 * big), mode="literal",
        ),
        StructureError,
        "weighted sum L(u**2) past the float range",
    )


@pytest.mark.parametrize(
    "verify, exc, message",
    [
        (lambda: verify_ic3(QUAD, [[0.5], [0.5]], [[1.0], [1.0, 2.0]],
                            interval=IntervalR(-5.0, 5.0)),
         StructureError, "length mismatch: 1 weights vs 2 values"),
        (lambda: verify_mc3(QUAD, [[0.5], [0.5]], [[-1.0], [-1.0, -2.0]], [[1.0], [1.0]],
                            c=0.0, interval=IntervalR(-5.0, 5.0), mode="literal"),
         StructureError, "length mismatch: 1 weights vs 2 values"),
        # 10 + 5e-10 is inside [-10, 10] up to the tolerance, but outside exp's domain
        (lambda: verify_it3(catalog("exp"), [[0.5], [0.5]], [[9.0], [9.0]],
                            [[0.5, 0.5]], [[8.0, 10.0 + 5e-10]],
                            inner=IntervalR(8.5, 9.5), interval=IntervalR(-10.0, 10.0)),
         DomainError, "exp: x=10.0000000005 outside domain [-10.0, 10.0]"),
    ],
    ids=["ic3-length", "mc3-length", "it3-domain"],
)
def test_family_members_keep_their_own_errors(verify, exc, message):
    """A family's terms are listed before they are summed, so a member's own
    error is not taken for an overflow of the family sum."""
    _raises(verify, exc, message)
