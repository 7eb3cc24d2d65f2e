"""Pointwise 3-convexity classification from a model's f'' certificate.

The second-order bracket is twice the classical second divided difference,

    2 * ([x2,x3]f - [x1,x2]f) / (x3 - x1),

so that on shrinking triples it converges to f''.  A function is 3-convex
at a split point c (K1c) exactly when some constant A satisfies

    sup { brackets of triples left of c }  <=  A  <=  inf { brackets right of c },

in which case F(x) = f(x) - (A/2) x^2 is concave left of c and convex right
of c.  3-concavity at c (K2c) is the same condition for -f, whose brackets
are the negated ones: A lies between the sup of the brackets right of c
and the inf left of c.  So the extremes of the brackets on each side
decide both classes.

Every model carries an f'' certificate (``funclib``), which gives those
extremes in closed form.  On [lo, hi] the certificate lists the values
between which f'' is monotone, and every bracket is an average of f'' over
its triple, so the brackets range between the least and the greatest of
them; f is 3-convex (3-concave) there exactly when they do not decrease
(increase), up to ``tol`` (Popoviciu's n-convexity).  Convexity, the
K1c/K2c intervals and 3-convexity are then exact, with no grid: O(1) for a
catalog entry, O(k) for a table whose k pieces meet the interval.
Endpoints outside the domain raise DomainError.

``bracket_windows`` and ``third_windows`` compute the same brackets, and
third divided differences, on a uniform grid.  No query here calls them;
they are the independent reference that the tests compare the
certificate with.
"""

from __future__ import annotations

import math

from .domain import EPS_EQ, IntervalR, StructureError
from .funclib import DomainError, FunctionModel, eval_fn, require_in_domain

#: relative width below which a side imposes no constraint
_DEGENERATE = 1e-12


def _divided_differences(xs, ys, order: int, scale: float = 1.0) -> list[float]:
    """Divided differences of the given order over consecutive nodes, by the
    recursion [x_i..x_i+k]f = ([x_i+1..x_i+k]f - [x_i..x_i+k-1]f) / (x_i+k - x_i).

    The last level's numerators are multiplied by ``scale`` before dividing.
    Coincident nodes raise StructureError.
    """
    try:
        for k in range(1, order + 1):
            s = scale if k == order else 1.0
            ys = [s * (b - a) / (xr - xl) for a, b, xl, xr in zip(ys, ys[1:], xs, xs[k:])]
        return ys
    except ZeroDivisionError:
        raise StructureError("coincident nodes") from None


def _grid_values(f: FunctionModel, lo: float, hi: float, n: int) -> tuple[list, list]:
    """n uniform nodes i*step + lo on [lo, hi], the last one set to hi, and f there."""
    step = (hi - lo) / (n - 1)
    xs = [i * step + lo for i in range(n - 1)]
    xs.append(hi)
    return xs, [eval_fn(f, x) for x in xs]


def bracket_windows(f: FunctionModel, lo: float, hi: float, n: int) -> list[float]:
    """The doubled second divided difference over all consecutive triples of
    an n-point uniform grid."""
    if n < 3:
        raise StructureError("grid needs at least 3 points per side")
    return _divided_differences(*_grid_values(f, lo, hi, n), 2, 2.0)


def third_windows(f: FunctionModel, lo: float, hi: float, n: int) -> list[float]:
    """Classical third divided differences over consecutive grid quadruples."""
    if n < 4:
        raise StructureError("grid needs at least 4 points")
    return _divided_differences(*_grid_values(f, lo, hi, n), 3)


def _bracket_extremes(f: FunctionModel, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) of the brackets on [lo, hi], from the certificate.  An exact
    zero comes back as +0.0, the sign every bracket of equal values has, so
    that -f's extremes are exactly 0.0 minus f's."""
    require_in_domain(f, lo, hi)
    d2 = f.d2_certificate(lo, hi)
    return min(d2) + 0.0, max(d2) + 0.0


def is_3convex(f: FunctionModel, interval: IntervalR, *, tol: float = EPS_EQ) -> bool:
    """Whether f'' is nondecreasing on the interval, up to tol; false on a
    zero-width interval."""
    if interval.width <= 0.0:
        return False
    require_in_domain(f, interval.lo, interval.hi)
    d2 = f.d2_certificate(interval.lo, interval.hi)
    return all(a <= b + tol for a, b in zip(d2, d2[1:]))


def is_3concave(f: FunctionModel, interval: IntervalR, *, tol: float = EPS_EQ) -> bool:
    if interval.width <= 0.0:
        return False
    require_in_domain(f, interval.lo, interval.hi)
    d2 = f.d2_certificate(interval.lo, interval.hi)
    return all(a >= b - tol for a, b in zip(d2, d2[1:]))


class AInterval:
    """Feasible range for the curvature constant; endpoints may be infinite."""

    __slots__ = ("lo", "hi", "feasible")

    def __init__(self, lo: float, hi: float, feasible: bool):
        self.lo = lo
        self.hi = hi
        self.feasible = feasible

    def contains(self, x: float, tol: float = EPS_EQ) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def midpoint(self) -> float:
        """Midpoint clamped to finite values."""
        lo_fin = math.isfinite(self.lo)
        hi_fin = math.isfinite(self.hi)
        if lo_fin and hi_fin:
            return 0.5 * self.lo + 0.5 * self.hi
        if lo_fin:
            return self.lo
        if hi_fin:
            return self.hi
        return 0.0


def curvature_sandwich(
    f: FunctionModel,
    interval: IntervalR,
    left_hi: float,
    right_lo: float,
    *,
    tol: float = EPS_EQ,
) -> tuple[AInterval, AInterval]:
    """K1 and K2 bracket bounds over [interval.lo, left_hi] and [right_lo, interval.hi].

    K1 runs from the supremum of the brackets on the left piece to the infimum on the
    right piece.  K2 is the negated K1 interval of -f, whose brackets are
    0.0 - w: the negation of each bracket w, with +0.0 for a zero one.  A
    degenerate (zero-width) piece imposes no constraint and contributes an
    infinite bound.
    """
    lo = neg_lo = -math.inf
    hi = neg_hi = math.inf
    if left_hi - interval.lo > _DEGENERATE * max(1.0, abs(left_hi)):
        w_min, w_max = _bracket_extremes(f, interval.lo, left_hi)
        lo, neg_lo = w_max, 0.0 - w_min
    if interval.hi - right_lo > _DEGENERATE * max(1.0, abs(right_lo)):
        w_min, w_max = _bracket_extremes(f, right_lo, interval.hi)
        hi, neg_hi = w_min, 0.0 - w_max
    return AInterval(lo, hi, lo <= hi + tol), AInterval(-neg_hi, -neg_lo, neg_lo <= neg_hi + tol)


class ConvexityClass:
    """Classification at a point: kind is "K1c", "K2c", "both" or "neither"."""

    __slots__ = ("kind", "witness_A", "k1_interval", "k2_interval")

    def __init__(
        self, kind: str, witness_A: float | None, k1_interval: AInterval, k2_interval: AInterval
    ):
        self.kind = kind
        self.witness_A = witness_A
        self.k1_interval = k1_interval
        self.k2_interval = k2_interval


def classify_at_point(
    f: FunctionModel, c: float, interval: IntervalR, *, tol: float = EPS_EQ
) -> ConvexityClass:
    """Classify f at c; the witness constant is the feasible-interval midpoint."""
    if not (interval.lo < c < interval.hi):
        raise StructureError("split point must be interior to the interval")
    k1, k2 = curvature_sandwich(f, interval, c, c, tol=tol)
    if k1.feasible and k2.feasible:
        kind = "both"
        inter = AInterval(max(k1.lo, k2.lo), min(k1.hi, k2.hi), True)
        witness = inter.midpoint() if inter.lo <= inter.hi + tol else k1.midpoint()
    elif k1.feasible:
        kind, witness = "K1c", k1.midpoint()
    elif k2.feasible:
        kind, witness = "K2c", k2.midpoint()
    else:
        kind, witness = "neither", None
    return ConvexityClass(kind, witness, k1, k2)


def convexity_margin(f: FunctionModel, interval: IntervalR) -> float:
    """Minimum bracket on the interval, the least f'' value of the
    certificate; >= 0 (up to tolerance) exactly for convex f.

    A degenerate interval imposes no constraint and yields 0.
    """
    if interval.width <= _DEGENERATE * max(1.0, abs(interval.lo)):
        return 0.0
    return _bracket_extremes(f, interval.lo, interval.hi)[0]


def k1_witness(
    f: FunctionModel, c: float, interval: IntervalR, *, tol: float = EPS_EQ
) -> float | None:
    """Constant making f 3-convex at c: the midpoint of the K1 interval of
    ``curvature_sandwich`` split at c, which for a nondecreasing f'' is
    (f''(c-) + f''(c+)) / 2; None when c is not interior or the interval
    is infeasible."""
    if not interval.lo < c < interval.hi:
        return None
    try:
        k1 = curvature_sandwich(f, interval, c, c, tol=tol)[0]
    except DomainError:
        return None
    return k1.midpoint() if k1.feasible else None
