"""Value types for weighted affine combinations on real intervals, and the
weight and value vectors of discrete positive linear functionals.

An affine configuration carries two nonnegative "plus" groups and one
nonnegative "minus" group.  The group masses alpha, beta, gamma must satisfy
alpha + beta - gamma = 1 with alpha, beta in (0, 1], and every minus point
must lie in the convex hull of the two plus-group barycenters.
``validate_affine_config`` judges these hypotheses, and
``record_affine_config`` records them among a verifier's checks; the
measurements ``spread`` and ``combination_value`` compute on any well-formed
configuration and judge none of them.

A functional is a nonnegative weight vector over the indices 1..n; it is
unital when its weights sum to 1.  Functions are plain value vectors of
matching length, and ``apply`` is their weighted sum.

The value types are plain classes with ``__slots__``, each validating its
fields once, in ``__init__``, where groups and functionals also sum their
total weight.  They compare by identity, except that weighted groups and
configurations compare by value.  Every sum that feeds a margin or an
equality check, here and in the verifiers and generators, is a
``checked_fsum``: the correctly rounded ``math.fsum`` of its terms, so a sum
computed once may stand for any recomputation, and the one place that
reports a sum past the float range, as malformed input.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from operator import mul

#: absolute tolerance for equality constraints on normalized quantities
EPS_EQ = 1e-9


class StructureError(ValueError):
    """Malformed input: length mismatch, empty group, bad payload shape."""


class InfeasibleError(RuntimeError):
    """Generation could not satisfy the requested constraints."""


def checked_fsum(terms, what: str, *factors) -> float:
    """``math.fsum(terms)``, exactly.  A sum past the float range is malformed
    input, a StructureError naming ``what``: fsum overflows or meets both
    infinities, or the terms are products of the ``factors`` sequences and
    come out infinite from finite factors.  With no factors, an infinite sum
    comes from an infinite term and is returned.  The terms are consumed
    inside the guard: list first any term that may raise an error of its own."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # an overflow, or fsum's "-inf + inf"
        total = None
    if total is None or factors and math.isinf(total) and all(map(math.isfinite, chain(*factors))):
        raise StructureError(f"{what} past the float range")
    return total


class IntervalR:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo = float(lo)
        self.hi = hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise StructureError("interval endpoints must be finite")
        if lo > hi:
            raise StructureError(f"empty interval [{lo}, {hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "IntervalR", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol


#: the name of each moment's sum, formed once
_MOMENT_SUMS = {k: f"group moment sum(w * p**{k})" for k in (1, 2)}


class WeightedGroup:
    """Points with nonnegative weights.  May be empty (used for minus groups)."""

    __slots__ = ("points", "weights", "total")

    def __init__(self, points, weights):
        self.points = tuple(map(float, points))
        self.weights = weights = tuple(map(float, weights))
        if len(self.points) != len(weights):
            raise StructureError("points and weights must have equal length")
        self.total = checked_fsum(weights, "group weights sum")

    def __eq__(self, other):
        if other.__class__ is not WeightedGroup:
            return NotImplemented
        return self.points == other.points and self.weights == other.weights

    def __len__(self) -> int:
        return len(self.points)

    def active_points(self) -> tuple[float, ...]:
        """Points carrying strictly positive weight."""
        return tuple(compress(self.points, map((0.0).__lt__, self.weights)))

    def moment(self, k: int) -> float:
        """sum(w * p**k) for k = 1 or 2; past the float range it is malformed
        input, though infinite or NaN weights or points may give an infinite sum."""
        w, p = self.weights, self.points
        # float(k).__rpow__(p) is p ** k, mapped lazily so that its overflow
        # is raised inside the sum
        return checked_fsum(map(mul, w, map(float(k).__rpow__, p)), _MOMENT_SUMS[k], w, p)


_EMPTY = WeightedGroup((), ())


class AffineConfig:
    __slots__ = ("plus_a", "plus_b", "minus_c")

    def __init__(
        self, plus_a: WeightedGroup, plus_b: WeightedGroup, minus_c: WeightedGroup = _EMPTY
    ):
        self.plus_a = plus_a
        self.plus_b = plus_b
        self.minus_c = minus_c

    def __eq__(self, other):
        if other.__class__ is not AffineConfig:
            return NotImplemented
        return self.all_groups() == other.all_groups()

    def all_groups(self) -> tuple[tuple[str, WeightedGroup, int], ...]:
        """(label, group, sign) triples in canonical order."""
        return (
            ("plus_a", self.plus_a, 1),
            ("plus_b", self.plus_b, 1),
            ("minus_c", self.minus_c, -1),
        )

    def active_points(self) -> tuple[float, ...]:
        return (
            self.plus_a.active_points()
            + self.plus_b.active_points()
            + self.minus_c.active_points()
        )


class Mt1Scenario:
    """Left/right configurations around a split point inside an interval."""

    __slots__ = ("left", "right", "c", "interval")

    def __init__(self, left: AffineConfig, right: AffineConfig, c: float, interval: IntervalR):
        self.left = left
        self.right = right
        self.c = c
        self.interval = interval


class Check:
    __slots__ = ("name", "residual", "ok")

    def __init__(self, name: str, residual: float, ok: bool):
        self.name = name
        self.residual = residual
        self.ok = ok


class ValidityReport:
    __slots__ = ("valid", "violations", "checks")

    def __init__(
        self, valid: bool, violations: tuple[tuple[str, float], ...], checks: tuple[Check, ...] = ()
    ):
        self.valid = valid
        self.violations = violations
        self.checks = checks


class CheckSet:
    """Accumulates named residual checks and renders them as a ValidityReport.
    ``ok`` is true while every check recorded so far holds."""

    __slots__ = ("tol", "ok", "_checks")

    def __init__(self, tol: float = EPS_EQ):
        self.tol = tol
        self.ok = True
        self._checks: list[Check] = []

    def record(self, name: str, residual: float, ok: bool) -> bool:
        ok = bool(ok)
        self._checks.append(Check(name, float(residual), ok))
        self.ok = self.ok and ok
        return ok

    def equality(self, name: str, residual: float, scale: float = 1.0) -> bool:
        """|residual| must not exceed tol * max(1, |scale|)."""
        residual = float(abs(residual))
        scale = abs(scale)
        ok = residual <= self.tol * (scale if scale > 1.0 else 1.0)
        self._checks.append(Check(name, residual, ok))
        self.ok = self.ok and ok
        return ok

    def at_least(self, name: str, margin: float, scale: float = 1.0) -> bool:
        """margin must be >= -tol * max(1, |scale|)."""
        scale = abs(scale)
        ok = margin >= -self.tol * (scale if scale > 1.0 else 1.0)
        self._checks.append(Check(name, float(margin), ok))
        self.ok = self.ok and ok
        return ok

    def report(self) -> ValidityReport:
        checks = tuple(self._checks)
        violations = tuple((c.name, c.residual) for c in checks if not c.ok)
        return ValidityReport(valid=not violations, violations=violations, checks=checks)


def barycenter(g: WeightedGroup) -> float:
    """Weight-normalized mean of a group; requires positive total weight.
    A sum past the float range is malformed input, though infinite or NaN
    weights or points may give an infinite mean."""
    total = g.total
    if total <= 0.0:
        raise StructureError("barycenter needs positive total weight")
    w, p = g.weights, g.points
    return checked_fsum(map(mul, w, p), "barycenter sum(w * p)", w, p) / total


def hull_membership(x: float, a: float, b: float, tol: float = EPS_EQ) -> bool:
    """Closed-interval membership of x in the 1-D hull of {a, b}."""
    return min(a, b) - tol <= x <= max(a, b) + tol


def _require_structure(cfg: AffineConfig) -> None:
    if len(cfg.plus_a) == 0:
        raise StructureError("plus_a group is empty")
    if len(cfg.plus_b) == 0:
        raise StructureError("plus_b group is empty")


def validate_affine_config(cfg: AffineConfig, tol: float = EPS_EQ) -> ValidityReport:
    """Check every configuration invariant and report each numeric residual.
    Minus points are tested against the hull of the two group barycenters."""
    cs = CheckSet(tol)
    record_affine_config(cs, "", cfg)
    return cs.report()


def record_affine_config(cs: CheckSet, prefix: str, cfg: AffineConfig) -> bool:
    """Record the checks of ``validate_affine_config`` in cs, each name
    prefixed with ``prefix``; true when all of them hold."""
    _require_structure(cfg)
    tol = cs.tol
    ok = True
    for name, grp, _ in cfg.all_groups():
        wmin = min(grp.weights) if grp.weights else 0.0
        ok &= cs.at_least(f"{prefix}{name}.weights_nonneg", wmin)
    alpha = cfg.plus_a.total
    beta = cfg.plus_b.total
    gamma = cfg.minus_c.total
    ok &= cs.record(f"{prefix}alpha_range", alpha, 0.0 < alpha <= 1.0 + tol)
    ok &= cs.record(f"{prefix}beta_range", beta, 0.0 < beta <= 1.0 + tol)
    ok &= cs.at_least(f"{prefix}gamma_nonneg", gamma)
    ok &= cs.equality(f"{prefix}mass_balance", alpha + beta - gamma - 1.0)
    if alpha > 0.0 and beta > 0.0:
        h_lo, h_hi = sorted((barycenter(cfg.plus_a), barycenter(cfg.plus_b)))
        worst = 0.0
        for k, (p, w) in enumerate(zip(cfg.minus_c.points, cfg.minus_c.weights)):
            if w <= 0.0:
                continue  # inert points are not hull-checked
            dist = max(h_lo - p, p - h_hi, 0.0)
            if dist > tol:
                ok &= cs.record(f"{prefix}hull[{k}]", dist, False)
            worst = max(worst, dist)
        ok &= cs.record(f"{prefix}hull", worst, worst <= tol)
    return ok


def _signed_moment(cfg: AffineConfig, k: int) -> float:
    return cfg.plus_a.moment(k) + cfg.plus_b.moment(k) - cfg.minus_c.moment(k)


def combination_value(cfg: AffineConfig, tol: float = EPS_EQ) -> float:
    """Signed combination sum(w*p) over plus groups minus the minus group.

    For a valid configuration the value lies in the hull of the two
    barycenters; a value outside it by more than tol * max(1, |barycenter|)
    is a StructureError.
    """
    value = _signed_moment(cfg, 1)
    a_bar = barycenter(cfg.plus_a)
    b_bar = barycenter(cfg.plus_b)
    span = max(1.0, abs(a_bar), abs(b_bar))
    if not hull_membership(value, a_bar, b_bar, tol * span):
        raise StructureError("combination value escapes the barycenter hull")
    return value


def spread(cfg: AffineConfig) -> float:
    """Signed second moment minus squared signed first moment.

    Nonnegative (up to rounding) for every valid configuration; transforms
    as k^2 * spread under the point map x -> k*x + t.
    """
    m1 = _signed_moment(cfg, 1)
    return _signed_moment(cfg, 2) - m1 * m1


class FunctionOnOmega:
    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values = tuple(map(float, values))
        if not values:
            raise StructureError("a function needs at least one value")
        if not all(map(math.isfinite, values)):
            raise StructureError("function values must be finite")


class DiscreteFunctional:
    """Nonnegative weight vector; unital when the weights sum to 1."""

    __slots__ = ("weights", "total")

    def __init__(self, weights):
        self.weights = weights = tuple(map(float, weights))
        if not weights:
            raise StructureError("a functional needs at least one weight")
        # w < 0.0 weight by weight: NaN passes and, unlike with min(), hides nothing
        if any(map((0.0).__gt__, weights)):
            raise StructureError("functional weights must be nonnegative")
        self.total = checked_fsum(weights, "functional weights sum")

    def is_unital(self, tol: float = EPS_EQ) -> bool:
        return abs(self.total - 1.0) <= tol


def as_functional(L) -> DiscreteFunctional:
    """L itself when it is a DiscreteFunctional, else one built from its weights."""
    return L if isinstance(L, DiscreteFunctional) else DiscreteFunctional(L)


def as_function(u) -> FunctionOnOmega:
    """u itself when it is a FunctionOnOmega, else one built from its values."""
    return u if isinstance(u, FunctionOnOmega) else FunctionOnOmega(u)


def apply(L, u) -> float:
    """Weighted sum; for a unital functional the value lies in [min u, max u].
    A sum past the float range is malformed input, though infinite or NaN
    weights may give an infinite sum."""
    w, v = as_functional(L).weights, as_function(u).values
    if len(w) != len(v):
        raise StructureError(f"length mismatch: {len(w)} weights vs {len(v)} values")
    return checked_fsum(map(mul, w, v), "weighted sum L(u)", w, v)
