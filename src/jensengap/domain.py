"""Value types for weighted affine combinations on real intervals, and the
weight and value vectors of discrete positive linear functionals.

An affine configuration carries two nonnegative "plus" groups and one
nonnegative "minus" group.  The group masses alpha, beta, gamma must satisfy
alpha + beta - gamma = 1 with alpha, beta in (0, 1], and every minus point
must lie in the convex hull of the two plus-group barycenters.

A functional is a nonnegative weight vector over the indices 1..n; it is
unital when its weights sum to 1.  Functions are plain value vectors of
matching length, and ``apply`` is their weighted sum.

The value types are plain classes with ``__slots__``, each validating its
fields once, in ``__init__``.  They compare by identity, except that
weighted groups and configurations compare by value.
"""

from __future__ import annotations

import math

#: absolute tolerance for equality constraints on normalized quantities
EPS_EQ = 1e-9


class StructureError(ValueError):
    """Malformed input: length mismatch, empty group, bad payload shape."""


class InfeasibleError(RuntimeError):
    """Generation could not satisfy the requested constraints."""


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


class WeightedGroup:
    """Points with nonnegative weights.  May be empty (used for minus groups)."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        self.points = tuple(float(p) for p in points)
        self.weights = tuple(float(w) for w in weights)
        if len(self.points) != len(self.weights):
            raise StructureError("points and weights must have equal length")

    def __eq__(self, other):
        if other.__class__ is not WeightedGroup:
            return NotImplemented
        return self.points == other.points and self.weights == other.weights

    def __len__(self) -> int:
        return len(self.points)

    @property
    def total(self) -> float:
        return math.fsum(self.weights)

    def active_points(self) -> tuple[float, ...]:
        """Points carrying strictly positive weight."""
        return tuple(p for p, w in zip(self.points, self.weights) if w > 0.0)

    def moment(self, k: int) -> float:
        return math.fsum(w * p**k for p, w in zip(self.points, self.weights))


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
    """Accumulates named residual checks and renders them as a ValidityReport."""

    def __init__(self, tol: float = EPS_EQ):
        self.tol = tol
        self._checks: list[Check] = []

    def record(self, name: str, residual: float, ok: bool) -> bool:
        self._checks.append(Check(name, float(residual), bool(ok)))
        return ok

    def equality(self, name: str, residual: float, scale: float = 1.0) -> bool:
        """|residual| must not exceed tol * max(1, |scale|)."""
        return self.record(
            name, abs(residual), abs(residual) <= self.tol * max(1.0, abs(scale))
        )

    def at_least(self, name: str, margin: float, scale: float = 1.0) -> bool:
        """margin must be >= -tol * max(1, |scale|)."""
        return self.record(
            name, margin, margin >= -self.tol * max(1.0, abs(scale))
        )

    def merge(self, prefix: str, report: ValidityReport) -> bool:
        for c in report.checks:
            self.record(f"{prefix}.{c.name}", c.residual, c.ok)
        return report.valid

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self._checks)

    def report(self) -> ValidityReport:
        checks = tuple(self._checks)
        violations = tuple((c.name, c.residual) for c in checks if not c.ok)
        return ValidityReport(valid=not violations, violations=violations, checks=checks)


def barycenter(g: WeightedGroup) -> float:
    """Weight-normalized mean of a group; requires positive total weight."""
    total = g.total
    if total <= 0.0:
        raise StructureError("barycenter needs positive total weight")
    return math.fsum(w * p for p, w in zip(g.points, g.weights)) / total


def hull_membership(x: float, a: float, b: float, tol: float = EPS_EQ) -> bool:
    """Closed-interval membership of x in the 1-D hull of {a, b}."""
    return min(a, b) - tol <= x <= max(a, b) + tol


def _require_structure(cfg: AffineConfig) -> None:
    if len(cfg.plus_a) == 0:
        raise StructureError("plus_a group is empty")
    if len(cfg.plus_b) == 0:
        raise StructureError("plus_b group is empty")


def validate_affine_config(
    cfg: AffineConfig, tol: float = EPS_EQ, hull: str = "barycenter"
) -> ValidityReport:
    """Check every configuration invariant and report each numeric residual.

    ``hull`` selects which hull the minus points are tested against:
    "barycenter" uses conv of the two group barycenters, "pointset" uses the
    (wider) conv of all positively weighted plus points.
    """
    _require_structure(cfg)
    cs = CheckSet(tol)
    for name, grp, _ in cfg.all_groups():
        wmin = min(grp.weights) if grp.weights else 0.0
        cs.at_least(f"{name}.weights_nonneg", wmin)
    alpha = cfg.plus_a.total
    beta = cfg.plus_b.total
    gamma = cfg.minus_c.total
    cs.record("alpha_range", alpha, 0.0 < alpha <= 1.0 + tol)
    cs.record("beta_range", beta, 0.0 < beta <= 1.0 + tol)
    cs.at_least("gamma_nonneg", gamma)
    cs.equality("mass_balance", alpha + beta - gamma - 1.0)
    if alpha > 0.0 and beta > 0.0:
        if hull == "barycenter":
            h_lo, h_hi = sorted((barycenter(cfg.plus_a), barycenter(cfg.plus_b)))
        elif hull == "pointset":
            pts = cfg.plus_a.active_points() + cfg.plus_b.active_points()
            h_lo, h_hi = min(pts), max(pts)
        else:
            raise StructureError(f"unknown hull mode {hull!r}")
        worst = 0.0
        for k, (p, w) in enumerate(zip(cfg.minus_c.points, cfg.minus_c.weights)):
            if w <= 0.0:
                continue  # inert points are not hull-checked
            dist = max(h_lo - p, p - h_hi, 0.0)
            if dist > tol:
                cs.record(f"hull[{k}]", dist, False)
            worst = max(worst, dist)
        cs.record("hull", worst, worst <= tol)
    return cs.report()


def _signed_moment(cfg: AffineConfig, k: int) -> float:
    return cfg.plus_a.moment(k) + cfg.plus_b.moment(k) - cfg.minus_c.moment(k)


def combination_value(
    cfg: AffineConfig, tol: float = EPS_EQ, validate: bool = True
) -> float:
    """Signed combination sum(w*p) over plus groups minus the minus group.

    For a valid configuration the value lies in the hull of the two
    barycenters; this is re-checked as a postcondition.
    """
    if validate:
        vr = validate_affine_config(cfg, tol)
        if not vr.valid:
            raise StructureError(
                f"invalid affine configuration: {vr.violations[0][0]}"
            )
    value = _signed_moment(cfg, 1)
    a_bar = barycenter(cfg.plus_a)
    b_bar = barycenter(cfg.plus_b)
    span = max(1.0, abs(a_bar), abs(b_bar))
    if not hull_membership(value, a_bar, b_bar, tol * span):
        raise StructureError("combination value escapes the barycenter hull")
    return value


def spread(cfg: AffineConfig, tol: float = EPS_EQ, validate: bool = True) -> float:
    """Signed second moment minus squared signed first moment.

    Nonnegative (up to tolerance) for every valid configuration; transforms
    as k^2 * spread under the point map x -> k*x + t.
    """
    if validate:
        vr = validate_affine_config(cfg, tol)
        if not vr.valid:
            raise StructureError(
                f"invalid affine configuration: {vr.violations[0][0]}"
            )
    m1 = _signed_moment(cfg, 1)
    return _signed_moment(cfg, 2) - m1 * m1


class FunctionOnOmega:
    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values = tuple(float(v) for v in values)
        if not values:
            raise StructureError("a function needs at least one value")
        if not all(math.isfinite(v) for v in values):
            raise StructureError("function values must be finite")


class DiscreteFunctional:
    """Nonnegative weight vector; unital when the weights sum to 1."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = weights = tuple(float(w) for w in weights)
        if not weights:
            raise StructureError("a functional needs at least one weight")
        if any(w < 0.0 for w in weights):
            raise StructureError("functional weights must be nonnegative")

    @property
    def total(self) -> float:
        return math.fsum(self.weights)

    def is_unital(self, tol: float = EPS_EQ) -> bool:
        return abs(self.total - 1.0) <= tol


def as_functional(L) -> DiscreteFunctional:
    """L itself when it is a DiscreteFunctional, else one built from its weights."""
    return L if isinstance(L, DiscreteFunctional) else DiscreteFunctional(L)


def as_function(u) -> FunctionOnOmega:
    """u itself when it is a FunctionOnOmega, else one built from its values."""
    return u if isinstance(u, FunctionOnOmega) else FunctionOnOmega(u)


def apply(L, u) -> float:
    """Weighted sum; for a unital functional the value lies in [min u, max u]."""
    w, v = as_functional(L).weights, as_function(u).values
    if len(w) != len(v):
        raise StructureError(f"length mismatch: {len(w)} weights vs {len(v)} values")
    return math.fsum(wi * vi for wi, vi in zip(w, v))
