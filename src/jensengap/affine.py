"""Verifiers for the affine-combination inequalities and refinement chains.

A two-sided scenario holds a left configuration (points at or below the
split point c) and a right configuration (points at or above c).  The
verifiers evaluate the Jensen gap of each side and order it against the
midpoint terms (A/2) * spread, where A is a curvature constant for which
f(x) - (A/2) x^2 is concave left of the split and convex right of it
(reversed for the 3-concave variant).

mt2 and its mirror image mt3 (f 3-concave, the signs of f'' reversed and
the chain read downwards) run through one branch-gated core, oriented by a
single flag; each keeps its own check names.

Each verifier judges both configurations once, through
``record_affine_config``, and reports a failed hypothesis as
``hypotheses-unmet``; the spreads and gaps it then measures judge nothing.
Hypothesis residuals are tagged with stable identifiers: "2.1" spread
equality, "2.2" separation at c, "2.8"/"2.10" ordering of the side extremes.
"""

from __future__ import annotations

from .analysis import AInterval, curvature_sandwich, is_3concave, is_3convex, k1_witness
# validate_affine_config is imported but unused: the benchmark's tracer
# (bench/tracer.py) wraps it in this module as well as in domain
from .domain import (  # noqa: F401  (validate_affine_config is re-exported)
    EPS_EQ,
    AffineConfig,
    CheckSet,
    Mt1Scenario,
    StructureError,
    checked_fsum,
    combination_value,
    record_affine_config,
    spread,
    validate_affine_config,
)
from .funclib import DomainError, FunctionModel, eval_fn, require_in_domain
from .report import UNMET, ChainReport, chain_report


def jensen_affine_gap(f: FunctionModel, cfg: AffineConfig, tol: float = EPS_EQ) -> float:
    """sum(w * f(p)) over the signed groups, minus f at the combination value.

    Nonnegative (up to tolerance) for convex f on any valid configuration;
    validity is not judged here but by the verifiers' checks.  ``tol`` is
    the slack of ``combination_value``'s hull postcondition.
    """
    value = combination_value(cfg, tol)
    terms = []
    for _, grp, sign in cfg.all_groups():
        for p, w in zip(grp.points, grp.weights):
            if w != 0.0:
                terms.append(sign * w * eval_fn(f, p))
    return checked_fsum(terms, "affine gap sum(w * f(p))") - eval_fn(f, value)


def cross_weighted_gap(
    f: FunctionModel, weights_from: AffineConfig, points_from: AffineConfig
) -> float:
    """Gap of the index-sharing reading: one configuration's weights applied
    to another's points.  Group sizes must match; no hull guarantee holds for
    the crossed combination, so this is an exploration quantity only."""
    for (_, wg, _), (_, pg, _) in zip(weights_from.all_groups(), points_from.all_groups()):
        if len(wg) != len(pg):
            raise StructureError("index-sharing reading needs equal group sizes")
    terms = []
    value_terms = []
    for (_, wg, sign), (_, pg, _) in zip(weights_from.all_groups(), points_from.all_groups()):
        for w, p in zip(wg.weights, pg.points):
            value_terms.append(sign * w * p)
            if w != 0.0:
                terms.append(sign * w * eval_fn(f, p))
    total = checked_fsum(terms, "crossed gap sum(w * f(p))")
    return total - eval_fn(f, checked_fsum(value_terms, "crossed value sum(w * p)"))


def _base_checkset(f: FunctionModel, s: Mt1Scenario, tol: float) -> tuple[CheckSet, dict]:
    """Config validity and interval containment; returns spreads when computable.

    A point outside f's domain is an input error, raised before any work:
    its powers in the spread may overflow.
    """
    for what, cfg in (("left points", s.left), ("right points", s.right)):
        pts = cfg.plus_a.points + cfg.plus_b.points + cfg.minus_c.points
        if pts:
            require_in_domain(f, min(pts), max(pts), what)
    cs = CheckSet(tol)
    ok_l = record_affine_config(cs, "left.", s.left)
    ok_r = record_affine_config(cs, "right.", s.right)
    vals: dict[str, float] = {}
    for label, cfg in (("left", s.left), ("right", s.right)):
        pts = cfg.active_points()
        if pts:  # a config with no active points already failed validation
            lo, hi = vals[f"min_{label}"], vals[f"max_{label}"] = min(pts), max(pts)
            slack = min(lo - s.interval.lo, s.interval.hi - hi)
            cs.at_least(f"{label}.in_interval", slack, scale=max(map(abs, pts)))
    if not (ok_l and ok_r):
        return cs, {}
    vals["spread_left"] = spread(s.left)
    vals["spread_right"] = spread(s.right)
    return cs, vals


def verify_mt1(
    f: FunctionModel,
    s: Mt1Scenario,
    A: float | None = None,
    tol: float = EPS_EQ,
    weight_reading: str = "matched",
) -> ChainReport:
    """Four-term chain: gap_left <= (A/2) spread_left = (A/2) spread_right <= gap_right.

    Requires matched spreads and separation at c; f must be 3-convex at c
    with constant A (supplied, or from ``k1_witness``).

    ``weight_reading`` selects how the right gap is evaluated: "matched"
    (default) uses the right configuration's own weights, which is what the
    spread-equality hypothesis is stated with; "literal_alpha" reuses the
    left configuration's weights on the right points, the index-sharing
    reading kept for hypothesis exploration.
    """
    if weight_reading not in ("matched", "literal_alpha"):
        raise StructureError(f"unknown weight reading {weight_reading!r}")
    details: dict = {"c": s.c, "weight_reading": weight_reading}
    cs, vals = _base_checkset(f, s, tol)
    if vals:
        cs.at_least("2.2", min(s.c - vals["max_left"], vals["min_right"] - s.c))
        sl, sr = vals["spread_left"], vals["spread_right"]
        cs.matched("2.1", sl, sr)
    if weight_reading == "literal_alpha":
        sizes_ok = all(
            len(wg) == len(pg)
            for (_, wg, _), (_, pg, _) in zip(s.left.all_groups(), s.right.all_groups())
        )
        cs.record("literal_alpha.sizes", 0.0, sizes_ok)
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report(), details=details)
    if A is None:
        A = k1_witness(f, s.c, s.interval, tol=tol)
        if not cs.witness("witness.K1c", A):
            return ChainReport(UNMET, hypotheses=cs.report(), details=details)
    gap_l = jensen_affine_gap(f, s.left, tol)
    if weight_reading == "literal_alpha":
        gap_r = cross_weighted_gap(f, s.left, s.right)
    else:
        gap_r = jensen_affine_gap(f, s.right, tol)
    return chain_report(cs, A, (gap_l, gap_r), (sl, sr), details)


def _signed_witness(
    f: FunctionModel,
    s: Mt1Scenario,
    a_tt: float,
    r_tt: float,
    concave: bool,
    nonneg: bool,
    tol: float,
) -> float | None:
    """Witness constant restricted to a sign regime: A >= 0 when ``nonneg``,
    A <= 0 otherwise.

    For c in [a_tt, r_tt] and f 3-convex on the interval (3-concave when
    ``concave``), the constant is (f''(c-) + f''(c+)) / 2 when it has the
    required sign; otherwise the bracket sandwich over [lo, a_tt] and
    [r_tt, hi] (K1, or K2 when ``concave``) is intersected with the regime.
    """
    c = s.c
    if a_tt - tol <= c <= r_tt + tol:
        shaped = is_3concave if concave else is_3convex
        try:
            certified = shaped(f, s.interval, tol=tol)
        except DomainError:
            certified = False
        if certified:
            A = 0.5 * f.d2_minus(c) + 0.5 * f.d2_plus(c)
            if A >= -tol if nonneg else A <= tol:
                return A
    try:
        k1, k2 = curvature_sandwich(f, s.interval, a_tt, r_tt, tol=tol)
    except DomainError:
        return None
    lo, hi = (k2.lo, k2.hi) if concave else (k1.lo, k1.hi)
    if nonneg:
        lo = max(lo, 0.0)
    else:
        hi = min(hi, 0.0)
    if lo > hi + tol:
        return None
    return AInterval(lo, hi, True).midpoint()


_BRANCHES = ("auto", "a", "b", "c")


def _branch_chain(
    f: FunctionModel,
    s: Mt1Scenario,
    branch: str,
    tol: float,
    concave: bool,
    c_upward: bool,
) -> ChainReport:
    """The branch-gated chain of mt2 (``concave`` false) and mt3 (true).

    The orientation alone decides the ordering check ("2.8" or "2.10"), the
    sign sigma = +1 or -1 of f'' that branches a and b need, their spread
    orders, the shape test (3-convex or 3-concave), the witness check
    ("witness.K1c" or "witness.K2c") and the chain order (ascending or
    descending).  ``c_upward`` is the direction of branch c's straddle:
    f''(max_left-) < 0 < f''(min_right+) when true, the reverse when false.
    """
    if concave:
        tag, shaped, kind, order, sigma = "2.10", is_3concave, "K2c", "descending", -1.0
    else:
        tag, shaped, kind, order, sigma = "2.8", is_3convex, "K1c", "ascending", 1.0
    cs, vals = _base_checkset(f, s, tol)
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report(), details={"branch": branch})
    a_tt, r_tt = vals["max_left"], vals["min_right"]
    sl, sr = vals["spread_left"], vals["spread_right"]
    if not cs.at_least(tag, r_tt - a_tt, scale=max(abs(a_tt), abs(r_tt))):
        return ChainReport(UNMET, hypotheses=cs.report(), details={"branch": branch})
    d2m, d2p = f.d2_minus(a_tt), f.d2_plus(r_tt)
    t = cs.bound(max(abs(sl), abs(sr)))
    s_a, s_b = (sr, sl) if concave else (sl, sr)
    c_sign = 1.0 if c_upward else -1.0

    def gate(b: str) -> bool:
        if b == "a":
            return sigma * d2m >= -tol and s_a <= s_b + t
        if b == "b":
            return sigma * d2p <= tol and s_b <= s_a + t
        return c_sign * d2m < 0.0 < c_sign * d2p and shaped(f, s.interval, tol=tol)

    candidates = ("a", "b", "c") if branch == "auto" else (branch,)
    gates = {b: gate(b) for b in candidates}
    chosen = next((b for b in candidates if gates[b]), None)
    details: dict = {
        "branch": chosen,
        "max_left": a_tt,
        "min_right": r_tt,
        "d2_minus_at_max_left": d2m,
        "d2_plus_at_min_right": d2p,
    }
    for b in candidates:
        cs.record(f"branch.{b}", 0.0, gates[b])
    if chosen is None:
        return ChainReport(UNMET, hypotheses=cs.report(), details=details)
    if chosen == "c":
        A = 0.0
    else:
        A = _signed_witness(f, s, a_tt, r_tt, concave, (chosen == "a") != concave, tol)
        if not cs.witness(f"witness.{kind}", A):
            return ChainReport(UNMET, hypotheses=cs.report(), details=details)
    gaps = (
        jensen_affine_gap(f, s.left, tol),
        jensen_affine_gap(f, s.right, tol),
    )
    return chain_report(cs, A, gaps, (sl, sr), details, order=order)


def verify_mt2(
    f: FunctionModel,
    s: Mt1Scenario,
    branch: str = "auto",
    *,
    tol: float = EPS_EQ,
) -> ChainReport:
    """Chain under the weakened hypotheses for f 3-convex at some point
    between the side extremes.

    Branch gates (auto tries a, b, c in order):
      a: left second derivative at the left maximum >= 0 and spread_left <= spread_right
      b: right second derivative at the right minimum <= 0 and spread_left >= spread_right
      c: the two one-sided values straddle 0 upward strictly and f is
         3-convex on the interval (witness constant 0).
    """
    if branch not in _BRANCHES:
        raise StructureError(f"unknown branch {branch!r}")
    return _branch_chain(f, s, branch, tol, concave=False, c_upward=True)


def verify_mt3(
    f: FunctionModel,
    s: Mt1Scenario,
    branch: str = "auto",
    *,
    c_convention: str = "mirrored",
    tol: float = EPS_EQ,
) -> ChainReport:
    """Reversed chain for f 3-concave at some point between the side extremes:
    gap_left >= (A/2) spread_left >= (A/2) spread_right >= gap_right.

    mt2's gates with the signs of f'' reversed and the spread orders swapped,
    as stated (a: left second derivative <= 0 with spread_left >=
    spread_right; b: right second derivative >= 0 with spread_left <=
    spread_right); for constants of nonzero sign these gates can admit
    scenarios whose middle ordering genuinely fails, and the verifier
    reports exactly that.

    Branch (c) has two sign conventions: "printed" requires the one-sided
    values to straddle 0 upward (d2m < 0 < d2p) as stated, "mirrored" (the
    default) requires the downward straddle natural for 3-concave functions.
    The report records which was used, and the constant is checked against
    both sandwich orientations in ``details``.
    """
    if branch not in _BRANCHES:
        raise StructureError(f"unknown branch {branch!r}")
    if c_convention not in ("mirrored", "printed"):
        raise StructureError(f"unknown c_convention {c_convention!r}")
    rep = _branch_chain(f, s, branch, tol, concave=True, c_upward=c_convention == "printed")
    d = rep.details
    if "max_left" in d:  # the side extremes passed the ordering check
        d["c_convention"] = c_convention
    d2m, d2p, A = d.get("d2_minus_at_max_left"), d.get("d2_plus_at_min_right"), d.get("A")
    if A is not None:
        d["sandwich_descending_ok"] = d2m + tol >= A >= d2p - tol
        d["sandwich_ascending_ok"] = d2m - tol <= A <= d2p + tol
    return rep
