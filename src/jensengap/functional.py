"""Verifiers for the functional-form inequalities.

A functional is a nonnegative weight vector over the indices 1..n and a
function a value vector of matching length (``domain.DiscreteFunctional``,
``domain.FunctionOnOmega``, re-exported here).  Each verifier converts its
weight and value lists once, a family's through ``_family``, and passes the
converted objects to ``apply`` and ``apply_fn``, so no weighted sum rebuilds
or re-validates them.  Those two and every sum over a family go through
``domain.checked_fsum``, which names a sum past the float range.  A family's
terms are listed first, so a member's own error (a length mismatch, a value
outside f's domain) is its own.

mt4 runs as mt5 with singleton families that share one (L, H) pair, under
its own check names; it2 stays a verifier of its own (see the README).

The split-point verifiers (mt4, mt5, mc1, mc2, mc3) read their mode and
split point c through ``domain.sides``; a c outside the interval is an
input error.  "literal" mode applies the range constraints exactly as
stated: one shared inner interval with the outer functions anywhere
outside it.  The default "region_restricted" additionally confines the
first pair (or the unstarred family, or the g-side) to the closed half-line
left of c and the second pair to the right half, which is the configuration
the two-sided concavity/convexity argument needs.  The literal regime admits genuine
violations and is kept for hypothesis exploration; reports label the mode.

Hypothesis residuals carry stable tags: "1.4"/"1.7"/"1.9"/"1.11" for the
mean constraints of the convex forms, "2.12", "2.17", "2.19", "2.20",
"2.22", "2.25", "2.26" for the mean/second-moment constraints of the
split-point forms, "2.23" for the aggregate inclusions.  Every range and
nesting check is a ``CheckSet.inside`` or ``outside`` check.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

from .analysis import convexity_margin, k1_witness
from .domain import (  # noqa: F401  (the functional types are re-exported)
    EPS_EQ,
    CheckSet,
    DiscreteFunctional,
    FunctionOnOmega,
    IntervalR,
    StructureError,
    apply,
    as_function,
    as_functional,
    checked_fsum,
    moment,
    sides,
)
from .funclib import FunctionModel, eval_fn
from .report import UNMET, ChainReport, chain_report, judge

#: the names of the sums over a family of (functional, function) pairs
_MEANS, _SQUARES, _LIFTS = "family sum L(u)", "family sum L(u**2)", "family sum L(f(u))"


def _second_moments(Ls: Sequence[DiscreteFunctional], vs) -> list[float]:
    """Each member's L(u**2); its mean L(u) has checked the lengths."""
    return [moment(L.weights, v) for L, v in zip(Ls, vs)]


def _family(Ls, us, least: int = 1) -> tuple[list[DiscreteFunctional], list[FunctionOnOmega]]:
    """A family's functionals and functions, each converted once; a family
    has one function per functional and at least `least` of each."""
    if len(Ls) != len(us) or len(Ls) < least:
        raise StructureError(
            f"family sizes must match and be at least {least}, got {len(Ls)} and {len(us)}"
        )
    return [as_functional(L) for L in Ls], [as_function(u) for u in us]


def apply_fn(L, f: FunctionModel, u) -> float:
    """Weighted sum of f over the values; zero-weight coordinates are skipped.
    A sum past the float range is malformed input, though infinite or NaN
    weights may give an infinite sum."""
    w, v = as_functional(L).weights, as_function(u).values
    if len(w) != len(v):
        raise StructureError(f"length mismatch: {len(w)} weights vs {len(v)} values")
    # the values are evaluated first, so that an error of f is not the sum's
    terms = [wi * eval_fn(f, vi) for wi, vi in zip(w, v) if wi != 0.0]
    return checked_fsum(terms, "weighted sum L(f(u))", w)


def _pair_range_checks(
    cs: CheckSet, g: str, gs, h: str, hs, inner: IntervalR, outer: IntervalR
) -> None:
    """Transfer ranges: every g inside the inner interval, every h inside the
    outer interval but outside the open inner one.  The checks are labelled
    by the templates g and h, whose "{}" takes the member's 1-based index."""
    for i, v in enumerate(gs, start=1):
        cs.inside(f"range.{g.format(i)}", v, inner)
    for i, v in enumerate(hs, start=1):
        cs.inside(f"range.{h.format(i)}_outer", v, outer)
        cs.outside(f"range.{h.format(i)}", v, inner)


def verify_it2(
    f: FunctionModel, L, g, H, h, *, inner: IntervalR, interval: IntervalR, tol: float = EPS_EQ
) -> ChainReport:
    """Transfer inequality: with L, H unital, g valued in the inner interval,
    h valued outside it, and L(g) = H(h), convex f gives L(f.g) <= H(f.h)."""
    L, H = as_functional(L), as_functional(H)
    g, h = as_function(g), as_function(h)
    cs = CheckSet(tol)
    cs.unit_total("unital.L", L.total)
    cs.unit_total("unital.H", H.total)
    cs.inside("inner_in_interval", (inner.lo, inner.hi), interval)
    cs.at_least("f.convex", convexity_margin(f, interval))
    _pair_range_checks(cs, "g", [g.values], "h", [h.values], inner, interval)
    cs.matched("1.4", apply(L, g), apply(H, h))
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    left = apply_fn(L, f, g)
    right = apply_fn(H, f, h)
    details = {"lhs": left, "rhs": right}
    values = {"gap_left": left, "gap_right": right}
    return judge(cs, (right - left,), details=details, values=values)


def verify_ic1(
    f: FunctionModel,
    L,
    g,
    *,
    inner: IntervalR,
    tol: float = EPS_EQ,
) -> ChainReport:
    """Jensen margin L(f.g) - f(L(g)) >= 0 for unital L and convex f."""
    L, g = as_functional(L), as_function(g)
    cs = CheckSet(tol)
    cs.unit_total("unital.L", L.total)
    cs.at_least("f.convex", convexity_margin(f, inner))
    cs.inside("range.g", g.values, inner)
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    return judge(cs, (apply_fn(L, f, g) - eval_fn(f, apply(L, g)),))


def _ladder_checks(
    cs: CheckSet,
    label: str,
    vs: list[tuple[float, ...]],
    inners: Sequence[IntervalR],
    interval: IntervalR,
) -> None:
    """Nested-interval ladder: level 1 inside the first inner interval, each
    later level inside the next interval but outside the open previous one."""
    for i in range(len(inners) - 1):
        cs.inside(f"nesting.{label}[{i + 1}]", (inners[i].lo, inners[i].hi), inners[i + 1])
    cs.inside(f"nesting.{label}[outer]", (inners[-1].lo, inners[-1].hi), interval)
    cs.inside(f"range.{label}1", vs[0], inners[0])
    for k in range(1, len(vs)):
        outer = inners[k] if k < len(vs) - 1 else interval
        cs.inside(f"range.{label}{k + 1}_outer", vs[k], outer)
        cs.outside(f"range.{label}{k + 1}", vs[k], inners[k - 1])


def verify_ic2(
    f: FunctionModel,
    Ls,
    gs,
    *,
    inners: Sequence[IntervalR],
    interval: IntervalR,
    tol: float = EPS_EQ,
) -> ChainReport:
    """Link margins along a nested ladder with matched means: each
    L_{i+1}(f.g_{i+1}) - L_i(f.g_i) >= 0 (tag "1.7" for the mean links)."""
    Ls, gs = _family(Ls, gs, 2)
    n = len(Ls)
    if len(inners) != n - 1:
        raise StructureError("need exactly n-1 nested inner intervals")
    cs = CheckSet(tol)
    cs.at_least("f.convex", convexity_margin(f, interval))
    for i, L in enumerate(Ls, start=1):
        cs.unit_total(f"unital.L{i}", L.total)
    _ladder_checks(cs, "g", [g.values for g in gs], inners, interval)
    means = list(map(apply, Ls, gs))
    for i in range(n - 1):
        cs.matched(f"1.7[{i + 1}]", means[i], means[i + 1])
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    lifted = list(map(apply_fn, Ls, repeat(f), gs))
    return judge(cs, [lifted[i + 1] - lifted[i] for i in range(n - 1)])


def verify_ic3(
    f: FunctionModel,
    Ls,
    gs,
    *,
    interval: IntervalR,
    tol: float = EPS_EQ,
) -> ChainReport:
    """Subunital family: Jensen margin of the aggregate, with the verdict
    also requiring the aggregate value inside the interval (tag "1.9",
    reported as ``details["inclusion"]``)."""
    Ls, gs = _family(Ls, gs)
    cs = CheckSet(tol)
    cs.at_least("f.convex", convexity_margin(f, interval))
    cs.unit_total("totals", checked_fsum((L.total for L in Ls), "Ls totals sum"))
    for i, g in enumerate(gs, start=1):
        cs.inside(f"range.g{i}", g.values, interval)
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    value = checked_fsum(list(map(apply, Ls, gs)), _MEANS)
    inclusion = interval.contains(value, tol)
    margin = checked_fsum(list(map(apply_fn, Ls, repeat(f), gs)), _LIFTS) - eval_fn(f, value)
    return judge(cs, (margin,), conclusion=inclusion, details={"inclusion": inclusion})


def verify_it3(
    f: FunctionModel,
    Ls,
    gs,
    Hs,
    hs,
    *,
    inner: IntervalR,
    interval: IntervalR,
    tol: float = EPS_EQ,
) -> ChainReport:
    """Family transfer margin: sum H_j(f.h_j) - sum L_i(f.g_i) >= 0 under the
    matched family means (tag "1.11")."""
    Ls, gs = _family(Ls, gs)
    Hs, hs = _family(Hs, hs)
    cs = CheckSet(tol)
    cs.at_least("f.convex", convexity_margin(f, interval))
    cs.inside("inner_in_interval", (inner.lo, inner.hi), interval)
    cs.unit_total("totals.L", checked_fsum((L.total for L in Ls), "Ls totals sum"))
    cs.unit_total("totals.H", checked_fsum((H.total for H in Hs), "Hs totals sum"))
    vs_g, vs_h = [g.values for g in gs], [h.values for h in hs]
    _pair_range_checks(cs, "g{}", vs_g, "h{}", vs_h, inner, interval)
    sum_lg = checked_fsum(list(map(apply, Ls, gs)), _MEANS)
    sum_hh = checked_fsum(list(map(apply, Hs, hs)), _MEANS)
    cs.matched("1.11", sum_lg, sum_hh)
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    left = checked_fsum(list(map(apply_fn, Ls, repeat(f), gs)), _LIFTS)
    right = checked_fsum(list(map(apply_fn, Hs, repeat(f), hs)), _LIFTS)
    return judge(cs, (right - left,))


def _split_transfer(
    f: FunctionModel,
    fams,
    funcs,
    totals: Sequence[str],
    labels: Sequence[str],
    tags: Sequence[str],
    *,
    c: float,
    interval: IntervalR,
    inner: IntervalR,
    inner2: IntervalR | None,
    mode: str,
    A: float | None,
    tol: float,
) -> ChainReport:
    """Split-point transfer comparison of families (L, H, L*, H*) against
    functions (g, h, g*, h*), each a list of members; (L, H) alone serve both
    sides.  Checks are named by ``totals`` (one per family passed),
    ``labels`` (a range-label template per function; "{}" takes the member's
    1-based index) and ``tags`` (the two mean constraints, then the moment).

    The verdict is on diff1 <= diff2, where diff1 = sum H(f.h) - sum L(f.g)
    and diff2 is the same over the starred families.  The refinement values
    diff1 <= (A/2) M1 = (A/2) M2 <= diff2, with M_i the second-moment
    differences, are reported in the chain and ``details`` only.
    """
    outer1, outer2 = sides(mode, interval, c)
    pairs = list(map(_family, fams, funcs))
    if len(pairs) == 2:  # mt4: the second side shares the first side's L and H
        pairs += [_family(pairs[k][0], funcs[k + 2]) for k in (0, 1)]
    ls, us = zip(*pairs)
    cs = CheckSet(tol)
    for name, fam in zip(totals, ls):
        cs.unit_total(name, checked_fsum((L.total for L in fam), f"{name} sum"))
    if mode == "literal":
        cs.inside("inner_in_interval", (inner.lo, inner.hi), interval)
        inner2 = inner
    else:
        if inner2 is None:
            raise StructureError("region_restricted mode needs a second inner interval")
        cs.inside("region.inner1", (inner.lo, inner.hi), outer1)
        cs.inside("region.inner2", (inner2.lo, inner2.hi), outer2)
    vs = [[u.values for u in fun] for fun in us]
    _pair_range_checks(cs, labels[0], vs[0], labels[1], vs[1], inner, outer1)
    _pair_range_checks(cs, labels[2], vs[2], labels[3], vs[3], inner2, outer2)
    means = [checked_fsum(list(map(apply, *pair)), _MEANS) for pair in pairs]
    sum_lg, sum_hh, sum_lg2, sum_hh2 = means
    cs.matched(tags[0], sum_hh, sum_lg)
    cs.matched(tags[1], sum_hh2, sum_lg2)
    sq = [checked_fsum(_second_moments(fam, v), _SQUARES) for fam, v in zip(ls, vs)]
    moment1, moment2 = sq[1] - sq[0], sq[3] - sq[2]
    cs.matched(tags[2], moment1, moment2)
    A = k1_witness(f, c, interval, tol=tol) if A is None else A
    cs.witness("witness.K1c", A)
    details = {"mode": mode, "c": c}
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report(), details=details)
    # each side lifts H before L, which fixes the value a DomainError names
    lifted = [
        checked_fsum(list(map(apply_fn, ls[k], repeat(f), us[k])), _LIFTS) for k in (1, 0, 3, 2)
    ]
    diffs = (lifted[0] - lifted[1], lifted[2] - lifted[3])
    return chain_report(cs, A, diffs, (moment1, moment2), details, order="transfer")


def verify_mt4(
    f: FunctionModel,
    L,
    H,
    g1,
    h1,
    g2,
    h2,
    *,
    c: float,
    interval: IntervalR,
    inner: IntervalR,
    inner2: IntervalR | None = None,
    mode: str = "region_restricted",
    A: float | None = None,
    tol: float = EPS_EQ,
) -> ChainReport:
    """Split-point transfer comparison for f 3-convex at c (tag "2.12"):
    diff_i = H(f.h_i) - L(f.g_i) with diff1 <= diff2.  It is verify_mt5 with
    the singleton families L, H shared by both sides.
    """
    return _split_transfer(
        f, ([L], [H]), ([g1], [h1], [g2], [h2]),
        ("unital.L", "unital.H"), ("g1", "h1", "g2", "h2"),
        ("2.12.mean1", "2.12.mean2", "2.12.moment"),
        c=c, interval=interval, inner=inner, inner2=inner2, mode=mode, A=A, tol=tol,
    )


def verify_mc1(
    f: FunctionModel,
    L,
    g1,
    g2,
    *,
    c: float,
    inner: IntervalR,
    interval: IntervalR | None = None,
    mode: str = "region_restricted",
    tol: float = EPS_EQ,
) -> ChainReport:
    """Jensen-gap comparison under matched variances (tag "2.17"): the margin
    is [L(f.g2) - f(L(g2))] - [L(f.g1) - f(L(g1))].

    In region_restricted mode g1 is confined to values at or below c and g2
    at or above c; literal mode only requires both inside the inner interval.
    """
    cls_interval = interval if interval is not None else inner
    sides(mode, cls_interval, c)
    L = as_functional(L)
    g1, g2 = as_function(g1), as_function(g2)
    v1, v2 = g1.values, g2.values
    cs = CheckSet(tol)
    cs.unit_total("unital.L", L.total)
    cs.inside("range.g1", v1, inner)
    cs.inside("range.g2", v2, inner)
    if mode == "region_restricted":
        cs.at_least("region.g1_left_of_c", c - max(v1))
        cs.at_least("region.g2_right_of_c", min(v2) - c)
    m1, m2 = apply(L, g1), apply(L, g2)
    sq1, sq2 = _second_moments((L, L), (v1, v2))
    cs.matched("2.17", sq1 - m1 * m1, sq2 - m2 * m2)
    cs.witness("witness.K1c", k1_witness(f, c, cls_interval, tol=tol))
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    gap1 = apply_fn(L, f, g1) - eval_fn(f, m1)
    gap2 = apply_fn(L, f, g2) - eval_fn(f, m2)
    return judge(cs, (gap2 - gap1,))


def verify_mc2(
    f: FunctionModel,
    Ls,
    gs,
    hs,
    *,
    c: float,
    interval: IntervalR,
    g_inners: Sequence[IntervalR],
    h_inners: Sequence[IntervalR] | None = None,
    mode: str = "region_restricted",
    tol: float = EPS_EQ,
) -> ChainReport:
    """Per-link comparison of two nested ladders with matched means (tag
    "2.19") and matched second-moment increments (tag "2.20"): each link
    margin [Lf(h_next) - Lf(h)] - [Lf(g_next) - Lf(g)] >= 0.

    In region_restricted mode the g-ladder lives in the half-interval left
    of c and the h-ladder right of c, each with its own nesting; literal
    mode uses one shared ladder of inner intervals for both families.
    """
    g_outer, h_outer = sides(mode, interval, c)
    Ls, gs = _family(Ls, gs, 2)
    hs = _family(Ls, hs, 2)[1]
    n = len(Ls)
    if h_inners is None:
        h_inners = g_inners
    if len(g_inners) != n - 1 or len(h_inners) != n - 1:
        raise StructureError("each ladder needs exactly n-1 inner intervals")
    vgs, vhs = [g.values for g in gs], [h.values for h in hs]
    cs = CheckSet(tol)
    for i, L in enumerate(Ls, start=1):
        cs.unit_total(f"unital.L{i}", L.total)
    _ladder_checks(cs, "g", vgs, g_inners, g_outer)
    _ladder_checks(cs, "h", vhs, h_inners, h_outer)
    g_means = list(map(apply, Ls, gs))
    h_means = list(map(apply, Ls, hs))
    g_sqs = _second_moments(Ls, vgs)
    h_sqs = _second_moments(Ls, vhs)
    for i in range(n - 1):
        cs.matched(f"2.19.g[{i + 1}]", g_means[i], g_means[i + 1])
        cs.matched(f"2.19.h[{i + 1}]", h_means[i], h_means[i + 1])
        dg = g_sqs[i + 1] - g_sqs[i]
        dh = h_sqs[i + 1] - h_sqs[i]
        cs.matched(f"2.20[{i + 1}]", dg, dh)
    cs.witness("witness.K1c", k1_witness(f, c, interval, tol=tol))
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    g_lift = list(map(apply_fn, Ls, repeat(f), gs))
    h_lift = list(map(apply_fn, Ls, repeat(f), hs))
    links = range(n - 1)
    return judge(cs, [(h_lift[i + 1] - h_lift[i]) - (g_lift[i + 1] - g_lift[i]) for i in links])


def verify_mc3(
    f: FunctionModel,
    Ls,
    gs,
    hs,
    *,
    c: float,
    interval: IntervalR,
    mode: str = "region_restricted",
    tol: float = EPS_EQ,
) -> ChainReport:
    """Subunital-family comparison under matched aggregate variances (tag
    "2.22"): margin of the aggregate Jensen-gap comparison, with the verdict
    also requiring both aggregate means inside the interval (tag "2.23",
    reported as ``details["inclusion"]``).

    The stated inclusion lists one aggregate twice; it is implemented as the
    pair (sum L_i(g_i), sum L_i(h_i)), reading the duplication as a typo.
    """
    sides(mode, interval, c)
    Ls, gs = _family(Ls, gs)
    hs = _family(Ls, hs)[1]
    vgs, vhs = [g.values for g in gs], [h.values for h in hs]
    cs = CheckSet(tol)
    cs.unit_total("totals", checked_fsum((L.total for L in Ls), "Ls totals sum"))
    for i, (vg, vh) in enumerate(zip(vgs, vhs), start=1):
        cs.inside(f"range.g{i}", vg, interval)
        cs.inside(f"range.h{i}", vh, interval)
        if mode == "region_restricted":
            cs.at_least(f"region.g{i}_left_of_c", c - max(vg))
            cs.at_least(f"region.h{i}_right_of_c", min(vh) - c)
    g_mean = checked_fsum(list(map(apply, Ls, gs)), _MEANS)
    h_mean = checked_fsum(list(map(apply, Ls, hs)), _MEANS)
    g_var = checked_fsum(_second_moments(Ls, vgs), _SQUARES) - g_mean * g_mean
    h_var = checked_fsum(_second_moments(Ls, vhs), _SQUARES) - h_mean * h_mean
    cs.matched("2.22", g_var, h_var)
    cs.witness("witness.K1c", k1_witness(f, c, interval, tol=tol))
    if not cs.ok:
        return ChainReport(UNMET, hypotheses=cs.report())
    inclusion = interval.contains(g_mean, tol) and interval.contains(h_mean, tol)
    g_gap = checked_fsum(list(map(apply_fn, Ls, repeat(f), gs)), _LIFTS) - eval_fn(f, g_mean)
    h_gap = checked_fsum(list(map(apply_fn, Ls, repeat(f), hs)), _LIFTS) - eval_fn(f, h_mean)
    return judge(cs, (h_gap - g_gap,), conclusion=inclusion, details={"inclusion": inclusion})


def verify_mt5(
    f: FunctionModel,
    Ls,
    gs,
    Hs,
    hs,
    Ls_star,
    gs_star,
    Hs_star,
    hs_star,
    *,
    c: float,
    interval: IntervalR,
    inner: IntervalR,
    inner2: IntervalR | None = None,
    mode: str = "region_restricted",
    A: float | None = None,
    tol: float = EPS_EQ,
) -> ChainReport:
    """Family version of the split-point transfer comparison (tags "2.25",
    "2.26").  The unstarred families play the left role and the starred
    families the right role; verify_mt4 is its singleton case.
    """
    return _split_transfer(
        f, (Ls, Hs, Ls_star, Hs_star), (gs, hs, gs_star, hs_star),
        ("totals.L", "totals.H", "totals.L*", "totals.H*"), ("g{}", "h{}", "g*{}", "h*{}"),
        ("2.25.1", "2.25.2", "2.26"),
        c=c, interval=interval, inner=inner, inner2=inner2, mode=mode, A=A, tol=tol,
    )
