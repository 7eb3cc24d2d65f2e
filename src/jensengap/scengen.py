"""Seeded generation of hypothesis-satisfying scenarios and margin search.

All constructions satisfy their equality constraints by algebra rather than
by numerical adjustment: spreads are matched through an exact affine rescale
about an anchor (spread transforms as k^2), and matched-moment partners are
the two roots of t^2 - s t + p from the prescribed mean and second moment.
Every draw comes from a seeded generator, so identical (seed, spec) produce
identical scenarios.
"""

from __future__ import annotations

import math
import random

from .domain import (
    EPS_EQ,
    AffineConfig,
    DiscreteFunctional,
    InfeasibleError,
    IntervalR,
    Mt1Scenario,
    StructureError,
    WeightedGroup,
    apply,
    barycenter,
    checked_fsum,
    spread,
)
from .funclib import FunctionModel
from .report import UNMET
from .scenario import lookup, mt1_scenario_to, run_payload

#: attempts per scenario before reporting infeasibility
RETRY_CAP = 100
#: rungs of the ic2 and mc2 ladders, the constant center included
LEVELS = 3


class _Retry(Exception):
    """Internal: reject the current draw and try again."""


class GenSpec:
    """Seeded generation request: interval, interior split point, group sizes."""

    __slots__ = ("seed", "interval", "c", "sizes", "count")

    def __init__(
        self,
        seed: int,
        interval: IntervalR = IntervalR(-1.0, 1.0),
        c: float = 0.0,
        sizes: tuple[int, int, int] = (2, 2, 1),
        count: int = 1,
    ):
        self.seed = seed
        self.interval = interval
        self.c = c
        self.sizes = sizes
        self.count = count
        if not (interval.lo < c < interval.hi):
            raise StructureError("split point must be interior to the interval")
        n, m, l = sizes
        if n < 1 or m < 1 or l < 0:
            raise StructureError("group sizes must satisfy n >= 1, m >= 1, l >= 0")
        if count < 1:
            raise StructureError("count must be at least 1")


class SearchResult:
    __slots__ = ("payload", "margin", "theorem_id", "mode", "seed_trace", "details")

    def __init__(
        self,
        payload: dict,
        margin: float,
        theorem_id: str,
        mode: str,
        seed_trace: tuple = (),
        details: dict | None = None,
    ):
        self.payload = payload
        self.margin = margin
        self.theorem_id = theorem_id
        self.mode = mode
        self.seed_trace = seed_trace
        self.details = {} if details is None else details


def _weights(rng: random.Random, k: int, low: float, total: float = 1.0) -> list[float]:
    """k weights drawn uniformly from [low, 1], then scaled to sum to
    ``total`` up to rounding."""
    parts = [rng.uniform(low, 1.0) for _ in range(k)]
    s = checked_fsum(parts, "drawn weights sum")
    return [total * p / s for p in parts]


def draw_config(
    rng: random.Random, lo: float, hi: float, sizes: tuple[int, int, int]
) -> AffineConfig:
    """Valid configuration with all points in [lo, hi]; the minus points are
    placed inside the barycenter hull, so validity holds by construction."""
    n, m, l = sizes
    if l == 0:
        alpha = rng.uniform(0.3, 0.7)
        beta = 1.0 - alpha
        gamma = 0.0
    else:
        alpha = rng.uniform(0.4, 1.0)
        beta = rng.uniform(max(0.4, 1.0 - alpha + 0.05), 1.0)
        gamma = alpha + beta - 1.0
    group_a = WeightedGroup([rng.uniform(lo, hi) for _ in range(n)], _weights(rng, n, 0.1, alpha))
    group_b = WeightedGroup([rng.uniform(lo, hi) for _ in range(m)], _weights(rng, m, 0.1, beta))
    if l:
        h_lo, h_hi = sorted((barycenter(group_a), barycenter(group_b)))
        minus = WeightedGroup(
            [rng.uniform(h_lo, h_hi) for _ in range(l)], _weights(rng, l, 0.1, gamma)
        )
    else:
        minus = WeightedGroup((), ())
    return AffineConfig(group_a, group_b, minus)


def _rescale(cfg: AffineConfig, anchor: float, k: float) -> AffineConfig:
    def scale(g: WeightedGroup) -> WeightedGroup:
        return WeightedGroup([anchor + k * (p - anchor) for p in g.points], g.weights)

    return AffineConfig(scale(cfg.plus_a), scale(cfg.plus_b), scale(cfg.minus_c))


def match_spread(target: float, cfg: AffineConfig, anchor: float) -> AffineConfig:
    """Rescale all points about the anchor so the spread equals target.

    The map x -> anchor + k (x - anchor) with k = sqrt(target / spread)
    scales the spread by exactly k^2 and preserves hull membership.  With
    the anchor at a side endpoint, k <= 1 keeps points in their side
    interval.  cfg is not validated: a valid one stays valid.
    """
    if target < 0.0:
        raise StructureError("target spread must be nonnegative")
    current = spread(cfg)
    if current <= 0.0:
        raise StructureError("cannot rescale a zero-spread configuration")
    return _rescale(cfg, anchor, math.sqrt(target / current))


def gen_two_sided_scenario(
    spec: GenSpec, rng: random.Random | None = None, spread_ratio: float = 1.0
) -> Mt1Scenario:
    """Two valid side configurations with spreads in the requested ratio.

    spread_ratio 1 matches the sides exactly; r < 1 shrinks the left side to
    spread r^2 * s, r > 1 shrinks the right side.  Shrinking is always toward
    the split point, so points never leave their half-interval.  Both
    sides are valid by construction (``draw_config``, then rescaling), so
    none is validated here; the verifiers validate what they judge.
    """
    rng = rng if rng is not None else random.Random(spec.seed)
    left = draw_config(rng, spec.interval.lo, spec.c, spec.sizes)
    right = draw_config(rng, spec.c, spec.interval.hi, spec.sizes)
    sl, sr = spread(left), spread(right)
    m = min(sl, sr)
    if sl > m:
        left = match_spread(m, left, spec.c)
    elif sr > m:
        right = match_spread(m, right, spec.c)
    if m > 0.0 and spread_ratio != 1.0:
        if spread_ratio < 1.0:
            left = match_spread(m * spread_ratio**2, left, spec.c)
        else:
            right = match_spread(m / spread_ratio**2, right, spec.c)
    return Mt1Scenario(left, right, spec.c, spec.interval)


def two_point_from_moments(mean: float, second_moment: float) -> tuple[float, float]:
    """Roots of t^2 - s t + p with s = 2*mean and p chosen so the uniform
    two-point set has the prescribed mean and second moment.

    Uses the sign-aware quadratic formula; infeasible when the second moment
    is below mean^2 (negative discriminant).
    """
    s = 2.0 * mean
    p = 2.0 * mean * mean - second_moment
    disc = s * s - 4.0 * p
    if disc < 0.0:
        raise InfeasibleError(
            f"two-point moment system infeasible: second moment {second_moment} < mean^2"
        )
    root = math.sqrt(disc)
    if s >= 0.0:
        r1 = 0.5 * (s + root)
    else:
        r1 = 0.5 * (s - root)
    r2 = p / r1 if r1 != 0.0 else 0.5 * (s - root)
    return (min(r1, r2), max(r1, r2))


def _sub_interval(rng: random.Random, lo: float, hi: float) -> IntervalR:
    width = hi - lo
    if width <= 1e-9:
        raise _Retry
    u1 = rng.uniform(0.12, 0.38)
    u2 = rng.uniform(0.12, 0.38)
    return IntervalR(lo + u1 * width, hi - u2 * width)


def _uniform_in(rng: random.Random, iv: IntervalR, n: int) -> list[float]:
    return [rng.uniform(iv.lo, iv.hi) for _ in range(n)]


def _window_draw(rng: random.Random, lo: float, hi: float) -> float:
    if hi <= lo:
        raise _Retry
    pad = 0.05 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


def _matched_pair(
    rng: random.Random,
    weights: list[float],
    values: list[float],
    inner: IntervalR,
    outer: IntervalR,
    offset: float | None,
) -> tuple[list[float], float, float]:
    """Two-point partner outside the open inner interval with the same mean
    and a second moment exceeding the source's by ``offset`` (drawn when None).

    Returns (partner values, moment offset used, partner mean).
    """
    L = DiscreteFunctional(weights)
    mean = apply(L, values)
    d_min = max(inner.hi - mean, mean - inner.lo)
    d_max = min(outer.hi - mean, mean - outer.lo)
    if d_max <= d_min:
        raise _Retry
    second = apply(L, [v * v for v in values])
    var = second - mean * mean
    if offset is None:
        lo = d_min * d_min - var
        hi = d_max * d_max - var
        offset = _window_draw(rng, lo, hi)
    d_sq = var + offset
    if d_sq < d_min * d_min - 1e-15 or d_sq > d_max * d_max + 1e-15:
        raise _Retry
    v_lo, v_hi = two_point_from_moments(mean, second + offset)
    return [v_lo, v_hi], offset, mean


def _gen_two_sided(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    """Spread-matched sides, as mt1 and every branch of mt3 need."""
    return mt1_scenario_to(gen_two_sided_scenario(spec, rng))


def _gen_mt2(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    """Branch a needs spread_left <= spread_right, branch b the reverse."""
    ratio = 1.0
    if mode == "a":
        ratio = rng.uniform(0.4, 0.95)
    elif mode == "b":
        ratio = 1.0 / rng.uniform(0.4, 0.95)
    return mt1_scenario_to(gen_two_sided_scenario(spec, rng, spread_ratio=ratio))


def _gen_it2(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval = spec.interval
    inner = _sub_interval(rng, interval.lo, interval.hi)
    n = max(2, spec.sizes[0])
    weights = _weights(rng, n, 0.2)
    g = _uniform_in(rng, inner, n)
    h, _, _ = _matched_pair(rng, weights, g, inner, interval, None)
    return {
        "interval": [interval.lo, interval.hi],
        "inner": [inner.lo, inner.hi],
        "L": weights,
        "g": g,
        "H": [0.5, 0.5],
        "h": h,
    }


def _gen_ic1(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    inner = _sub_interval(rng, spec.interval.lo, spec.interval.hi)
    n = max(2, spec.sizes[0])
    return {
        "inner": [inner.lo, inner.hi],
        "L": _weights(rng, n, 0.2),
        "g": _uniform_in(rng, inner, n),
    }


def _ladder(
    rng: random.Random, center: float, d_max: float
) -> tuple[list[list[float]], list[list[float]], list[list[float]]]:
    """Concentric two-point ladder of LEVELS levels: level 1 is the constant
    center, later levels sit at center +- d_k with strictly growing
    d_k <= d_max.  Returns (functionals, value vectors, inner intervals)."""
    fracs = sorted(rng.uniform(0.15, 0.9) for _ in range(LEVELS - 1))
    ds = [f * d_max for f in fracs]
    functionals = [_weights(rng, 2, 0.2)]
    values = [[center, center]]
    inners = [[center, center]]
    for k, d in enumerate(ds):
        functionals.append([0.5, 0.5])
        values.append([center - d, center + d])
        if k < len(ds) - 1:
            inners.append([center - d, center + d])
    return functionals, values, inners


def _gen_ic2(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval = spec.interval
    width = interval.width
    center = rng.uniform(interval.lo + 0.3 * width, interval.hi - 0.3 * width)
    d_max = min(interval.hi - center, center - interval.lo)
    functionals, values, inners = _ladder(rng, center, d_max)
    return {
        "interval": [interval.lo, interval.hi],
        "inners": inners,
        "Ls": functionals,
        "gs": values,
    }


def _split_weights(weights: list[float]) -> list[list[float]]:
    k = max(1, len(weights) // 2)
    first = [w if i < k else 0.0 for i, w in enumerate(weights)]
    second = [0.0 if i < k else w for i, w in enumerate(weights)]
    return [first, second]


def _gen_ic3(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    base = _gen_ic1(spec, mode, rng)
    return {
        "interval": [spec.interval.lo, spec.interval.hi],
        "Ls": _split_weights(base["L"]),
        "gs": [base["g"], base["g"]],
    }


def _gen_it3(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    base = _gen_it2(spec, mode, rng)
    return {
        "interval": base["interval"],
        "inner": base["inner"],
        "Ls": _split_weights(base["L"]),
        "gs": [base["g"], base["g"]],
        "Hs": [[0.5, 0.0], [0.0, 0.5]],
        "hs": [base["h"], base["h"]],
    }


def _gen_mt4(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval, c = spec.interval, spec.c
    n = max(2, spec.sizes[0])
    weights = _weights(rng, n, 0.2)
    if mode == "region_restricted":
        inner1 = _sub_interval(rng, interval.lo, c)
        inner2 = _sub_interval(rng, c, interval.hi)
        outer1 = IntervalR(interval.lo, c)
        outer2 = IntervalR(c, interval.hi)
    else:
        inner1 = inner2 = _sub_interval(rng, interval.lo, interval.hi)
        outer1 = outer2 = interval
    g1 = _uniform_in(rng, inner1, n)
    g2 = _uniform_in(rng, inner2, n)
    h1, offset, _ = _matched_pair(rng, weights, g1, inner1, outer1, None)
    h2, _, _ = _matched_pair(rng, weights, g2, inner2, outer2, offset)
    payload = {
        "interval": [interval.lo, interval.hi],
        "c": c,
        "inner": [inner1.lo, inner1.hi],
        "L": weights,
        "H": [0.5, 0.5],
        "g1": g1,
        "h1": h1,
        "g2": g2,
        "h2": h2,
    }
    if mode == "region_restricted":
        payload["inner2"] = [inner2.lo, inner2.hi]
    return payload


def _gen_mt5(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    base = _gen_mt4(spec, mode, rng)
    payload = {
        "interval": base["interval"],
        "c": base["c"],
        "inner": base["inner"],
        "Ls": _split_weights(base["L"]),
        "gs": [base["g1"], base["g1"]],
        "Hs": [[0.5, 0.0], [0.0, 0.5]],
        "hs": [base["h1"], base["h1"]],
        "Ls_star": _split_weights(base["L"]),
        "gs_star": [base["g2"], base["g2"]],
        "Hs_star": [[0.5, 0.0], [0.0, 0.5]],
        "hs_star": [base["h2"], base["h2"]],
    }
    if "inner2" in base:
        payload["inner2"] = base["inner2"]
    return payload


def _gen_mc1(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval, c = spec.interval, spec.c
    lo_frac = rng.uniform(0.5, 0.9)
    hi_frac = rng.uniform(0.5, 0.9)
    inner = IntervalR(c - lo_frac * (c - interval.lo), c + hi_frac * (interval.hi - c))
    g1_box = IntervalR(inner.lo, c) if mode == "region_restricted" else inner
    g1 = _uniform_in(rng, g1_box, 2)
    m1 = 0.5 * (g1[0] + g1[1])
    var1 = 0.5 * (g1[0] ** 2 + g1[1] ** 2) - m1 * m1
    d = math.sqrt(var1)
    lo2 = c if mode == "region_restricted" else inner.lo
    m2 = _window_draw(rng, lo2 + d, inner.hi - d)
    g2 = list(two_point_from_moments(m2, var1 + m2 * m2))
    return {
        "interval": [interval.lo, interval.hi],
        "c": c,
        "inner": [inner.lo, inner.hi],
        "L": [0.5, 0.5],
        "g1": g1,
        "g2": g2,
    }


def _gen_mc2(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval, c = spec.interval, spec.c
    if mode == "region_restricted":
        g_lo, g_hi = interval.lo, c
        h_lo, h_hi = c, interval.hi
        g_center = rng.uniform(g_lo + 0.35 * (g_hi - g_lo), g_hi - 0.35 * (g_hi - g_lo))
        h_center = rng.uniform(h_lo + 0.35 * (h_hi - h_lo), h_hi - 0.35 * (h_hi - h_lo))
        d_max = min(g_hi - g_center, g_center - g_lo, h_hi - h_center, h_center - h_lo)
        fracs = sorted(rng.uniform(0.15, 0.9) for _ in range(LEVELS - 1))
        ds = [f * d_max for f in fracs]
        g_inners = [[g_center, g_center]] + [
            [g_center - d, g_center + d] for d in ds[:-1]
        ]
        h_inners = [[h_center, h_center]] + [
            [h_center - d, h_center + d] for d in ds[:-1]
        ]
    else:
        width = interval.width
        delta = rng.uniform(0.05, 0.12) * width
        g_center = rng.uniform(
            interval.lo + 0.4 * width, interval.hi - 0.4 * width - delta
        )
        h_center = g_center + delta
        room = min(g_center - interval.lo, interval.hi - h_center)
        step0 = delta + rng.uniform(0.2, 0.4) * (room - (LEVELS - 1) * delta) / (LEVELS - 1)
        if step0 <= delta:
            raise _Retry
        ds = [step0 * (k + 1) for k in range(LEVELS - 1)]
        if ds[-1] > room:
            raise _Retry
        g_inners = [[g_center, h_center]] + [
            [g_center - d, h_center + d] for d in ds[:-1]
        ]
        h_inners = g_inners
    functionals = [_weights(rng, 2, 0.2)] + [[0.5, 0.5] for _ in range(LEVELS - 1)]
    gs = [[g_center, g_center]] + [[g_center - d, g_center + d] for d in ds]
    hs = [[h_center, h_center]] + [[h_center - d, h_center + d] for d in ds]
    payload = {
        "interval": [interval.lo, interval.hi],
        "c": c,
        "Ls": functionals,
        "gs": gs,
        "hs": hs,
        "g_inners": g_inners,
    }
    if mode == "region_restricted":
        payload["h_inners"] = h_inners
    return payload


def _gen_mc3(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    base = _gen_mc1(spec, mode, rng)
    return {
        "interval": base["interval"],
        "c": base["c"],
        "Ls": [[0.5, 0.0], [0.0, 0.5]],
        "gs": [base["g1"], base["g1"]],
        "hs": [base["g2"], base["g2"]],
    }


#: payload generator of every theorem id, in registry order
GENERATORS = {
    "mt1": _gen_two_sided,
    "mt2": _gen_mt2,
    "mt3": _gen_two_sided,
    "it2": _gen_it2,
    "it3": _gen_it3,
    "ic1": _gen_ic1,
    "ic2": _gen_ic2,
    "ic3": _gen_ic3,
    "mt4": _gen_mt4,
    "mt5": _gen_mt5,
    "mc1": _gen_mc1,
    "mc2": _gen_mc2,
    "mc3": _gen_mc3,
}


def gen_payload(
    spec: GenSpec, theorem_id: str, mode: str, rng: random.Random | None = None
) -> dict:
    """Scenario payload for any theorem id, ready for dispatch or serialization.

    Equality constraints hold by construction; draws are rejected and
    retried when the two-point roots would violate the range constraints.
    """
    if theorem_id not in GENERATORS:
        raise StructureError(f"no generator for theorem id {theorem_id!r}")
    rng = rng if rng is not None else random.Random(spec.seed)
    gen = GENERATORS[theorem_id]
    for _ in range(RETRY_CAP):
        try:
            return gen(spec, mode, rng)
        except _Retry:
            continue
    raise InfeasibleError(
        f"{theorem_id}: no feasible scenario after {RETRY_CAP} attempts"
    )


def straddle_probe_mt4() -> dict:
    """Deterministic literal-mode probe whose outer pair straddles the split
    point on both sides; its transfer comparison margin is about -0.0603."""
    s = math.sqrt(9.36)
    return {
        "interval": [-3.0, 3.0],
        "c": 0.0,
        "inner": [-1.0, 1.0],
        "L": [0.5, 0.5],
        "H": [0.5, 0.5],
        "g1": [0.5, 0.5],
        "h1": [-1.0, 2.0],
        "g2": [0.2, 0.8],
        "h2": [(1.0 - s) / 2.0, (1.0 + s) / 2.0],
    }


def search_counterexamples(
    f: FunctionModel,
    theorem_id: str,
    mode: str,
    budget: int,
    seed: int,
    *,
    spec: GenSpec | None = None,
    report_threshold: float = EPS_EQ,
    include_probes: bool = True,
) -> list[SearchResult]:
    """Generate ``budget`` scenarios, verify each, and return every result
    whose verdict-determining margin is below -report_threshold, sorted
    ascending.  An empty list certifies nothing beyond the probed budget.

    Scenario i uses seed + i, so searches partition cleanly across workers.
    In literal mode for mt4 the documented straddle probe is evaluated first
    (seed_trace "probe") unless ``include_probes`` is false.
    """
    _, mode = lookup(theorem_id, mode)
    if budget < 1:
        raise StructureError("search budget must be at least 1")
    base_spec = spec if spec is not None else GenSpec(seed=seed)
    results: list[SearchResult] = []

    def consider(payload: dict, trace: tuple) -> None:
        report = run_payload(theorem_id, mode, f, payload)
        if report["verdict"] == UNMET:
            return
        margin = report["margin"]
        if margin is not None and margin < -report_threshold:
            details = {"verdict": report["verdict"]}
            results.append(SearchResult(payload, margin, theorem_id, mode, trace, details))

    if include_probes and theorem_id == "mt4" and mode == "literal":
        consider(straddle_probe_mt4(), ("probe",))
    for i in range(budget):
        rng = random.Random(seed + i)
        payload = gen_payload(base_spec, theorem_id, mode, rng)
        consider(payload, (seed, i))
    results.sort(key=lambda r: r.margin)
    return results
