"""Seeded generation of hypothesis-satisfying scenarios and margin search.

All constructions satisfy their equality constraints by algebra rather than
by numerical adjustment: spreads are matched through an exact affine rescale
about an anchor (spread transforms as k^2), and matched-moment partners are
the two roots of t^2 - s t + p from the prescribed mean and second moment.
A family payload (it3, ic3, mt5, mc3) is its pair payload (it2, ic1, mt4,
mc1) with each functional split in halves on the same values, and a ladder
(ic2, mc2) is a constant rung followed by two-point rungs.  Every draw
comes from a seeded generator, so identical (seed, spec) produce identical
scenarios.
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
    moment,
    sides,
    spread,
)
from .funclib import FunctionModel
from .report import UNMET
from .scenario import lookup, mt1_scenario_to, run_payload

#: attempts per scenario before reporting infeasibility
RETRY_CAP = 100
#: rungs of the ic2 and mc2 ladders, the constant center included
LEVELS = 3
#: largest group size n, m or l
MAX_SIZE = 10_000
#: most scenarios one gen or search draws, and most points: scenarios times n + m + l
MAX_SCENARIOS = 100_000
MAX_POINTS = 1_000_000


class _Retry(Exception):
    """Internal: reject the current draw and try again."""


class GenSpec:
    """Seeded generation request: interval, interior split point, group sizes."""

    __slots__ = ("seed", "interval", "c", "sizes")

    def __init__(
        self,
        seed: int,
        interval: IntervalR = IntervalR(-1.0, 1.0),
        c: float = 0.0,
        sizes: tuple[int, int, int] = (2, 2, 1),
    ):
        self.seed = seed
        self.interval = interval
        self.c = c
        self.sizes = sizes
        if not (interval.lo < c < interval.hi):
            raise StructureError("split point must be interior to the interval")
        n, m, l = sizes
        if n < 1 or m < 1 or l < 0:
            raise StructureError("group sizes must satisfy n >= 1, m >= 1, l >= 0")
        if max(sizes) > MAX_SIZE:
            raise StructureError(f"group sizes must be at most {MAX_SIZE}")


def check_count(what: str, k: int, spec: GenSpec) -> None:
    """Reject k scenarios of spec unless 1 <= k <= MAX_SCENARIOS and k * (n+m+l) <= MAX_POINTS."""
    if k < 1:
        raise StructureError(f"{what} must be at least 1")
    if k > MAX_SCENARIOS:
        raise StructureError(f"{what} must be at most {MAX_SCENARIOS}")
    if k * sum(spec.sizes) > MAX_POINTS:
        raise StructureError(f"{what} * (n + m + l) must be at most {MAX_POINTS}")


class SearchResult:
    __slots__ = ("payload", "margin", "seed_trace", "details")

    def __init__(
        self, payload: dict, margin: float, seed_trace: tuple = (), details: dict | None = None
    ):
        self.payload = payload
        self.margin = margin
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


def _sub_interval(rng: random.Random, outer: IntervalR) -> IntervalR:
    """Inner interval strictly inside the open outer one, at any width and scale."""
    lo, hi = outer.lo, outer.hi
    width = hi - lo
    inner_lo = lo + rng.uniform(0.12, 0.38) * width
    inner_hi = hi - rng.uniform(0.12, 0.38) * width
    if not lo < inner_lo < inner_hi < hi:
        raise _Retry
    return IntervalR(inner_lo, inner_hi)


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
) -> tuple[list[float], float]:
    """Two-point partner outside the open inner interval with the same mean
    and a second moment exceeding the source's by ``offset`` (drawn when None).

    Returns (partner values, moment offset used).
    """
    L = DiscreteFunctional(weights)
    mean = apply(L, values)
    d_min = max(inner.hi - mean, mean - inner.lo)
    d_max = min(outer.hi - mean, mean - outer.lo)
    if d_max <= d_min:
        raise _Retry
    second = moment(L.weights, values)
    var = second - mean * mean
    if offset is None:
        lo = d_min * d_min - var
        hi = d_max * d_max - var
        offset = _window_draw(rng, lo, hi)
    d_sq = var + offset
    if d_sq < d_min * d_min - 1e-15 or d_sq > d_max * d_max + 1e-15:
        raise _Retry
    v_lo, v_hi = two_point_from_moments(mean, second + offset)
    return [v_lo, v_hi], offset


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


def _gen_ic1(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    inner = _sub_interval(rng, spec.interval)
    n = max(2, spec.sizes[0])
    return {
        "inner": [inner.lo, inner.hi],
        "L": _weights(rng, n, 0.2),
        "g": _uniform_in(rng, inner, n),
    }


def _gen_it2(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    """The ic1 draws (inner, L, g), then a partner h outside the inner interval."""
    base = _gen_ic1(spec, mode, rng)
    inner = IntervalR(*base["inner"])
    h, _ = _matched_pair(rng, base["L"], base["g"], inner, spec.interval, None)
    return {"interval": [spec.interval.lo, spec.interval.hi], **base, "H": [0.5, 0.5], "h": h}


def _rungs(lo: float, hi: float, steps: list[float]) -> list[list[float]]:
    """Ladder rungs: [lo, hi], then [lo - d, hi + d] for each step d."""
    return [[lo, hi]] + [[lo - d, hi + d] for d in steps]


def _ladder_steps(rng: random.Random, d_max: float) -> list[float]:
    """LEVELS - 1 growing steps: sorted fractions in [0.15, 0.9] of d_max."""
    return [f * d_max for f in sorted(rng.uniform(0.15, 0.9) for _ in range(LEVELS - 1))]


def _ladder_functionals(rng: random.Random) -> list[list[float]]:
    """A drawn functional on the constant rung, the uniform one on the rest."""
    return [_weights(rng, 2, 0.2)] + [[0.5, 0.5] for _ in range(LEVELS - 1)]


def _gen_ic2(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval = spec.interval
    width = interval.width
    center = rng.uniform(interval.lo + 0.3 * width, interval.hi - 0.3 * width)
    steps = _ladder_steps(rng, min(interval.hi - center, center - interval.lo))
    return {
        "interval": [interval.lo, interval.hi],
        "inners": _rungs(center, center, steps[:-1]),
        "Ls": _ladder_functionals(rng),
        "gs": _rungs(center, center, steps),
    }


def _halves(
    weights: list[float], values: list[float]
) -> tuple[list[list[float]], list[list[float]]]:
    """The functional of n weights split into a family of two, its first
    max(1, n // 2) weights and the rest, both on the same values; returns
    (functionals, value vectors)."""
    k = max(1, len(weights) // 2)
    first = weights[:k] + [0.0] * (len(weights) - k)
    return [first, [0.0] * k + weights[k:]], [values, values]


def _gen_ic3(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    base = _gen_ic1(spec, mode, rng)
    Ls, gs = _halves(base["L"], base["g"])
    return {"interval": [spec.interval.lo, spec.interval.hi], "Ls": Ls, "gs": gs}


def _gen_it3(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    base = _gen_it2(spec, mode, rng)
    payload = {"interval": base["interval"], "inner": base["inner"]}
    payload["Ls"], payload["gs"] = _halves(base["L"], base["g"])
    payload["Hs"], payload["hs"] = _halves(base["H"], base["h"])
    return payload


def _gen_mt4(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval, c = spec.interval, spec.c
    n = max(2, spec.sizes[0])
    weights = _weights(rng, n, 0.2)
    outer1, outer2 = sides(mode, interval, c)
    inner1 = _sub_interval(rng, outer1)
    inner2 = inner1 if mode == "literal" else _sub_interval(rng, outer2)
    g1 = _uniform_in(rng, inner1, n)
    g2 = _uniform_in(rng, inner2, n)
    h1, offset = _matched_pair(rng, weights, g1, inner1, outer1, None)
    h2, _ = _matched_pair(rng, weights, g2, inner2, outer2, offset)
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
    payload = {key: base[key] for key in ("interval", "c", "inner", "inner2") if key in base}
    payload["Ls"], payload["gs"] = _halves(base["L"], base["g1"])
    payload["Hs"], payload["hs"] = _halves(base["H"], base["h1"])
    payload["Ls_star"], payload["gs_star"] = _halves(base["L"], base["g2"])
    payload["Hs_star"], payload["hs_star"] = _halves(base["H"], base["h2"])
    return payload


def _gen_mc1(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    interval, c = spec.interval, spec.c
    lo_frac = rng.uniform(0.5, 0.9)
    hi_frac = rng.uniform(0.5, 0.9)
    inner = IntervalR(c - lo_frac * (c - interval.lo), c + hi_frac * (interval.hi - c))
    g1_box, g2_box = sides(mode, inner, c)
    g1 = _uniform_in(rng, g1_box, 2)
    m1 = 0.5 * (g1[0] + g1[1])
    var1 = moment((0.5, 0.5), g1) - m1 * m1
    d = math.sqrt(var1)
    m2 = _window_draw(rng, g2_box.lo + d, g2_box.hi - d)
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
        g_side, h_side = sides(mode, interval, c)
        g_lo, g_hi = g_side.lo, g_side.hi
        h_lo, h_hi = h_side.lo, h_side.hi
        g_center = rng.uniform(g_lo + 0.35 * (g_hi - g_lo), g_hi - 0.35 * (g_hi - g_lo))
        h_center = rng.uniform(h_lo + 0.35 * (h_hi - h_lo), h_hi - 0.35 * (h_hi - h_lo))
        d_max = min(g_hi - g_center, g_center - g_lo, h_hi - h_center, h_center - h_lo)
        ds = _ladder_steps(rng, d_max)
        inners = {
            "g_inners": _rungs(g_center, g_center, ds[:-1]),
            "h_inners": _rungs(h_center, h_center, ds[:-1]),
        }
    else:
        width = interval.width
        delta = rng.uniform(0.05, 0.12) * width
        g_center = rng.uniform(interval.lo + 0.4 * width, interval.hi - 0.4 * width - delta)
        h_center = g_center + delta
        room = min(g_center - interval.lo, interval.hi - h_center)
        step0 = delta + rng.uniform(0.2, 0.4) * (room - (LEVELS - 1) * delta) / (LEVELS - 1)
        if step0 <= delta:
            raise _Retry
        ds = [step0 * (k + 1) for k in range(LEVELS - 1)]
        if ds[-1] > room:
            raise _Retry
        inners = {"g_inners": _rungs(g_center, h_center, ds[:-1])}
    return {
        "interval": [interval.lo, interval.hi],
        "c": c,
        "Ls": _ladder_functionals(rng),
        "gs": _rungs(g_center, g_center, ds),
        "hs": _rungs(h_center, h_center, ds),
        **inners,
    }


def _gen_mc3(spec: GenSpec, mode: str, rng: random.Random) -> dict:
    base = _gen_mc1(spec, mode, rng)
    Ls, gs = _halves(base["L"], base["g1"])
    hs = [base["g2"], base["g2"]]
    return {"interval": base["interval"], "c": base["c"], "Ls": Ls, "gs": gs, "hs": hs}


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
    spec: GenSpec, theorem_id: str, mode: str | None, rng: random.Random | None = None
) -> dict:
    """Scenario payload for any theorem id, ready for dispatch or serialization.
    ``lookup`` reads the mode (None is the theorem's first) and rejects a bad one.

    Equality constraints hold by construction; draws are rejected and
    retried when the two-point roots would violate the range constraints.
    """
    _, mode = lookup(theorem_id, mode)
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
    base_spec = spec if spec is not None else GenSpec(seed=seed)
    check_count("search budget", budget, base_spec)
    results: list[SearchResult] = []

    def consider(payload: dict, trace: tuple) -> None:
        report = run_payload(theorem_id, mode, f, payload)
        if report["verdict"] == UNMET:
            return
        margin = report["margin"]
        if margin is not None and margin < -report_threshold:
            details = {"verdict": report["verdict"]}
            results.append(SearchResult(payload, margin, trace, details))

    if include_probes and theorem_id == "mt4" and mode == "literal":
        consider(straddle_probe_mt4(), ("probe",))
    for i in range(budget):
        rng = random.Random(seed + i)
        payload = gen_payload(base_spec, theorem_id, mode, rng)
        consider(payload, (seed, i))
    results.sort(key=lambda r: r.margin)
    return results
