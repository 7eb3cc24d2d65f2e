"""Plain-Python reference margins for generated scenario payloads.

Deliberately free of any jensengap import: margins are recomputed with naive
loops over plain dict payloads and plain Python callables, so a defect in
the program cannot also hide in its own check.  Each function returns the
verdict-determining margin (the minimum over the theorem's margins) and a
magnitude scale for comparing it with the program's value.
"""

from __future__ import annotations

#: the program's verdict threshold and the search's report threshold
EPS = 1e-9


def function(spec: str):
    """Plain callable for a catalog spec: "quadratic:q" or "signed_square"."""
    name, _, arg = spec.partition(":")
    if name == "quadratic":
        q = float(arg)
        return lambda x: 0.5 * q * x * x
    if name == "signed_square":
        return lambda x: x * abs(x)
    raise ValueError(f"no reference for function {spec!r}")


def wsum(weights, values):
    total = 0.0
    for w, v in zip(weights, values):
        total += w * v
    return total


def fn_sum(weights, values, fn):
    total = 0.0
    for w, v in zip(weights, values):
        if w != 0.0:
            total += w * fn(v)
    return total


def _groups(cfg):
    return (
        (cfg["plus_a"], 1.0),
        (cfg["plus_b"], 1.0),
        (cfg.get("minus_c") or {"points": [], "weights": []}, -1.0),
    )


def _cfg_sum(cfg, fn):
    return sum(sign * fn_sum(g["weights"], g["points"], fn) for g, sign in _groups(cfg))


def _cfg_gap(cfg, fn):
    return _cfg_sum(cfg, fn) - fn(_cfg_sum(cfg, lambda p: p))


def _cfg_spread(cfg):
    value = _cfg_sum(cfg, lambda p: p)
    return _cfg_sum(cfg, lambda p: p * p) - value * value


def _cross_gap(weights_from, points_from, fn):
    """Index-sharing reading: one configuration's weights on another's points."""
    total = 0.0
    value = 0.0
    for (wg, sign), (pg, _) in zip(_groups(weights_from), _groups(points_from)):
        for w, p in zip(wg["weights"], pg["points"]):
            value += sign * w * p
            if w != 0.0:
                total += sign * w * fn(p)
    return total - fn(value)


def _chain(payload, fn, A, mode, descending):
    left, right = payload["left"], payload["right"]
    gap_l = _cfg_gap(left, fn)
    if mode == "literal_alpha":
        gap_r = _cross_gap(left, right, fn)
    else:
        gap_r = _cfg_gap(right, fn)
    mid_l = 0.5 * A * _cfg_spread(left)
    mid_r = 0.5 * A * _cfg_spread(right)
    if descending:
        margins = (gap_l - mid_l, mid_l - mid_r, mid_r - gap_r)
    else:
        margins = (mid_l - gap_l, mid_r - mid_l, gap_r - mid_r)
    return min(margins), (gap_l, gap_r, mid_l, mid_r)


def _family_sum(ws, vs, fn):
    return sum(fn_sum(w, v, fn) for w, v in zip(ws, vs))


def _family_mean(ws, vs):
    return sum(wsum(w, v) for w, v in zip(ws, vs))


def _gap(w, v, fn):
    return fn_sum(w, v, fn) - fn(wsum(w, v))


def margin(theorem_id: str, mode: str, payload: dict, fn, A: float | None = None):
    """(margin, scale) for one payload; A is the curvature constant of the
    chain theorems mt1-mt3 and is ignored by the others."""
    p = payload
    if theorem_id in ("mt1", "mt2", "mt3"):
        return _scaled(*_chain(p, fn, A, mode, descending=theorem_id == "mt3"))
    if theorem_id == "it2":
        left, right = fn_sum(p["L"], p["g"], fn), fn_sum(p["H"], p["h"], fn)
        return _scaled(right - left, (left, right))
    if theorem_id == "it3":
        left = _family_sum(p["Ls"], p["gs"], fn)
        right = _family_sum(p["Hs"], p["hs"], fn)
        return _scaled(right - left, (left, right))
    if theorem_id == "ic1":
        lifted = fn_sum(p["L"], p["g"], fn)
        return _scaled(_gap(p["L"], p["g"], fn), (lifted,))
    if theorem_id == "ic2":
        lifted = [fn_sum(w, v, fn) for w, v in zip(p["Ls"], p["gs"])]
        links = [lifted[i + 1] - lifted[i] for i in range(len(lifted) - 1)]
        return _scaled(min(links), lifted)
    if theorem_id == "ic3":
        lifted = _family_sum(p["Ls"], p["gs"], fn)
        return _scaled(lifted - fn(_family_mean(p["Ls"], p["gs"])), (lifted,))
    if theorem_id == "mt4":
        terms = (
            fn_sum(p["H"], p["h1"], fn),
            fn_sum(p["L"], p["g1"], fn),
            fn_sum(p["H"], p["h2"], fn),
            fn_sum(p["L"], p["g2"], fn),
        )
        return _scaled((terms[2] - terms[3]) - (terms[0] - terms[1]), terms)
    if theorem_id == "mt5":
        terms = (
            _family_sum(p["Hs"], p["hs"], fn),
            _family_sum(p["Ls"], p["gs"], fn),
            _family_sum(p["Hs_star"], p["hs_star"], fn),
            _family_sum(p["Ls_star"], p["gs_star"], fn),
        )
        return _scaled((terms[2] - terms[3]) - (terms[0] - terms[1]), terms)
    if theorem_id == "mc1":
        gap1, gap2 = _gap(p["L"], p["g1"], fn), _gap(p["L"], p["g2"], fn)
        lifted = (fn_sum(p["L"], p["g1"], fn), fn_sum(p["L"], p["g2"], fn))
        return _scaled(gap2 - gap1, lifted)
    if theorem_id == "mc2":
        g_lift = [fn_sum(w, v, fn) for w, v in zip(p["Ls"], p["gs"])]
        h_lift = [fn_sum(w, v, fn) for w, v in zip(p["Ls"], p["hs"])]
        links = [
            (h_lift[i + 1] - h_lift[i]) - (g_lift[i + 1] - g_lift[i])
            for i in range(len(g_lift) - 1)
        ]
        return _scaled(min(links), g_lift + h_lift)
    if theorem_id == "mc3":
        g_lift = _family_sum(p["Ls"], p["gs"], fn)
        h_lift = _family_sum(p["Ls"], p["hs"], fn)
        g_gap = g_lift - fn(_family_mean(p["Ls"], p["gs"]))
        h_gap = h_lift - fn(_family_mean(p["Ls"], p["hs"]))
        return _scaled(h_gap - g_gap, (g_lift, h_lift))
    raise ValueError(f"no reference for theorem {theorem_id!r}")


def _scaled(m, terms):
    return m, max([1.0] + [abs(t) for t in terms])


def expect_fails(m: float, scale: float) -> bool | None:
    """Whether a search reports this margin as a counterexample; None when
    the margin lies so close to the threshold that rounding decides it."""
    if abs(m + EPS) <= 1e-12 * scale:
        return None
    return m < -EPS
