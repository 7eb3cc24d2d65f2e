"""Correctness scoreboard: how far generated scenarios are from the north
star's claims that a scenario from ``gen`` never comes back unmet and that
``fails`` is never rounding, counted over one fixed grid.

Every (id, mode) pair runs with its CLI default function over the seven
(interval, c) cases of ``CASES``, seeds 1-40 at the default sizes.  Each
scenario is drawn by ``gen_payload`` and verified by ``run_payload`` in
process, and counts under one outcome of ``OUTCOMES``: its verdict, or
``infeasible`` when no draw met the hypotheses, or ``input error``.  A case
whose interval leaves the function's domain is an input error for every
seed, as the CLI rejects it before any draw.

Beside each cell, a row keyed ``moved_key`` counts the seeds whose outcome
moves under an exact relation (``RELATIONS``), where one applies:
- scale: every point, function value, c and interval end times 2^k, the
  weights left alone, for k in ``SCALES``.  Where the function is
  homogeneous of degree d this is exact in binary floating point, and every
  chain term scales by 2^(dk), so no verdict may move.  A scaling that takes
  an interval end past 1e6 is not run;
- mirror: x -> -x with the two sides swapped takes mt2 on signed_square to
  mt3 (its default "mirrored" convention) on neg_signed_square, for the
  branches ``MIRRORS`` names.

``scoreboard.json`` holds the committed counts, and
``tests/test_scoreboard.py`` fails when a guarded count (``guarded``; every
count of moved outcomes) rises above them.  ``python tests/scoreboard.py``
prints the tables; ``--write`` re-records the counts, for a change that
lowers them.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from jensengap.domain import InfeasibleError, IntervalR, StructureError
from jensengap.funclib import DomainError, require_in_domain
from jensengap.report import FAILS, HOLDS, UNMET
from jensengap.scenario import THEOREMS, fn_spec_from_string, model_from_spec, run_payload
from jensengap.scengen import GenSpec, gen_payload

#: (interval, split point c) of each case, scales 1e-3 to 1e5
CASES = (
    ((-1.0, 1.0), 0.0),
    ((-1.0, 1.0), 0.5),
    ((-3.0, 3.0), 0.5),
    ((0.5, 7.0), 2.0),
    ((99999.0, 100001.0), 1e5),
    ((-1e4, 1e4), 0.0),
    ((-1e-3, 2e-3), 1e-4),
)
SEEDS = range(1, 41)
OUTCOMES = ("holds", "fails", "unmet", "infeasible", "input error")
_VERDICTS = {HOLDS: "holds", FAILS: "fails", UNMET: "unmet"}
COMMITTED = Path(__file__).with_name("scoreboard.json")
#: the exponents k of the scale relation's factors 2^k
SCALES = (-20, -10, 10, 18)
RELATIONS = (*(f"2^{k}" for k in SCALES), "mirror")
#: the catalog functions homogeneous of a degree d: f(2^k x) = 2^(dk) f(x)
HOMOGENEOUS = ("quadratic", "signed_square", "neg_signed_square", "cubic")
#: the largest interval end a scaling may reach
SCALED_END = 1e6
#: (id, mode) of mt2 on signed_square -> (id, mode, function) of its mirror image
MIRRORS = {
    ("mt2", "auto"): ("mt3", "auto", "neg_signed_square"),
    ("mt2", "c"): ("mt3", "c", "neg_signed_square"),
}
#: payload keys that hold weights, which the scale relation leaves alone
WEIGHT_KEYS = frozenset(("weights", "L", "H", "Ls", "Hs", "Ls_star", "Hs_star"))


def case_label(case) -> str:
    (lo, hi), c = case
    return f"[{lo:g}, {hi:g}] at {c:g}"


def pairs():
    """Every (id, mode, default function spec) in registry order."""
    for theorem_id, entry in THEOREMS.items():
        for mode, fn in entry.default_fn.items():
            yield theorem_id, mode, fn


def cell_key(theorem_id: str, mode: str, case) -> str:
    return f"{theorem_id} {mode} | {case_label(case)}"


def moved_key(theorem_id: str, mode: str, case) -> str:
    return f"{cell_key(theorem_id, mode, case)} | moved"


def relations(theorem_id: str, mode: str, fn: str, case) -> tuple[str, ...]:
    """The relations of ``RELATIONS`` that apply to a cell."""
    (lo, hi), _ = case
    end = max(abs(lo), abs(hi))
    scales = SCALES if fn.partition(":")[0] in HOMOGENEOUS else ()
    names = tuple(f"2^{k}" for k in scales if end * 2.0**k <= SCALED_END)
    return names + ("mirror",) * ((theorem_id, mode) in MIRRORS)


def scaled(x, k: int):
    """A copy of a payload with every number except a weight times 2^k."""
    if isinstance(x, dict):
        return {key: v if key in WEIGHT_KEYS else scaled(v, k) for key, v in x.items()}
    if isinstance(x, list):
        return [scaled(v, k) for v in x]
    return math.ldexp(x, k) if isinstance(x, (int, float)) else x


def _negated(cfg: dict) -> dict:
    return {name: {**g, "points": [-p for p in g["points"]]} for name, g in cfg.items()}


def mirrored(payload: dict) -> dict:
    """A two-sided payload under x -> -x: each side the negated other side."""
    lo, hi = payload["interval"]
    return {"left": _negated(payload["right"]), "right": _negated(payload["left"]),
            "c": -payload["c"], "interval": [-hi, -lo]}


def _outcome(theorem_id: str, mode: str, f, payload: dict) -> str:
    try:
        return _VERDICTS[run_payload(theorem_id, mode, f, payload)["verdict"]]
    except (StructureError, DomainError):
        return "input error"


def run_cell(theorem_id: str, mode: str, fn: str, case) -> tuple[dict[str, int], dict]:
    """Outcome counts of one (id, mode, case) over ``SEEDS``, and the number
    of seeds whose outcome moves under each relation that applies to it."""
    (lo, hi), c = case
    f = model_from_spec(fn_spec_from_string(fn, point=c))
    counts = dict.fromkeys(OUTCOMES, 0)
    moved = dict.fromkeys(relations(theorem_id, mode, fn, case), 0)
    try:
        require_in_domain(f, lo, hi)
    except DomainError:
        counts["input error"] = len(SEEDS)
        return counts, moved
    if "mirror" in moved:
        mirror_id, mirror_mode, mirror_fn = MIRRORS[theorem_id, mode]
        g = model_from_spec(fn_spec_from_string(mirror_fn, point=-c))
    spec = GenSpec(0, IntervalR(lo, hi), c)
    for seed in SEEDS:
        try:
            payload = gen_payload(spec, theorem_id, mode, random.Random(seed))
        except InfeasibleError:
            counts["infeasible"] += 1
            continue
        except (StructureError, DomainError):
            counts["input error"] += 1
            continue
        outcome = _outcome(theorem_id, mode, f, payload)
        counts[outcome] += 1
        for name in moved:
            if name == "mirror":
                image = _outcome(mirror_id, mirror_mode, g, mirrored(payload))
            else:
                image = _outcome(theorem_id, mode, f, scaled(payload, int(name[2:])))
            moved[name] += image != outcome
    return counts, moved


def run() -> dict[str, dict[str, int]]:
    """Counts of every cell, keyed by ``cell_key``, each followed by its
    moved outcomes per relation, keyed by ``moved_key``, where one applies."""
    rows = {}
    for theorem_id, mode, fn in pairs():
        for case in CASES:
            counts, moved = run_cell(theorem_id, mode, fn, case)
            rows[cell_key(theorem_id, mode, case)] = counts
            if moved:
                rows[moved_key(theorem_id, mode, case)] = moved
    return rows


def guarded(theorem_id: str, mode: str, fn: str, case) -> tuple[str, ...]:
    """The outcomes whose count may not rise in a cell: infeasible and unmet
    everywhere, and fails where the function's f'' certificate is constant
    on each side of c, so that the chain is an identity there and a ``fails``
    is rounding.  mt1 ``literal_alpha`` reads its weights for exploration and
    may admit real violations, so its fails are not guarded.  Outside the
    function's domain every seed is an input error, and no fails is guarded."""
    (lo, hi), c = case
    f = model_from_spec(fn_spec_from_string(fn, point=c))
    sides = ((lo, c), (c, hi)) if f.domain.lo <= lo and hi <= f.domain.hi else ()
    flat = sides and all(min(d2) == max(d2) for d2 in (f.d2_certificate(*s) for s in sides))
    if flat and (theorem_id, mode) != ("mt1", "literal_alpha"):
        return ("fails", "unmet", "infeasible")
    return ("unmet", "infeasible")


def load() -> dict[str, dict[str, int]]:
    """The committed rows: a cell's counts by outcome, a moved row's by
    relation, where a relation that does not apply is null and left out."""
    rows = json.loads(COMMITTED.read_text(encoding="utf-8"))
    return {
        key: {
            name: n
            for name, n in zip(RELATIONS if key.endswith(" | moved") else OUTCOMES, row)
            if n is not None
        }
        for key, row in rows.items()
    }


def write(counts: dict[str, dict[str, int]]) -> None:
    """One row per line: its key, then its counts in ``OUTCOMES`` order, or
    for a moved row in ``RELATIONS`` order, null where one does not apply."""
    rows = [
        f"  {json.dumps(key)}: "
        + json.dumps([c.get(name) for name in RELATIONS] if key.endswith(" | moved") else list(c.values()))
        for key, c in counts.items()
    ]
    COMMITTED.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")


def _grid(counts, key, columns: tuple[str, ...]) -> list[str]:
    """The rows of a table with one row per (id, mode) and one column per
    case, whose cell joins the row's counts in ``columns`` order by "/"."""
    rows = [["", *map(case_label, CASES)]]
    for theorem_id, mode, _ in pairs():
        cells = [counts.get(key(theorem_id, mode, case)) for case in CASES]
        if any(cells):
            row = ("/".join(str(c.get(n, "-")) for n in columns) if c else "" for c in cells)
            rows.append([f"{theorem_id} {mode}", *row])
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = []
    for label, *cells in rows:
        padded = (f"{x:>{w}}" for x, w in zip(cells, widths[1:]))
        lines.append(label.ljust(widths[0]) + "  " + "  ".join(padded))
    return lines


def table(counts: dict[str, dict[str, int]]) -> str:
    """The cells, one row per (id, mode) and one column per case, a cell
    reading holds/fails/unmet/infeasible/input error; then the moved
    outcomes of each relation, "-" where one does not apply."""
    cells = {k: c for k, c in counts.items() if not k.endswith(" | moved")}
    lines = ["cells: " + "/".join(OUTCOMES), *_grid(counts, cell_key, OUTCOMES)]
    totals = {o: sum(c[o] for c in cells.values()) for o in OUTCOMES}
    lines.append("total: " + ", ".join(f"{o} {n}" for o, n in totals.items()))
    lines += ["", "moved outcomes: " + "/".join(RELATIONS), *_grid(counts, moved_key, RELATIONS)]
    moved = [c for k, c in counts.items() if k.endswith(" | moved")]
    lines.append("total: " + ", ".join(f"{r} {sum(c.get(r, 0) for c in moved)}" for r in RELATIONS))
    return "\n".join(lines)


if __name__ == "__main__":
    counts = run()
    if sys.argv[1:] == ["--write"]:
        write(counts)
    print(table(counts))
