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

``scoreboard.json`` holds the committed counts, and
``tests/test_scoreboard.py`` fails when a guarded count (``guarded``)
rises above them.  ``python tests/scoreboard.py`` prints the table;
``--write`` re-records the counts, for a change that lowers them.
"""

from __future__ import annotations

import json
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


def run_cell(theorem_id: str, mode: str, fn: str, case) -> dict[str, int]:
    """Outcome counts of one (id, mode, case) over ``SEEDS``."""
    (lo, hi), c = case
    f = model_from_spec(fn_spec_from_string(fn, point=c))
    counts = dict.fromkeys(OUTCOMES, 0)
    try:
        require_in_domain(f, lo, hi)
    except DomainError:
        counts["input error"] = len(SEEDS)
        return counts
    spec = GenSpec(0, IntervalR(lo, hi), c)
    for seed in SEEDS:
        try:
            payload = gen_payload(spec, theorem_id, mode, random.Random(seed))
            outcome = _VERDICTS[run_payload(theorem_id, mode, f, payload)["verdict"]]
        except InfeasibleError:
            outcome = "infeasible"
        except (StructureError, DomainError):
            outcome = "input error"
        counts[outcome] += 1
    return counts


def run() -> dict[str, dict[str, int]]:
    """Counts of every cell, keyed by ``cell_key``."""
    return {
        cell_key(theorem_id, mode, case): run_cell(theorem_id, mode, fn, case)
        for theorem_id, mode, fn in pairs()
        for case in CASES
    }


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
    cells = json.loads(COMMITTED.read_text(encoding="utf-8"))
    return {key: dict(zip(OUTCOMES, row)) for key, row in cells.items()}


def write(counts: dict[str, dict[str, int]]) -> None:
    """One cell per line: its key, then its counts in ``OUTCOMES`` order."""
    rows = [f"  {json.dumps(key)}: {json.dumps(list(c.values()))}" for key, c in counts.items()]
    COMMITTED.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")


def table(counts: dict[str, dict[str, int]]) -> str:
    """One row per (id, mode), one column per case; a cell reads
    holds/fails/unmet/infeasible/input error."""
    rows = [["", *map(case_label, CASES)]] + [
        [f"{theorem_id} {mode}"]
        + ["/".join(map(str, counts[cell_key(theorem_id, mode, case)].values())) for case in CASES]
        for theorem_id, mode, _ in pairs()
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["cells: " + "/".join(OUTCOMES)]
    for label, *cells in rows:
        padded = (f"{x:>{w}}" for x, w in zip(cells, widths[1:]))
        lines.append(label.ljust(widths[0]) + "  " + "  ".join(padded))
    totals = {o: sum(c[o] for c in counts.values()) for o in OUTCOMES}
    lines.append("total: " + ", ".join(f"{o} {n}" for o, n in totals.items()))
    return "\n".join(lines)


if __name__ == "__main__":
    counts = run()
    if sys.argv[1:] == ["--write"]:
        write(counts)
    print(table(counts))
