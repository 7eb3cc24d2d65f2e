"""Verification reports shared by the affine and functional verifiers."""

from __future__ import annotations

import math
from typing import Sequence

from .domain import CheckSet

HOLDS = "holds"
FAILS = "fails"
UNMET = "hypotheses-unmet"


class ChainReport:
    """Outcome of a verification.

    ``margins`` are the slacks that determine the verdict; ``hypotheses`` is
    the verifier's ``CheckSet``, the record of its named checks; refinement
    values that are reported but do not gate the verdict live in ``details``.
    ``values`` holds only the chain terms the verifier measured: all six
    (gap_left, gap_right, spread_left, spread_right, mid_left, mid_right)
    for a four-term chain, gap_left and gap_right for it2, none otherwise.
    """

    __slots__ = ("verdict", "margins", "hypotheses", "details", "values")

    def __init__(
        self,
        verdict: str,
        margins: tuple[float, ...] = (),
        hypotheses: CheckSet | None = None,
        details: dict | None = None,
        values: dict | None = None,
    ):
        self.verdict = verdict
        self.margins = margins
        self.hypotheses = hypotheses
        self.details = {} if details is None else details
        self.values = {} if values is None else values

    @property
    def chain(self) -> tuple[float, ...]:
        """The measured gap_left, mid_left, mid_right, gap_right, NaN left out."""
        terms = ("gap_left", "mid_left", "mid_right", "gap_right")
        vals = (self.values[k] for k in terms if k in self.values)
        return tuple(v for v in vals if not math.isnan(v))

    @property
    def margin(self) -> float:
        return min(self.margins) if self.margins else math.nan


def judge(
    cs: CheckSet,
    margins: Sequence[float],
    *,
    conclusion: bool = True,
    details: dict | None = None,
    values: dict | None = None,
) -> ChainReport:
    """Report of a verification whose hypotheses all passed.  The one verdict
    rule: the verdict holds exactly when the conclusion holds and
    min(margins) >= -tol (``cs.admits``); otherwise it fails.  ``details``
    and ``values`` go into the report as given."""
    ok = conclusion and cs.admits(min(margins), lo=0.0)
    return ChainReport(HOLDS if ok else FAILS, tuple(margins), cs, details, values)


def chain_report(
    cs: CheckSet,
    A: float,
    gaps: tuple[float, float],
    spreads: tuple[float, float],
    details: dict,
    order: str = "ascending",
) -> ChainReport:
    """Four-term chain gap_left, (A/2) spread_left, (A/2) spread_right, gap_right.

    "ascending" gates the verdict on the three slacks of the increasing
    chain, "descending" on those of the decreasing one.  "transfer" gates it
    on gap_right - gap_left alone and reports the ascending slacks in
    ``details`` as refine_left, refine_mid and refine_right.  All six terms,
    the spreads included, go into the report's ``values``.
    """
    (gap_l, gap_r), (sl, sr) = gaps, spreads
    mid_l, mid_r = 0.5 * A * sl, 0.5 * A * sr
    details = {**details, "A": A}
    if order == "descending":
        margins = (gap_l - mid_l, mid_l - mid_r, mid_r - gap_r)
    elif order == "ascending":
        margins = (mid_l - gap_l, mid_r - mid_l, gap_r - mid_r)
    else:
        margins = (gap_r - gap_l,)
        details.update(
            refine_left=mid_l - gap_l, refine_mid=mid_r - mid_l, refine_right=gap_r - mid_r
        )
    values = {
        "gap_left": gap_l, "gap_right": gap_r, "spread_left": sl, "spread_right": sr,
        "mid_left": mid_l, "mid_right": mid_r,
    }
    return judge(cs, margins, details=details, values=values)
