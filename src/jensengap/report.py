"""Verification reports shared by the affine and functional verifiers."""

from __future__ import annotations

import math
from typing import Sequence

from .domain import CheckSet, ValidityReport

HOLDS = "holds"
FAILS = "fails"
UNMET = "hypotheses-unmet"


class ChainReport:
    """Outcome of a verification.

    ``margins`` are the slacks that determine the verdict; refinement values
    that are reported but do not gate the verdict live in ``details``.
    Fields that do not apply to a particular verifier are NaN.
    """

    __slots__ = (
        "verdict", "gap_left", "gap_right", "spread_left", "spread_right",
        "mid_left", "mid_right", "margins", "hypotheses", "details",
    )

    def __init__(
        self,
        verdict: str,
        gap_left: float = math.nan,
        gap_right: float = math.nan,
        spread_left: float = math.nan,
        spread_right: float = math.nan,
        mid_left: float = math.nan,
        mid_right: float = math.nan,
        margins: tuple[float, ...] = (),
        hypotheses: ValidityReport | None = None,
        details: dict | None = None,
    ):
        self.verdict = verdict
        self.gap_left = gap_left
        self.gap_right = gap_right
        self.spread_left = spread_left
        self.spread_right = spread_right
        self.mid_left = mid_left
        self.mid_right = mid_right
        self.margins = margins
        self.hypotheses = hypotheses
        self.details = {} if details is None else details

    @property
    def chain(self) -> tuple[float, ...]:
        vals = (self.gap_left, self.mid_left, self.mid_right, self.gap_right)
        return tuple(v for v in vals if not math.isnan(v))

    @property
    def margin(self) -> float:
        return min(self.margins) if self.margins else math.nan


def judge(
    cs: CheckSet, margins: Sequence[float], *, conclusion: bool = True, **fields
) -> ChainReport:
    """Report of a verification whose hypotheses all passed.  The one verdict
    rule: the verdict holds exactly when the conclusion holds and
    min(margins) >= -tol; otherwise it fails."""
    ok = conclusion and min(margins) >= -cs.tol
    return ChainReport(
        HOLDS if ok else FAILS, margins=tuple(margins), hypotheses=cs.report(), **fields
    )


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
    ``details`` as refine_left, refine_mid and refine_right.
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
    return judge(
        cs,
        margins,
        gap_left=gap_l,
        gap_right=gap_r,
        spread_left=sl,
        spread_right=sr,
        mid_left=mid_l,
        mid_right=mid_r,
        details=details,
    )
