"""Function models: evaluation, one-sided curvature, and a small catalog.

Catalog entries carry analytic one-sided second derivatives and a
certificate that f'' is monotone on the whole domain (``d2_monotone``).
That certificate is the one source of the paper's constant A: at any c,
the A for which f(x) - (A/2) x^2 is concave left of c and convex right of
it are exactly [f''(c-), f''(c+)] when f'' is nondecreasing (``analysis``).
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from pathlib import Path
from typing import Callable

from .domain import IntervalR, StructureError


class DomainError(ValueError):
    """Evaluation outside a model's domain."""


#: half-width of the default domain for polynomial catalog entries
WIDE = 1e6
#: relative step for one-sided second differences
FD_STEP = 1e-5
#: relative slack when testing domain membership
DOMAIN_SLACK = 1e-12
#: table files whose parsed table and model are kept, least recently used
#: dropped first
TABLE_CACHE_SIZE = 8


class FunctionModel:
    """A function on its domain, with optional analytic one-sided second
    derivatives.  Models hash and compare by identity.

    ``d2_monotone`` certifies that f'' is monotone (in either direction) on
    the whole domain, with ``d2_minus``/``d2_plus`` its exact one-sided
    values; ``analysis`` then answers shape queries from those values
    instead of a grid.  It needs both analytic maps.
    """

    __slots__ = ("name", "domain", "fn", "d2_minus", "d2_plus", "d2_monotone")

    def __init__(
        self,
        name: str,
        domain: IntervalR,
        fn: Callable[[float], float],
        d2_minus: Callable[[float], float] | None = None,
        d2_plus: Callable[[float], float] | None = None,
        d2_monotone: bool = False,
    ):
        if d2_monotone and (d2_minus is None or d2_plus is None):
            raise StructureError(f"{name}: a monotone-f'' certificate needs both analytic d2 maps")
        self.name = name
        self.domain = domain
        self.fn = fn
        self.d2_minus = d2_minus
        self.d2_plus = d2_plus
        self.d2_monotone = d2_monotone


def eval_fn(f: FunctionModel, x: float) -> float:
    slack = abs(x)
    slack = DOMAIN_SLACK * (slack if slack > 1.0 else 1.0)
    dom = f.domain
    if not dom.lo - slack <= x <= dom.hi + slack:
        raise DomainError(f"{f.name}: x={x!r} outside domain [{dom.lo}, {dom.hi}]")
    value = float(f.fn(x))
    if not math.isfinite(value):
        raise DomainError(f"{f.name}: non-finite value at x={x!r}")
    return value


def require_in_domain(f: FunctionModel, lo: float, hi: float, what: str = "interval") -> None:
    """Reject [lo, hi] unless both ends lie in f's domain, with eval_fn's
    slack, before any evaluation; the error names ``what``."""
    dom = f.domain
    for x in (lo, hi):
        slack = abs(x)
        slack = DOMAIN_SLACK * (slack if slack > 1.0 else 1.0)
        if not dom.lo - slack <= x <= dom.hi + slack:
            raise DomainError(f"{f.name}: {what} [{lo}, {hi}] outside domain [{dom.lo}, {dom.hi}]")


def d2_one_sided(f: FunctionModel, x: float, side: str, h: float | None = None) -> float:
    """One-sided second derivative at x.

    Uses the analytic mapping when the model provides one; otherwise a
    one-sided second difference with O(h) accuracy on C^3 pieces:
    (f(x) - 2 f(x -+ h) + f(x -+ 2h)) / h^2 for side "minus"/"plus".
    """
    if side not in ("minus", "plus"):
        raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")
    analytic = f.d2_minus if side == "minus" else f.d2_plus
    if analytic is not None:
        return float(analytic(x))
    if h is None:
        h = FD_STEP * max(1.0, abs(x))
    if h <= 0.0:
        raise ValueError("step h must be positive")
    sgn = -1.0 if side == "minus" else 1.0
    far = x + sgn * 2.0 * h
    if not f.domain.contains(far, DOMAIN_SLACK * max(1.0, abs(far))):
        raise DomainError(f"{f.name}: no room for the {side}-side stencil at x={x!r}")
    return (eval_fn(f, x) - 2.0 * eval_fn(f, x + sgn * h) + eval_fn(f, far)) / (h * h)


def _signed_square_d2_minus(x: float) -> float:
    return -2.0 if x <= 0.0 else 2.0


def _signed_square_d2_plus(x: float) -> float:
    return 2.0 if x >= 0.0 else -2.0


def catalog(
    name: str,
    param: float | str | None = None,
    table: "TabulatedFunction | None" = None,
) -> FunctionModel:
    """Build a catalog model.

    Names: quadratic (needs a curvature parameter q, f = q x^2 / 2), cubic,
    signed_square (x|x|), neg_signed_square (-x|x|), exp, tabulated-spline
    (needs a table or a file path).  A parameter given to a function that
    takes none is rejected.  Every entry but the table is certified
    ``d2_monotone``, so its constant A at any c comes from its d2 maps.

    A table file maps to one model per content: ``load_table`` returns the
    same table while the file is unchanged, and that table keeps its model
    while among the TABLE_CACHE_SIZE most recent, so the grid-scan memo in
    ``analysis`` serves every later load.  A table passed in memory gets a
    new model on every call.
    """
    if param is not None and name in ("cubic", "signed_square", "neg_signed_square", "exp"):
        raise StructureError(f"catalog function {name!r} takes no parameter")
    wide = IntervalR(-WIDE, WIDE)
    if name == "quadratic":
        if param is None:
            raise StructureError("quadratic needs a parameter, e.g. quadratic:2")
        q = float(param)
        return FunctionModel(
            name=f"quadratic({q:g})",
            domain=wide,
            fn=lambda x, q=q: 0.5 * q * x * x,
            d2_minus=lambda x, q=q: q,
            d2_plus=lambda x, q=q: q,
            d2_monotone=True,
        )
    if name == "cubic":
        return FunctionModel(
            name="cubic",
            domain=wide,
            fn=lambda x: x * x * x,
            d2_minus=lambda x: 6.0 * x,
            d2_plus=lambda x: 6.0 * x,
            d2_monotone=True,
        )
    if name == "signed_square":
        # f'' = 2 sign(x); at 0 the one-sided values differ.  Any constant in
        # [-2, 2] works at c = 0; the certified midpoint is 0.
        return FunctionModel(
            name="signed_square",
            domain=wide,
            fn=lambda x: x * abs(x),
            d2_minus=_signed_square_d2_minus,
            d2_plus=_signed_square_d2_plus,
            d2_monotone=True,
        )
    if name == "neg_signed_square":
        return negate(catalog("signed_square"))
    if name == "exp":
        return FunctionModel(
            name="exp",
            domain=IntervalR(-10.0, 10.0),
            fn=math.exp,
            d2_minus=math.exp,
            d2_plus=math.exp,
            d2_monotone=True,
        )
    if name == "tabulated-spline":
        if table is None:
            if param is None:
                raise StructureError("tabulated-spline needs a table or a file path")
            return _file_model(load_table(param))
        return tabulated_model(table)
    raise StructureError(f"unknown catalog function {name!r}")


def fn_spec_from_string(spec: str, point: float = 0.0) -> dict:
    """Parse "name" or "name:param" (e.g. "quadratic:2", "tabulated-spline:f.txt")
    into a function-spec object.  ``point`` is recorded in the spec, where
    it does not change the model."""
    name, _, arg = spec.partition(":")
    d: dict = {"name": name.strip(), "point": float(point)}
    arg = arg.strip()
    if arg:
        if d["name"] == "tabulated-spline":
            d["path"] = arg
        else:
            d["param"] = float(arg)
    return d


def negate(f: FunctionModel) -> FunctionModel:
    """Pointwise negation; keeps the monotone-f'' certificate (-f'' is
    monotone the other way), so a K1c point of f is a K2c point of -f."""
    return FunctionModel(
        name=f"neg({f.name})",
        domain=f.domain,
        fn=lambda x, g=f.fn: -g(x),
        d2_minus=None if f.d2_minus is None else (lambda x, g=f.d2_minus: -g(x)),
        d2_plus=None if f.d2_plus is None else (lambda x, g=f.d2_plus: -g(x)),
        d2_monotone=f.d2_monotone,
    )


class TabulatedFunction:
    """Sampled function on strictly increasing nodes.  Tables hash and
    compare by identity."""

    __slots__ = ("nodes", "values")

    def __init__(self, nodes, values):
        self.nodes = nodes = tuple(float(x) for x in nodes)
        self.values = tuple(float(y) for y in values)
        if len(nodes) != len(self.values):
            raise StructureError("nodes and values must have equal length")
        if len(nodes) < 2:
            raise StructureError("a table needs at least 2 nodes")
        for a, b in zip(nodes, nodes[1:]):
            if not a < b:
                raise StructureError("table nodes must be strictly increasing")


def load_table(path: str | Path) -> TabulatedFunction:
    """Read a two-column (node, value) text file; '#' starts a comment.

    The file is read on every call, so a rewritten file is never served
    stale; its text is parsed once per (path, text) and the same table
    object is returned while that pair stays among the TABLE_CACHE_SIZE
    most recently loaded.  A malformed file raises StructureError, naming
    ``path:lineno``, on every call.
    """
    return _parse_table(str(path), Path(path).read_text(encoding="utf-8"))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _parse_table(path: str, text: str) -> TabulatedFunction:
    nodes: list[float] = []
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StructureError(f"{path}:{lineno}: expected two columns, got {raw!r}")
        try:
            nodes.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise StructureError(f"{path}:{lineno}: {exc}") from exc
    return TabulatedFunction(tuple(nodes), tuple(values))


def _interp_quadratic(tab: TabulatedFunction, x: float) -> float:
    nodes, vals = tab.nodes, tab.values
    n = len(nodes)
    if n == 2:
        t = (x - nodes[0]) / (nodes[1] - nodes[0])
        return vals[0] + t * (vals[1] - vals[0])
    i = bisect.bisect_right(nodes, x) - 1
    i = min(max(i, 0), n - 2)
    # pick the consecutive triple of nearest nodes around the bracketing pair
    if i == 0:
        j = 0
    elif i >= n - 2:
        j = n - 3
    else:
        j = i - 1 if x - nodes[i - 1] <= nodes[i + 2] - x else i
    x0, x1, x2 = nodes[j : j + 3]
    y0, y1, y2 = vals[j : j + 3]
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    d012 = (d12 - d01) / (x2 - x0)
    return y0 + d01 * (x - x0) + d012 * (x - x0) * (x - x1)


def tabulated_model(tab: TabulatedFunction, name: str = "tabulated-spline") -> FunctionModel:
    """Model evaluating by degree-2 interpolation on the three nearest nodes."""
    return FunctionModel(
        name=name,
        domain=IntervalR(tab.nodes[0], tab.nodes[-1]),
        fn=lambda x, tab=tab: _interp_quadratic(tab, x),
    )


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _file_model(table: TabulatedFunction) -> FunctionModel:
    # Tables hash and compare by identity, so the entry is keyed by the
    # table object itself, which it keeps alive: two tables with equal
    # values never share a model, and they may differ in the sign of a
    # zero (a 2-node table of (0, -0.0), (1, -1) gives -0.0 at 0).
    return tabulated_model(table)
