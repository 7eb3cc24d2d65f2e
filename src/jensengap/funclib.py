"""Function models: evaluation, one-sided curvature, and a small catalog.

Every model carries analytic one-sided second derivatives and an f''
certificate (``d2_certificate``): on any [lo, hi], the ordered values
between which f'' is monotone.  A catalog entry's f'' is monotone on its
whole domain, so its values are f''(lo+) and f''(hi-); a table is a C^1
quadratic spline, so its values are the constant curvatures of the pieces
that meet [lo, hi].  A function known only by its values is read as a
table (``tabulated_model``).  That certificate is the one source of the
paper's constant A: at any c, the A for which f(x) - (A/2) x^2 is concave
left of c and convex right of it are exactly [f''(c-), f''(c+)] when f''
is nondecreasing (``analysis``).  ``lift`` forms every sum(w * f(x)).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

from .domain import IntervalR, StructureError, checked_fsum


class DomainError(ValueError):
    """Evaluation outside a model's domain."""


#: half-width of the default domain for polynomial catalog entries
WIDE = 1e6
#: relative slack when testing domain membership
DOMAIN_SLACK = 1e-12
#: table files whose parsed and fitted table is kept, least recently used
#: dropped first
TABLE_CACHE_SIZE = 8


class FunctionModel:
    """A function on its domain, with its one-sided second derivatives
    ``d2_minus``/``d2_plus`` and its f'' certificate.  Models hash and
    compare by identity.

    ``d2_certificate(lo, hi)`` returns values of f'' on [lo, hi] in order
    from lo to hi, f'' being monotone (either way) from each one to the
    next; ``analysis`` answers every shape query from them.  All three maps
    are required: a function known only by its values is read as a table
    (``tabulated_model``), whose spline supplies them.
    """

    __slots__ = ("name", "domain", "fn", "d2_minus", "d2_plus", "d2_certificate")

    def __init__(
        self,
        name: str,
        domain: IntervalR,
        fn: Callable[[float], float],
        d2_minus: Callable[[float], float],
        d2_plus: Callable[[float], float],
        d2_certificate: Callable[[float, float], Sequence[float]],
    ):
        self.name = name
        self.domain = domain
        self.fn = fn
        self.d2_minus = d2_minus
        self.d2_plus = d2_plus
        self.d2_certificate = d2_certificate


def _in_domain(dom: IntervalR, x: float) -> bool:
    """Whether x lies in dom within the slack DOMAIN_SLACK * max(1, |x|)."""
    slack = abs(x)
    slack = DOMAIN_SLACK * (slack if slack > 1.0 else 1.0)
    return dom.lo - slack <= x <= dom.hi + slack


def eval_fn(f: FunctionModel, x: float) -> float:
    if not _in_domain(f.domain, x):
        raise DomainError(f"{f.name}: x={x!r} outside domain [{f.domain.lo}, {f.domain.hi}]")
    value = float(f.fn(x))
    if not math.isfinite(value):
        raise DomainError(f"{f.name}: non-finite value at x={x!r}")
    return value


def require_in_domain(f: FunctionModel, lo: float, hi: float, what: str = "interval") -> None:
    """Reject [lo, hi] unless both ends lie in f's domain, with eval_fn's
    slack, before any evaluation; the error names ``what``."""
    dom = f.domain
    if not (_in_domain(dom, lo) and _in_domain(dom, hi)):
        raise DomainError(f"{f.name}: {what} [{lo}, {hi}] outside domain [{dom.lo}, {dom.hi}]")


def lift(f: FunctionModel, weights, xs, what: str, *factors) -> float:
    """sum(w * f(x)) over the nonzero weights as a ``checked_fsum`` naming ``what``
    over ``factors``; each f(x) is evaluated first, so an error of f is its own."""
    terms = []
    for w, x in zip(weights, xs):
        if w != 0.0:
            terms.append(w * eval_fn(f, x))
    return checked_fsum(terms, what, *factors)


def _monotone_model(
    name: str,
    domain: IntervalR,
    fn: Callable[[float], float],
    d2_minus: Callable[[float], float],
    d2_plus: Callable[[float], float] | None = None,
) -> FunctionModel:
    """A model whose f'' is monotone on its whole domain, so that on [lo, hi]
    it runs from d2_plus(lo) to d2_minus(hi); d2_plus defaults to d2_minus."""
    d2_plus = d2_minus if d2_plus is None else d2_plus
    return FunctionModel(
        name, domain, fn, d2_minus, d2_plus, lambda lo, hi: (d2_plus(lo), d2_minus(hi))
    )


def _signed_square_d2_minus(x: float) -> float:
    return -2.0 if x <= 0.0 else 2.0


def _signed_square_d2_plus(x: float) -> float:
    return 2.0 if x >= 0.0 else -2.0


def catalog(name: str, param: float | str | None = None) -> FunctionModel:
    """Build a catalog model.

    Names: quadratic (needs a curvature parameter q, f = q x^2 / 2), cubic,
    signed_square (x|x|), neg_signed_square (-x|x|), exp, tabulated-spline
    (needs a file path; ``tabulated_model`` models a table object).  A
    parameter given to a function that takes none is rejected.  Every entry
    carries an f'' certificate, so its constant A at any c comes from its d2
    maps.  A table file is parsed and fitted once per content
    (``load_table``).
    """
    if param is not None and name in ("cubic", "signed_square", "neg_signed_square", "exp"):
        raise StructureError(f"catalog function {name!r} takes no parameter")
    wide = IntervalR(-WIDE, WIDE)
    if name == "quadratic":
        if param is None:
            raise StructureError("quadratic needs a parameter, e.g. quadratic:2")
        q = float(param)
        if not math.isfinite(q):
            raise StructureError(f"quadratic parameter must be a finite number, got {param!r}")
        return _monotone_model(
            f"quadratic({q:g})", wide, lambda x, q=q: 0.5 * q * x * x, lambda x, q=q: q
        )
    if name == "cubic":
        return _monotone_model("cubic", wide, lambda x: x * x * x, lambda x: 6.0 * x)
    if name == "signed_square":
        # f'' = 2 sign(x); at 0 the one-sided values differ.  Any constant in
        # [-2, 2] works at c = 0; the certified midpoint is 0.
        return _monotone_model(
            "signed_square", wide, lambda x: x * abs(x),
            _signed_square_d2_minus, _signed_square_d2_plus,
        )
    if name == "neg_signed_square":
        return negate(catalog("signed_square"))
    if name == "exp":
        return _monotone_model("exp", IntervalR(-10.0, 10.0), math.exp, math.exp)
    if name == "tabulated-spline":
        if param is None:
            raise StructureError("tabulated-spline needs a file path")
        return tabulated_model(load_table(param))
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
    """Pointwise negation; keeps the f'' certificate, negated (-f'' is
    monotone wherever f'' is), so a K1c point of f is a K2c point of -f."""
    cert = f.d2_certificate
    return FunctionModel(
        name=f"neg({f.name})",
        domain=f.domain,
        fn=lambda x, g=f.fn: -g(x),
        d2_minus=lambda x, g=f.d2_minus: -g(x),
        d2_plus=lambda x, g=f.d2_plus: -g(x),
        d2_certificate=lambda lo, hi: [-v for v in cert(lo, hi)],
    )


class TabulatedFunction:
    """Sampled function on strictly increasing nodes, read as the C^1
    quadratic spline with knots at the nodes.  Tables hash and compare by
    identity.

    The slope s_0 at the first node is that of the polynomial through the
    first min(n, 4) nodes, and s_i+1 = 2 (y_i+1 - y_i) / h_i - s_i, so piece
    i is y_i + s_i t + kappa_i t^2 / 2 with the constant curvature
    kappa_i = (s_i+1 - s_i) / h_i.  The spline reproduces exactly every
    quadratic, and every piecewise quadratic whose breaks lie at nodes from
    the fourth on (x|x| on nodes that include 0).  A break between nodes is
    not damped: the curvatures alternate about it to the end of the table.
    """

    __slots__ = ("nodes", "values", "slopes", "curvatures")

    def __init__(self, nodes, values):
        self.nodes = nodes = tuple(float(x) for x in nodes)
        self.values = values = tuple(float(y) for y in values)
        if len(nodes) != len(values):
            raise StructureError("nodes and values must have equal length")
        if len(nodes) < 2:
            raise StructureError("a table needs at least 2 nodes")
        for a, b in zip(nodes, nodes[1:]):
            if not a < b:
                raise StructureError("table nodes must be strictly increasing")
        # Newton form of the polynomial through the first k nodes; its slope
        # at nodes[0] is the sum of c_j * prod_{1 <= m < j} (x_0 - x_m)
        k = min(len(nodes), 4)
        dd, slope, weight = values[:k], 0.0, 1.0
        for j in range(1, k):
            dd = [(b - a) / (nodes[i + j] - nodes[i]) for i, (a, b) in enumerate(zip(dd, dd[1:]))]
            slope += weight * dd[0]
            weight *= nodes[0] - nodes[j]
        slopes = [slope]
        for x0, x1, y0, y1 in zip(nodes, nodes[1:], values, values[1:]):
            slopes.append(2.0 * (y1 - y0) / (x1 - x0) - slopes[-1])
        self.slopes = tuple(slopes)
        self.curvatures = tuple(
            (b - a) / (x1 - x0) for a, b, x0, x1 in zip(slopes, slopes[1:], nodes, nodes[1:])
        )
        if not all(map(math.isfinite, self.curvatures)):
            raise StructureError("table values and their spline must be finite")

    def _right(self, x: float) -> int:
        """Index of the piece just right of x (the last one at or past the end)."""
        i = bisect_right(self.nodes, x) - 1
        return 0 if i < 0 else min(i, len(self.curvatures) - 1)

    def _left(self, x: float) -> int:
        """Index of the piece just left of x (the first one at or before the start)."""
        i = bisect_left(self.nodes, x) - 1
        return 0 if i < 0 else min(i, len(self.curvatures) - 1)

    def __call__(self, x: float) -> float:
        i = self._right(x)
        t = x - self.nodes[i]
        return self.values[i] + t * (self.slopes[i] + 0.5 * self.curvatures[i] * t)

    def d2_minus(self, x: float) -> float:
        return self.curvatures[self._left(x)]

    def d2_plus(self, x: float) -> float:
        return self.curvatures[self._right(x)]

    def d2_pieces(self, lo: float, hi: float) -> tuple[float, ...]:
        """Curvatures of the pieces that meet [lo, hi], lo < hi, left to right."""
        return self.curvatures[self._right(lo) : self._left(hi) + 1]


def load_table(path: str | Path) -> TabulatedFunction:
    """Read a two-column (node, value) text file; '#' starts a comment.

    The file is read on every call, so a rewritten file is never served
    stale; its text is parsed and fitted once per (path, text), and the
    same table object is returned while that pair stays among the
    TABLE_CACHE_SIZE most recently loaded.  A malformed file raises
    StructureError, naming ``path:lineno``, on every call.
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


def tabulated_model(tab: TabulatedFunction) -> FunctionModel:
    """Model evaluating the table's spline, with its exact piecewise-constant
    f'' as the certificate."""
    return FunctionModel(
        name="tabulated-spline",
        domain=IntervalR(tab.nodes[0], tab.nodes[-1]),
        fn=tab,
        d2_minus=tab.d2_minus,
        d2_plus=tab.d2_plus,
        d2_certificate=tab.d2_pieces,
    )
