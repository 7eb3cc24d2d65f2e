"""Scenario and report documents: versioned schema, the theorem registry,
parsing, and dispatch.

A scenario file is a single JSON object:

    {"schema_version": 1, "theorem_id": "mt1", "mode": "proper",
     "function": {"name": "signed_square"}, "payload": {...}, "seed": 7}

``THEOREMS`` has one entry per theorem id: its modes with the CLI default
function of each, its payload fields and its verifier.  Adding a theorem
means one entry there plus one generator in ``scengen.GENERATORS``.  A
report is a JSON object with verdict, headline margin, chain values, the
named hypothesis residuals, and provenance.  Keys are emitted sorted, so
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import importlib
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

from . import _SOURCES
from .domain import (
    EPS_EQ,
    AffineConfig,
    IntervalR,
    Mt1Scenario,
    StructureError,
    ValidityReport,
    WeightedGroup,
)
from .funclib import FunctionModel, catalog, fn_spec_from_string  # noqa: F401  (re-exported)
from .report import ChainReport

TOOL = "jensengap"
VERSION = "0.1.0"
SCHEMA_VERSION = 1


class Theorem:
    """Registry entry: everything the engine knows about one theorem id.
    Optional payload fields that are absent or null take the verifier's default."""

    __slots__ = ("verifier", "default_fn", "modes", "fields", "optional", "mode_arg", "mode_values")

    def __init__(
        self,
        verifier: str,
        default_fn: dict[str, str],
        fields: tuple[str, ...],
        optional: tuple[str, ...] = (),
        mode_arg: str = "mode",
        mode_values: dict[str, str] | None = None,
    ):
        #: name of the verifier in this module, resolved on first use
        #: (``__getattr__``) and looked up at call time, so that a wrapper
        #: installed on the module attribute sees every call
        self.verifier = verifier
        #: mode -> default function of the CLI; the first mode is the default
        self.default_fn = default_fn
        self.modes = tuple(default_fn)
        #: required payload fields, in the verifier's argument order
        self.fields = fields
        #: optional payload fields, passed only when present and not null
        self.optional = optional
        #: verifier keyword that receives the mode; single-mode ids pass none
        self.mode_arg = mode_arg
        #: the verifier's value of each mode whose name differs from it
        self.mode_values = {} if mode_values is None else mode_values


#: the payload fields of a two-sided scenario, passed on as one Mt1Scenario
AFFINE_FIELDS = ("left", "right", "c", "interval")
STANDARD = {"standard": "quadratic:2"}
# the literal range reading admits genuine violations for kinked functions,
# so default it to a function whose comparison is an exact identity
SPLIT = {"region_restricted": "signed_square", "literal": "quadratic:2"}

THEOREMS = {
    "mt1": Theorem(
        "verify_mt1",
        {"proper": "signed_square", "literal_alpha": "signed_square"},
        AFFINE_FIELDS,
        ("A",),
        mode_arg="weight_reading",
        mode_values={"proper": "matched"},
    ),
    "mt2": Theorem(
        "verify_mt2",
        {"auto": "signed_square", "a": "exp", "b": "quadratic:-3", "c": "signed_square"},
        AFFINE_FIELDS,
        mode_arg="branch",
    ),
    "mt3": Theorem(
        "verify_mt3",
        {"auto": "quadratic:2", "a": "quadratic:-3", "b": "quadratic:2", "c": "neg_signed_square"},
        AFFINE_FIELDS,
        ("c_convention",),
        mode_arg="branch",
    ),
    "it2": Theorem("verify_it2", STANDARD, ("L", "g", "H", "h", "inner", "interval")),
    "it3": Theorem("verify_it3", STANDARD, ("Ls", "gs", "Hs", "hs", "inner", "interval")),
    "ic1": Theorem("verify_ic1", STANDARD, ("L", "g", "inner")),
    "ic2": Theorem("verify_ic2", STANDARD, ("Ls", "gs", "inners", "interval")),
    "ic3": Theorem("verify_ic3", STANDARD, ("Ls", "gs", "interval")),
    "mt4": Theorem(
        "verify_mt4",
        SPLIT,
        ("L", "H", "g1", "h1", "g2", "h2", "c", "interval", "inner"),
        ("inner2", "A"),
    ),
    "mt5": Theorem(
        "verify_mt5",
        SPLIT,
        (
            "Ls", "gs", "Hs", "hs", "Ls_star", "gs_star", "Hs_star", "hs_star",
            "c", "interval", "inner",
        ),
        ("inner2", "A"),
    ),
    "mc1": Theorem("verify_mc1", SPLIT, ("L", "g1", "g2", "c", "inner"), ("interval",)),
    "mc2": Theorem(
        "verify_mc2", SPLIT, ("Ls", "gs", "hs", "c", "interval", "g_inners"), ("h_inners",)
    ),
    "mc3": Theorem("verify_mc3", SPLIT, ("Ls", "gs", "hs", "c", "interval")),
}
ALL_IDS = tuple(THEOREMS)
_VERIFIERS = frozenset(entry.verifier for entry in THEOREMS.values())
_this = sys.modules[__name__]


def __getattr__(name: str) -> Any:
    """Resolve a registered verifier on first use from the defining module
    that the package's export table names, and bind it here, so only the
    verifiers a process runs are imported."""
    if name not in _VERIFIERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _SOURCES[name]
    value = getattr(importlib.import_module(f".{module}", __package__), attr)
    globals()[name] = value
    return value


def lookup(theorem_id: Any, mode: Any = None) -> tuple[Theorem, str]:
    """Registry entry of a theorem id and the effective mode, the entry's
    first when none is given.  Rejects unknown ids and modes."""
    if theorem_id not in ALL_IDS:
        raise StructureError(f"unknown theorem id {theorem_id!r}")
    entry = THEOREMS[theorem_id]
    mode = mode or entry.modes[0]
    if mode not in entry.modes:
        raise StructureError(f"theorem {theorem_id} has no mode {mode!r}")
    return entry, mode


def dumps(obj: Any) -> str:
    """Canonical document text: sorted keys, two-space indent, trailing newline.

    The text is ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``,
    written directly: json uses its C encoder only without an indent.
    Values are dicts with str keys, lists, tuples, str, int, float, bool
    and None, or subclasses of these; anything else raises TypeError.
    """
    return _write(obj, "\n") + "\n"


def dumps_each(items):
    """``dumps(list(items))`` of a nonempty list, yielded one item at a time."""
    for i, item in enumerate(items):
        yield ("[" if i == 0 else ",") + "\n  " + _write(item, "\n  ")
    yield "\n]\n"


#: json's tokens for the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: a subclass of a JSON type (an IntEnum, an OrderedDict) is written as the
#: value of its base that json writes
_BASES = (
    (int, int.__index__),
    (float, float.__float__),
    (str, str.__str__),
    (dict, dict),
    (list, list),
    (tuple, list),
)


def _write(v: Any, nl: str) -> str:
    """JSON text of `v`; `nl` is a line break and the indent of `v`'s line."""
    t = type(v)
    if t is float:
        r = float.__repr__(v)
        return _NONFINITE.get(r, r)
    if t is str:
        return encode_basestring_ascii(v)
    if t is dict:
        if not v:
            return "{}"
        inner = nl + "  "
        items = [f"{encode_basestring_ascii(k)}: {_write(x, inner)}" for k, x in sorted(v.items())]
        return f"{{{inner}" + f",{inner}".join(items) + f"{nl}}}"
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = nl + "  "
        return f"[{inner}" + f",{inner}".join([_write(x, inner) for x in v]) + f"{nl}]"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if t is int:
        return int.__repr__(v)
    for base, value in _BASES:
        if isinstance(v, base):
            return _write(value(v), nl)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _need(payload: dict, key: str, theorem_id: str) -> Any:
    if key not in payload or payload[key] is None:
        raise StructureError(f"{theorem_id} payload is missing field {key!r}")
    return payload[key]


def interval_from(v: Any) -> IntervalR:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise StructureError(f"interval must be a [lo, hi] pair, got {v!r}")
    return IntervalR(v[0], v[1])


def interval_to(iv: IntervalR) -> list[float]:
    return [iv.lo, iv.hi]


def group_from(d: Any) -> WeightedGroup:
    if not isinstance(d, dict):
        raise StructureError(f"weighted group must be an object, got {d!r}")
    return WeightedGroup(d.get("points", ()), d.get("weights", ()))


def group_to(g: WeightedGroup) -> dict:
    return {"points": list(g.points), "weights": list(g.weights)}


def config_from(d: Any) -> AffineConfig:
    if not isinstance(d, dict):
        raise StructureError(f"affine configuration must be an object, got {d!r}")
    minus = d.get("minus_c") or {"points": [], "weights": []}
    return AffineConfig(
        group_from(_need(d, "plus_a", "config")),
        group_from(_need(d, "plus_b", "config")),
        group_from(minus),
    )


def config_to(cfg: AffineConfig) -> dict:
    return {
        "plus_a": group_to(cfg.plus_a),
        "plus_b": group_to(cfg.plus_b),
        "minus_c": group_to(cfg.minus_c),
    }


def mt1_scenario_to(s: Mt1Scenario) -> dict:
    return {
        "c": s.c,
        "interval": interval_to(s.interval),
        "left": config_to(s.left),
        "right": config_to(s.right),
    }


def model_from_spec(d: dict) -> FunctionModel:
    """The catalog model of a function spec.  A ``point`` must be a number,
    as ``gen`` writes it, but it does not change the model."""
    if not isinstance(d, dict) or "name" not in d:
        raise StructureError(f"function spec must be an object with a name, got {d!r}")
    float(d.get("point", 0.0))
    name = d["name"]
    return catalog(name, d.get("path" if name == "tabulated-spline" else "param"))


def make_scenario(
    theorem_id: str,
    mode: str | None,
    function: dict,
    payload: dict,
    seed: int | None = None,
) -> dict:
    _, mode = lookup(theorem_id, mode)
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "theorem_id": theorem_id,
        "mode": mode,
        "function": function,
        "payload": payload,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def _num(x: Any) -> Any:
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def _checks_json(vr: ValidityReport | None) -> list[dict]:
    if vr is None:
        return []
    # a residual is a float, and NaN is the one float unequal to itself
    return [
        {"name": c.name, "residual": c.residual if c.residual == c.residual else None, "ok": c.ok}
        for c in vr.checks
    ]


def _report(theorem_id: str, mode: str, rep: ChainReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification",
        "theorem_id": theorem_id,
        "mode": mode,
        "provenance": {"tool": TOOL, "version": VERSION},
        "verdict": rep.verdict,
        "margins": [_num(m) for m in rep.margins],
        "margin": _num(rep.margin),
        "chain": list(rep.chain),
        "values": {k: v for k, v in rep.values.items() if not math.isnan(v)},
        "hypotheses": _checks_json(rep.hypotheses),
        "details": {k: _num(v) for k, v in rep.details.items()},
    }


def _intervals_from(v: Any) -> list[IntervalR]:
    return [interval_from(x) for x in v]


#: payload fields that are parsed before they reach a verifier
_FIELD_PARSERS = {
    "left": config_from,
    "right": config_from,
    "c": float,
    "A": float,
    "interval": interval_from,
    "inner": interval_from,
    "inner2": interval_from,
    "inners": _intervals_from,
    "g_inners": _intervals_from,
    "h_inners": _intervals_from,
}


def _parse_field(key: str, value: Any) -> Any:
    parser = _FIELD_PARSERS.get(key)
    return value if parser is None else parser(value)


def run_payload(
    theorem_id: str, mode: str | None, f: FunctionModel, payload: dict, tol: float = EPS_EQ
) -> dict:
    """Verify a payload with the registered verifier and render its report."""
    entry, mode = lookup(theorem_id, mode)
    if not isinstance(payload, dict):
        raise StructureError("payload must be an object")
    args = {key: _parse_field(key, _need(payload, key, theorem_id)) for key in entry.fields}
    for key in entry.optional:
        if payload.get(key) is not None:
            args[key] = _parse_field(key, payload[key])
    if len(entry.modes) > 1:
        args[entry.mode_arg] = entry.mode_values.get(mode, mode)
    if entry.fields == AFFINE_FIELDS:
        args["s"] = Mt1Scenario(**{key: args.pop(key) for key in AFFINE_FIELDS})
    rep = getattr(_this, entry.verifier)(f, tol=tol, **args)
    return _report(theorem_id, mode, rep)


def check_tolerance(tol: float) -> None:
    """Raise a StructureError unless tol is finite and >= 0."""
    if not 0.0 <= tol < math.inf:
        raise StructureError(f"tolerance must be finite and >= 0, got {tol!r}")


def run_scenario(doc: Any, tol: float | None = None) -> dict:
    """Verify a parsed scenario document and return its report; ``tol``
    overrides the document's ``tolerances.eq``, and either is checked first."""
    if not isinstance(doc, dict):
        raise StructureError("scenario document must be a JSON object")
    sv = doc.get("schema_version")
    if sv != SCHEMA_VERSION:
        raise StructureError(f"unsupported schema_version {sv!r} (expected {SCHEMA_VERSION})")
    if tol is None:
        tolerances = doc.get("tolerances")
        tolerances = {} if tolerances is None else tolerances
        if not isinstance(tolerances, dict):
            raise StructureError(f"tolerances must be an object, got {tolerances!r}")
        tol = float(tolerances.get("eq", EPS_EQ))
    check_tolerance(tol)
    theorem_id = doc.get("theorem_id")
    _, mode = lookup(theorem_id, doc.get("mode"))
    f = model_from_spec(doc.get("function") or {})
    report = run_payload(theorem_id, mode, f, _need(doc, "payload", theorem_id), tol)
    if "seed" in doc:
        report["provenance"]["seed"] = doc["seed"]
    return report
