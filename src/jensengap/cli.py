"""Command-line front end: check scenario files, analyze functions, generate
scenarios, and search for counterexamples.

Each subcommand imports what it uses: ``gen`` and ``search`` import
``scengen`` when they run, and ``check`` imports only the verifier module
of the theorem it checks (``scenario.__getattr__``).

Exit codes are a stable contract: 0 holds, 1 input error, 2 fails,
3 hypotheses-unmet.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .analysis import classify_at_point
from .domain import InfeasibleError, IntervalR, StructureError
from .funclib import DomainError, require_in_domain
from .report import FAILS, HOLDS, UNMET
from .scenario import (
    ALL_IDS,
    SCHEMA_VERSION,
    TOOL,
    VERSION,
    check_tolerance,
    dumps,
    fn_spec_from_string,
    lookup,
    make_scenario,
    model_from_spec,
    run_scenario,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILS = 2
EXIT_UNMET = 3

_VERDICT_EXIT = {HOLDS: EXIT_OK, FAILS: EXIT_FAILS, UNMET: EXIT_UNMET}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_interval(text: str) -> IntervalR:
    parts = text.split(",")
    if len(parts) != 2:
        raise StructureError(f"interval must be 'lo,hi', got {text!r}")
    return IntervalR(float(parts[0]), float(parts[1]))


def _parse_sizes(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise StructureError(f"sizes must be 'n,m,l', got {text!r}")
    n, m, l = (int(p) for p in parts)
    return n, m, l


def _reject_constant(token: str):
    """json's hook for Infinity, -Infinity and NaN, which no document may hold."""
    raise StructureError(f"non-finite number {token} in the document")


def _cmd_check(args: argparse.Namespace) -> int:
    if args.tol is not None:
        check_tolerance(args.tol)
    doc = json.loads(_read_text(args.path), parse_constant=_reject_constant)
    if isinstance(doc, list):
        reports = [run_scenario(d, tol=args.tol) for d in doc]
        _emit(dumps(reports), args.out)
        verdicts = {r["verdict"] for r in reports}
        if FAILS in verdicts:
            return EXIT_FAILS
        if UNMET in verdicts:
            return EXIT_UNMET
        return EXIT_OK
    report = run_scenario(doc, tol=args.tol)
    _emit(dumps(report), args.out)
    return _VERDICT_EXIT[report["verdict"]]


def _interval_json(iv) -> dict:
    return {"lo": iv.lo, "hi": iv.hi, "feasible": iv.feasible}


def _cmd_analyze(args: argparse.Namespace) -> int:
    fn_spec = fn_spec_from_string(args.fn, point=args.point)
    f = model_from_spec(fn_spec)
    interval = _parse_interval(args.interval)
    require_in_domain(f, interval.lo, interval.hi)
    cls = classify_at_point(f, args.point, interval)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "analysis",
        "function": fn_spec,
        "point": args.point,
        "interval": [interval.lo, interval.hi],
        "class": cls.kind,
        "witness_A": cls.witness_A,
        "k1_interval": _interval_json(cls.k1_interval),
        "k2_interval": _interval_json(cls.k2_interval),
        "provenance": {"tool": TOOL, "version": VERSION},
    }
    _emit(dumps(report), args.out)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import scengen

    theorem_id = args.theorem
    entry, mode = lookup(theorem_id, args.mode)
    spec = scengen.GenSpec(
        seed=args.seed,
        interval=_parse_interval(args.interval),
        c=args.point,
        sizes=_parse_sizes(args.sizes),
        count=args.count,
    )
    fn_spec = fn_spec_from_string(args.fn or entry.default_fn[mode], point=args.point)
    # reject bad input before emitting
    require_in_domain(model_from_spec(fn_spec), spec.interval.lo, spec.interval.hi)
    docs = []
    for i in range(spec.count):
        rng = random.Random(args.seed + i)
        payload = scengen.gen_payload(spec, theorem_id, mode, rng)
        docs.append(make_scenario(theorem_id, mode, fn_spec, payload, seed=args.seed + i))
    _emit(dumps(docs[0] if spec.count == 1 else docs), args.out)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    from . import scengen

    theorem_id = args.theorem
    entry, mode = lookup(theorem_id, args.mode)
    if args.budget < 1:
        raise StructureError("search budget must be at least 1")
    fn_spec = fn_spec_from_string(args.fn or entry.default_fn[mode], point=args.point)
    f = model_from_spec(fn_spec)
    spec = scengen.GenSpec(
        seed=args.seed,
        interval=_parse_interval(args.interval),
        c=args.point,
        sizes=_parse_sizes(args.sizes),
    )
    require_in_domain(f, spec.interval.lo, spec.interval.hi)
    results = scengen.search_counterexamples(
        f,
        theorem_id,
        mode,
        args.budget,
        args.seed,
        spec=spec,
        include_probes=not args.no_probes,
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "search",
        "theorem_id": theorem_id,
        "mode": mode,
        "function": fn_spec,
        "budget": args.budget,
        "seed": args.seed,
        "found": len(results),
        "results": [
            {
                "margin": r.margin,
                "seed_trace": list(r.seed_trace),
                "scenario": make_scenario(theorem_id, mode, fn_spec, r.payload),
            }
            for r in results
        ],
        "provenance": {"tool": TOOL, "version": VERSION},
    }
    _emit(dumps(report), args.out)
    return EXIT_FAILS if results else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Numerical verification of Jensen-type inequalities for "
        "affine combinations, positive linear functionals, and functions "
        "3-convex at a point.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify a scenario file")
    check.add_argument("path", help="scenario file, or '-' for stdin")
    check.add_argument("--out", default=None, metavar="FILE")
    check.add_argument("--tol", type=float, default=None, metavar="X")
    check.set_defaults(handler=_cmd_check)

    analyze = sub.add_parser("analyze", help="classify a function at a point")
    analyze.add_argument("--fn", required=True, metavar="NAME[:PARAM]")
    analyze.add_argument("--point", type=float, default=0.0, metavar="C")
    analyze.add_argument("--interval", default="-1,1", metavar="LO,HI")
    analyze.add_argument("--out", default=None, metavar="FILE")
    analyze.set_defaults(handler=_cmd_analyze)

    gen = sub.add_parser("gen", help="generate a hypothesis-satisfying scenario")
    gen.add_argument("--theorem", required=True, choices=ALL_IDS)
    gen.add_argument("--mode", default=None, metavar="MODE")
    gen.add_argument("--seed", type=int, default=0, metavar="S")
    gen.add_argument("--fn", default=None, metavar="NAME[:PARAM]")
    gen.add_argument("--interval", default="-1,1", metavar="LO,HI")
    gen.add_argument("--point", type=float, default=0.0, metavar="C")
    gen.add_argument("--sizes", default="2,2,1", metavar="N,M,L")
    gen.add_argument("--count", type=int, default=1, metavar="K")
    gen.add_argument("--out", default=None, metavar="FILE")
    gen.set_defaults(handler=_cmd_gen)

    search = sub.add_parser("search", help="seeded random counterexample search")
    search.add_argument("--theorem", required=True, choices=ALL_IDS)
    search.add_argument("--fn", default=None, metavar="NAME[:PARAM]")
    search.add_argument("--mode", default=None, metavar="MODE")
    search.add_argument("--budget", type=int, default=100, metavar="N")
    search.add_argument("--seed", type=int, default=0, metavar="S")
    search.add_argument("--interval", default="-1,1", metavar="LO,HI")
    search.add_argument("--point", type=float, default=0.0, metavar="C")
    search.add_argument("--sizes", default="2,2,1", metavar="N,M,L")
    search.add_argument("--no-probes", action="store_true")
    search.add_argument("--out", default=None, metavar="FILE")
    search.set_defaults(handler=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except (
        StructureError,
        DomainError,
        InfeasibleError,
        OSError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
