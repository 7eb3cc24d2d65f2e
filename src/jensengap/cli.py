"""Command-line front end: check scenario files, analyze functions, generate
scenarios, and search for counterexamples.

``gen`` and ``search`` take one request (theorem, mode, function, interval,
split point, sizes, seed), declared once and read by ``_request``, which
rejects an interval outside the function's domain before any work.

Each subcommand imports what it uses: ``gen`` and ``search`` import
``scengen`` when they run, and ``check`` imports only the verifier module
of the theorem it checks (``scenario.__getattr__``).  ``check -`` reads
stdin as UTF-8, as ``check FILE`` reads a file, whatever the locale.

Exit codes are a stable contract: 0 holds, 1 input error, 2 fails,
3 hypotheses-unmet.  A list of documents exits 2 when any fails, else 3
when any is unmet.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import stat
import sys
import tempfile
from pathlib import Path

from .analysis import classify_at_point
from .domain import InfeasibleError, IntervalR, StructureError
from .funclib import DomainError, require_in_domain
from .report import FAILS, UNMET
from .scenario import (
    ALL_IDS,
    SCHEMA_VERSION,
    TOOL,
    VERSION,
    check_tolerance,
    dumps,
    dumps_each,
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


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    return Path(path).read_text(encoding="utf-8")


def _file_beside(target: str) -> tuple[int, str] | None:
    """A new file (descriptor, path) in target's directory with the mode and
    owner target has, or a new file would get.  None when target exists and
    is not a plain file with one link, or no such file can be made."""
    try:
        st = os.stat(target)
    except FileNotFoundError:
        st = None
    except OSError:
        return None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        return None
    try:
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(target))
    except OSError:
        return None
    try:
        if st is None:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
        else:
            os.fchown(fd, st.st_uid, st.st_gid)
            os.fchmod(fd, stat.S_IMODE(st.st_mode))
    except OSError:
        os.close(fd)
        os.unlink(tmp)
        return None
    return fd, tmp


def _emit(parts, out: str | None) -> None:
    """Write the pieces of text to stdout, or to FILE only once all are
    written: into a new file beside FILE (a symlink's target) that then
    replaces it, so a failure part way leaves FILE as it was.  Where no such
    file can be made (FILE is a device or a pipe, or its directory takes no
    new file), FILE is written in place."""
    if not out:
        return sys.stdout.writelines(parts)
    target = os.path.realpath(out)
    beside = _file_beside(target)
    if beside is None:
        with open(out, "w", encoding="utf-8") as f:
            return f.writelines(parts)
    fd, tmp = beside
    try:
        with open(fd, "w", encoding="utf-8") as f:
            f.writelines(parts)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_interval(text: str) -> IntervalR:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        raise StructureError(f"interval must be 'lo,hi', got {text!r}") from None
    return IntervalR(lo, hi)


def _parse_sizes(text: str) -> tuple[int, int, int]:
    try:
        n, m, l = map(int, text.split(","))
    except ValueError:
        raise StructureError(f"sizes must be 'n,m,l', got {text!r}") from None
    return n, m, l


def _reject_constant(token: str):
    """json's hook for Infinity, -Infinity and NaN, which no document may hold."""
    raise StructureError(f"non-finite number {token} in the document")


def _past_range(token: str) -> StructureError:
    shown = token if len(token) <= 30 else f"{token[:12]}...{token[-6:]} ({len(token)} characters)"
    return StructureError(f"number {shown} in the document is past the float range")


def _finite_float(token: str) -> float:
    """json's hook for a number with a fraction or exponent: a literal past
    the float range, which json would read as infinite, is rejected."""
    value = float(token)
    if math.isinf(value):
        raise _past_range(token)
    return value


def _finite_int(token: str) -> int:
    """json's hook for an integer: it stays an int, unless it is past the
    float range, which no weight, point or value may be."""
    value = int(token)
    try:
        float(value)
    except OverflowError:
        raise _past_range(token) from None
    return value


def _reject_booleans(doc) -> None:
    """No field of a document takes a boolean, which Python would read as 0 or 1."""
    stack = [doc]
    while stack:
        v = stack.pop()
        if v is True or v is False:
            raise StructureError(f"boolean {'true' if v else 'false'} in the document")
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)


def _cmd_check(args: argparse.Namespace) -> int:
    if args.tol is not None:
        check_tolerance(args.tol)
    doc = json.loads(
        _read_text(args.path),
        parse_float=_finite_float,
        parse_int=_finite_int,
        parse_constant=_reject_constant,
    )
    _reject_booleans(doc)
    many = isinstance(doc, list)
    if many and not doc:
        raise StructureError("the list of documents is empty")
    reports = [run_scenario(d, tol=args.tol) for d in (doc if many else [doc])]
    _emit([dumps(reports if many else reports[0])], args.out)
    verdicts = {r["verdict"] for r in reports}
    if FAILS in verdicts:
        return EXIT_FAILS
    return EXIT_UNMET if UNMET in verdicts else EXIT_OK


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
    _emit([dumps(report)], args.out)
    return EXIT_OK


def _request(args: argparse.Namespace):
    """The request of gen and search: (mode, function spec, its model, GenSpec).
    An interval outside the function's domain, and a branch c of mt2 or mt3
    that the function cannot meet, are rejected before any work."""
    from .scengen import GenSpec, check_branch_c

    entry, mode = lookup(args.theorem, args.mode)
    spec = GenSpec(args.seed, _parse_interval(args.interval), args.point, _parse_sizes(args.sizes))
    fn_spec = fn_spec_from_string(args.fn or entry.default_fn[mode], point=args.point)
    f = model_from_spec(fn_spec)
    require_in_domain(f, spec.interval.lo, spec.interval.hi)
    check_branch_c(f, args.theorem, mode, spec)
    return mode, fn_spec, f, spec


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import scengen

    mode, fn_spec, _, spec = _request(args)
    scengen.check_count("count", args.count, spec)
    seeds = range(args.seed, args.seed + args.count)
    payloads = (scengen.gen_payload(spec, args.theorem, mode, random.Random(s)) for s in seeds)
    docs = (make_scenario(args.theorem, mode, fn_spec, p, seed=s) for s, p in zip(seeds, payloads))
    _emit([dumps(next(docs))] if args.count == 1 else dumps_each(docs), args.out)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    from . import scengen

    mode, fn_spec, f, spec = _request(args)
    theorem_id = args.theorem
    results = scengen.search_counterexamples(
        f, theorem_id, mode, args.budget, args.seed, spec=spec, include_probes=not args.no_probes
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
    _emit([dumps(report)], args.out)
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

    # a function on an interval with a split point, and where the output goes
    place = argparse.ArgumentParser(add_help=False)
    place.add_argument("--interval", default="-1,1", metavar="LO,HI")
    place.add_argument("--point", type=float, default=0.0, metavar="C")
    place.add_argument("--out", default=None, metavar="FILE")

    analyze = sub.add_parser("analyze", parents=[place], help="classify a function at a point")
    analyze.add_argument("--fn", required=True, metavar="NAME[:PARAM]")
    analyze.set_defaults(handler=_cmd_analyze)

    # the request that gen and search share (read by _request)
    request = argparse.ArgumentParser(add_help=False, parents=[place])
    request.add_argument("--theorem", required=True, choices=ALL_IDS)
    request.add_argument("--mode", default=None, metavar="MODE")
    request.add_argument("--fn", default=None, metavar="NAME[:PARAM]")
    request.add_argument("--sizes", default="2,2,1", metavar="N,M,L")
    request.add_argument("--seed", type=int, default=0, metavar="S")

    gen = sub.add_parser("gen", parents=[request], help="generate a hypothesis-satisfying scenario")
    gen.add_argument("--count", type=int, default=1, metavar="K")
    gen.set_defaults(handler=_cmd_gen)

    search = sub.add_parser("search", parents=[request], help="seeded random counterexample search")
    search.add_argument("--budget", type=int, default=100, metavar="N")
    search.add_argument("--no-probes", action="store_true")
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
