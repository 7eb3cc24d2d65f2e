"""Timing and counting wrappers installed from outside the program.

jensengap modules bind each other's functions with ``from .x import f``, so
wrapping the defining module alone would miss most calls.  ``WRAPPED``
lists, for every traced function, each module attribute through which it is
looked up; the defining module comes first.  A test checks that this list
matches the bindings the package really has, so a rename cannot silently
zero a layer.

Spans are kept in memory (name, start, end, parent, request) and written
out when the pass ends.  A module's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from jensengap.report import UNMET

#: span name -> modules binding the function (defining module first)
WRAPPED = {
    "funclib.eval_fn": (
        "jensengap.funclib", "jensengap.analysis", "jensengap.affine",
        "jensengap.functional", "jensengap",
    ),
    "funclib.load_table": ("jensengap.funclib", "jensengap"),
    "analysis.bracket_windows": ("jensengap.analysis",),
    "analysis.third_windows": ("jensengap.analysis",),
    "analysis.classify_at_point": ("jensengap.analysis", "jensengap.cli", "jensengap"),
    "analysis.k1_witness": ("jensengap.analysis", "jensengap.affine", "jensengap.functional"),
    "analysis.curvature_sandwich": ("jensengap.analysis", "jensengap.affine"),
    "analysis.is_3convex": ("jensengap.analysis", "jensengap.affine"),
    "analysis.is_3concave": ("jensengap.analysis", "jensengap.affine"),
    "analysis.convexity_margin": ("jensengap.analysis", "jensengap.functional"),
    "domain.validate_affine_config": ("jensengap.domain", "jensengap.affine", "jensengap"),
    "affine.jensen_affine_gap": ("jensengap.affine", "jensengap"),
    "affine.cross_weighted_gap": ("jensengap.affine", "jensengap"),
    **{
        f"affine.verify_{t}": ("jensengap.affine", "jensengap.scenario", "jensengap")
        for t in ("mt1", "mt2", "mt3")
    },
    "functional.apply_fn": ("jensengap.functional",),
    **{
        f"functional.verify_{t}": ("jensengap.functional", "jensengap.scenario", "jensengap")
        for t in ("it2", "it3", "ic1", "ic2", "ic3", "mt4", "mt5", "mc1", "mc2", "mc3")
    },
    "scengen.gen_payload": ("jensengap.scengen",),
    "scengen.search_counterexamples": ("jensengap.scengen", "jensengap"),
    "scenario.run_payload": ("jensengap.scenario", "jensengap.scengen"),
    "scenario.run_scenario": ("jensengap.scenario", "jensengap.cli"),
    "scenario.model_from_spec": ("jensengap.scenario", "jensengap.cli"),
    "scenario.dumps": ("jensengap.scenario", "jensengap.cli"),
    # `check` parses its input through the json module attribute
    "json.loads": ("json",),
}

#: root spans opened by the benchmark itself around each request or process
ROOTS = ("bench.request", "cli.main")
#: modules whose self time is reported as a layer metric
MODULES = ("scengen", "scenario", "affine", "functional", "analysis", "domain", "funclib")


def attribute(span: str) -> str:
    return span.rsplit(".", 1)[1]


class Tracer:
    def __init__(self):
        self.names = list(WRAPPED) + list(ROOTS)
        self._sid = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request_of = array("l")
        self.calls = [0] * len(self.names)
        #: time in outermost spans of each name, so recursion is not counted twice
        self.inclusive = [0] * len(self.names)
        self._depth = [0] * len(self.names)
        self._stack = [-1]
        self.request = -1
        self.unmet = 0
        self._saved: list = []

    def _enter(self, sid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(sid)
        self.parent.append(self._stack[-1])
        self.request_of.append(self.request)
        self.end.append(0)
        self._stack.append(i)
        self._depth[sid] += 1
        self.calls[sid] += 1
        self.start.append(perf_counter_ns())
        return i

    def _exit(self, i: int, sid: int) -> None:
        t = perf_counter_ns()
        self.end[i] = t
        self._stack.pop()
        self._depth[sid] -= 1
        if not self._depth[sid]:
            self.inclusive[sid] += t - self.start[i]

    def _wrap(self, span: str, fn):
        sid = self._sid[span]
        enter, exit_ = self._enter, self._exit
        count_unmet = span == "scenario.run_payload"

        def traced(*args, **kwargs):
            i = enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(i, sid)
            if count_unmet and result["verdict"] == UNMET:
                self.unmet += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for span, bindings in WRAPPED.items():
            attr = attribute(span)
            original = getattr(importlib.import_module(bindings[0]), attr)
            wrapper = self._wrap(span, original)
            for name in bindings:
                module = importlib.import_module(name)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def root(self, name: str, request: int):
        """Root span around one request or process."""
        sid = self._sid[name]
        self.request = request
        i = self._enter(sid)
        try:
            yield
        finally:
            self._exit(i, sid)
            self.request = -1

    def spans(self) -> list[list]:
        return [
            [self.names[s], t0, t1, p, r]
            for s, t0, t1, p, r in zip(
                self.span_name, self.start, self.end, self.parent, self.request_of
            )
        ]

    def summary(self) -> dict:
        """Counts, inclusive and per-module self times in nanoseconds."""
        covered = [0] * len(self.span_name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_ns: dict[str, int] = {}
        for i, s in enumerate(self.span_name):
            module = self.names[s].split(".", 1)[0]
            own = self.end[i] - self.start[i] - covered[i]
            self_ns[module] = self_ns.get(module, 0) + own
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "inclusive_ns": {n: t for n, t in zip(self.names, self.inclusive) if t},
            "self_ns": self_ns,
            "unmet": self.unmet,
        }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    out: dict = {"calls": {}, "inclusive_ns": {}, "self_ns": {}, "unmet": 0}
    for s in summaries:
        for key in ("calls", "inclusive_ns", "self_ns"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["unmet"] += s["unmet"]
    return out


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write("name,start_ns,end_ns,parent,request\n")
        for span in spans:
            fh.write(",".join(map(str, span)) + "\n")


#: per-layer metric -> (unit, end-to-end metric and workload it should move)
LAYER_TARGETS = {
    "scengen.gen_us": ("us", "scn_per_s, request_ms_* on search-declared"),
    "domain.validate_calls": ("count", "scn_per_s, request_ms_* on search-declared"),
    "domain.validate_us": ("us", "scn_per_s, request_ms_* on search-declared"),
    "affine.gap_us": ("us", "scn_per_s, request_ms_* on search-declared"),
    "functional.apply_fn_us": ("us", "scn_per_s, request_ms_* on search-declared"),
    "analysis.grid_scans": ("count", "scn_per_s, request_ms_* on search-grid"),
    "analysis.grid_us": ("us", "scn_per_s, request_ms_* on search-grid"),
    "analysis.classify_calls": ("count", "scn_per_s, request_ms_* on tabulated"),
    "analysis.witness_us": ("us", "scn_per_s, request_ms_* on tabulated"),
    "funclib.eval_calls": ("count", "request_ms_* on tabulated and search-grid"),
    "funclib.eval_us": ("us", "request_ms_* on tabulated"),
    "funclib.table_load_ms": ("ms", "request_ms_* on tabulated"),
    "scenario.run_us": ("us", "request_ms_* on cli-pipe and tabulated"),
    "scenario.parse_us": ("us", "request_ms_* on cli-pipe and tabulated"),
    "scenario.dumps_us": ("us", "request_ms_* on cli-pipe and tabulated"),
    "cli.import_ms": ("ms", "setup_s on all workloads, request_ms_* on cli-pipe"),
    "cli.numpy_import_ms": ("ms", "setup_s on all workloads, request_ms_* on cli-pipe"),
    "cli.gen_ms": ("ms", "request_ms_* on cli-pipe"),
    "cli.check_ms": ("ms", "request_ms_* on cli-pipe"),
    "scengen.unmet_ratio": ("ratio", "wasted work behind scn_per_s on every workload"),
    "trace.overhead_pct": ("%", "none: traced against untraced scn_per_s"),
    **{
        f"{m}.self_us": ("us", "the end-to-end metrics of the workload that spends it")
        for m in MODULES
    },
}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-scenario layer metrics from a merged trace summary."""
    scenarios = max(1, summary["calls"].get("scenario.run_payload", 0))
    calls, inclusive = summary["calls"], summary["inclusive_ns"]

    def count(*spans):
        return sum(calls.get(s, 0) for s in spans) / scenarios

    def us(*spans):
        return sum(inclusive.get(s, 0) for s in spans) / scenarios / 1e3

    out = {
        "scengen.gen_us": us("scengen.gen_payload"),
        "domain.validate_calls": count("domain.validate_affine_config"),
        "domain.validate_us": us("domain.validate_affine_config"),
        "affine.gap_us": us("affine.jensen_affine_gap", "affine.cross_weighted_gap"),
        "functional.apply_fn_us": us("functional.apply_fn"),
        "analysis.grid_scans": count("analysis.bracket_windows", "analysis.third_windows"),
        "analysis.grid_us": us("analysis.bracket_windows", "analysis.third_windows"),
        "analysis.classify_calls": count("analysis.classify_at_point"),
        "analysis.witness_us": us("analysis.k1_witness"),
        "funclib.eval_calls": count("funclib.eval_fn"),
        "funclib.eval_us": us("funclib.eval_fn"),
        "funclib.table_load_ms": us("funclib.load_table") / 1e3,
        "scenario.run_us": us("scenario.run_payload"),
        "scenario.parse_us": us("json.loads", "scenario.model_from_spec"),
        "scenario.dumps_us": us("scenario.dumps"),
        "scengen.unmet_ratio": summary["unmet"] / scenarios,
    }
    for m in MODULES:
        out[f"{m}.self_us"] = summary["self_ns"].get(m, 0) / scenarios / 1e3
    return out
