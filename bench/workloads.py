"""The benchmark's four workloads.

Each workload derives its requests from the seed alone and runs them one at
a time from one client (closed loop).  Requests cycle through the
workload's classes in seeded blocks, one request per class per block, so
every seed sees the same mix.  Every verdict is checked against the
plain-Python reference in ``reference.py`` right after its request and
outside its latency window, so that nothing the benchmark keeps grows with
the number of requests.  A wrong verdict counts as failed.  No class is
expected to fail: inputs that hit a known defect are left out of the mix.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import reference
from common import BENCH, RUN_DIR, child_env
from jensengap import scengen, scenario
from jensengap.domain import IntervalR
from jensengap.report import FAILS, HOLDS, UNMET

#: the CLI's default search budget
SEARCH_BUDGET = 100
#: documented literal-mode straddle probe margin and its tolerance
PROBE_MARGIN = -0.0603
PROBE_TOL = 1e-4
#: agreement required between program and reference margins, relative to scale
MARGIN_RTOL = 1e-7
#: the same for tables, whose A is classified on a grid
TABLE_RTOL = 1e-4
#: wall-clock limit for one gen | check pipeline
PIPE_TIMEOUT_S = 60
#: nodes of each tabulated-spline file, evenly spaced over [-1, 1]
TABLE_NODES = 201
#: pre-generated documents per tabulated class
DOCS_PER_CLASS = 20


@dataclass(frozen=True)
class Cls:
    """One request class: theorem, mode and function as a user passes them."""

    theorem: str
    mode: str
    fn: str
    #: catalog spec of the same function for the reference
    ref_fn: str
    #: curvature constant the reference uses for mt1-mt3
    A: float | None = None
    #: fixed interval; None draws one per request
    interval: tuple[float, float] | None = (-1.0, 1.0)
    #: draw the split point per request as well
    draw_c: bool = False

    @property
    def key(self) -> str:
        iv = "drawn" if self.interval is None else "%g,%g" % self.interval
        fn = self.fn
        if fn.startswith("tabulated-spline:"):
            fn = "tabulated-spline:" + os.path.basename(fn)
        return f"{self.theorem}.{self.mode}:{fn}@{iv}"

    @property
    def literal(self) -> bool:
        return self.mode in ("literal", "literal_alpha")


@dataclass(frozen=True)
class Request:
    index: int
    cls: Cls
    seed: int
    interval: tuple[float, float] = (-1.0, 1.0)
    c: float = 0.0
    #: tabulated: index into the document pool
    doc: int = -1


@dataclass
class Tally:
    """Verdict check outcome: operations are scenarios."""

    attempted: int = 0
    failed: int = 0
    by_class: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add(self, cls: Cls, ok: bool, count: int = 1, note: str = "") -> None:
        row = self.by_class.setdefault(cls.key, [0, 0])
        row[0] += count
        self.attempted += count
        if not ok:
            row[1] += count
            self.failed += count
            if note and len(self.notes) < 20:
                self.notes.append(f"{cls.key}: {note}")


def _margins_agree(program: float, ref: float, scale: float) -> bool:
    return abs(program - ref) <= MARGIN_RTOL * scale


class Workload:
    name = ""
    why = ""
    classes: tuple[Cls, ...] = ()
    #: requests run before timing starts; distinct from every timed request
    warmup = 0
    #: requests in each pass of a traced run
    trace_requests = 0
    #: requests run in child processes, which write their own traces
    child_processes = False
    #: request_ms_p90 from the pooled latencies instead of per class
    pooled_latency = False

    def __init__(self, seed: int):
        self.seed = seed
        self._block = (-1, ())

    def fn_specs(self) -> list[dict]:
        """Function specs the workload builds its models from."""
        seen = dict.fromkeys(c.fn for c in self.classes)
        return [scenario.fn_spec_from_string(fn) for fn in seen]

    def _slot(self, i: int) -> int:
        """Class slot of request i: a seeded permutation per block."""
        n = len(self.classes)
        block = i // n
        if self._block[0] != block:
            rng = random.Random(f"{self.seed}/{self.name}/block/{block}")
            self._block = (block, tuple(rng.sample(range(n), n)))
        return self._block[1][i % n]

    def _rng(self, i: int) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/request/{i}")

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def scenarios(self, req: Request) -> int:
        """Scenarios one request verifies."""
        return 1

    def payloads(self, req: Request) -> list[dict]:
        """The payloads a request verifies, regenerated from its seed
        (the probe excluded)."""
        raise NotImplementedError

    def _reference(self, req: Request, payload: dict) -> tuple[float, float]:
        cls = req.cls
        fn = reference.function(cls.ref_fn)
        return reference.margin(cls.theorem, cls.mode, payload, fn, cls.A)

    def execute(self, req: Request, trace_dir=None) -> tuple[int, object]:
        """Run one request; returns (scenarios verified, observation)."""
        raise NotImplementedError

    def check(self, req: Request, obs, tally: Tally) -> None:
        """Tally the verdicts of one request; an exception fails all of them."""
        if isinstance(obs, Exception):
            tally.add(req.cls, False, self.scenarios(req), note=repr(obs))
        else:
            self._check(req, obs, tally)

    def _check(self, req: Request, obs, tally: Tally) -> None:
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        """Peak resident set of the process that ran the requests."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def cli_probe(self) -> list[str]:
        """`gen` arguments for one document of the first request's class."""
        req = self.request(0)
        cls = req.cls
        args = ["--theorem", cls.theorem, "--mode", cls.mode, "--fn", cls.fn]
        args += ["--interval=%r,%r" % req.interval, "--point", repr(req.c)]
        return args + ["--seed", str(req.seed)]


class _Search(Workload):
    """One request is one search_counterexamples call at the CLI budget."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.models = {
            fn: scenario.model_from_spec(scenario.fn_spec_from_string(fn))
            for fn in dict.fromkeys(c.fn for c in self.classes)
        }

    def request(self, i: int) -> Request:
        cls = self.classes[self._slot(i)]
        rng = self._rng(i)
        seed = rng.randrange(2**31)
        if cls.interval is not None:
            return Request(i, cls, seed, cls.interval)
        lo, hi = -rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        c = rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)) if cls.draw_c else 0.0
        return Request(i, cls, seed, (lo, hi), c)

    def _spec(self, req: Request) -> scengen.GenSpec:
        return scengen.GenSpec(seed=req.seed, interval=IntervalR(*req.interval), c=req.c)

    def scenarios(self, req: Request) -> int:
        return SEARCH_BUDGET + (req.cls.theorem == "mt4" and req.cls.mode == "literal")

    def payload(self, req: Request, i: int) -> dict:
        """Payload of scenario i, regenerated as the search derives it."""
        rng = random.Random(req.seed + i)
        return scengen.gen_payload(self._spec(req), req.cls.theorem, req.cls.mode, rng)

    def payloads(self, req: Request) -> list[dict]:
        return [self.payload(req, i) for i in range(SEARCH_BUDGET)]

    def execute(self, req: Request, trace_dir=None):
        cls = req.cls
        # with no threshold the search returns every scenario it verified;
        # the ones it leaves out came back hypotheses-unmet
        results = scengen.search_counterexamples(
            self.models[cls.fn], cls.theorem, cls.mode, SEARCH_BUDGET, req.seed,
            spec=self._spec(req), report_threshold=-math.inf,
        )
        verdicts = {}
        probe = None
        for r in results:
            if r.seed_trace == ("probe",):
                probe = (r.details["verdict"], r.margin)
            else:
                verdicts[r.seed_trace[1]] = (r.details["verdict"], r.margin)
        return self.scenarios(req), (verdicts, probe)

    def _check(self, req: Request, obs, tally: Tally) -> None:
        """Corrected modes must hold; literal modes must give the verdict of
        the reference margin's sign.  Margins are compared with the
        reference on every literal scenario and on the first scenario of a
        corrected request."""
        cls = req.cls
        verdicts, probe = obs
        if self.scenarios(req) > SEARCH_BUDGET:
            verdict, margin = probe or (UNMET, None)
            ok = verdict == FAILS and abs(margin - PROBE_MARGIN) <= PROBE_TOL
            tally.add(cls, ok, note=f"probe {verdict} at {margin!r}")
        for i in range(SEARCH_BUDGET):
            verdict, margin = verdicts.get(i, (UNMET, None))
            ref = None
            if cls.literal or i == 0:
                ref, scale = self._reference(req, self.payload(req, i))
            if cls.literal:
                fails = reference.expect_fails(ref, scale)
                ok = verdict in ((HOLDS, FAILS) if fails is None else (FAILS if fails else HOLDS,))
            else:
                ok = verdict == HOLDS
            if ok and ref is not None:
                ok = _margins_agree(margin, ref, scale)
            note = f"seed {req.seed}+{i}: {verdict} at {margin!r}, reference {ref!r}"
            tally.add(cls, ok, note=note)


class SearchDeclared(_Search):
    name = "search-declared"
    why = (
        "A comes from the catalog's declared class, so no grid scan runs: "
        "generation, config validation and gap sums; a grid cache must not change it"
    )
    classes = (
        Cls("mt1", "proper", "signed_square", "signed_square", A=0.0),
        Cls("mt1", "literal_alpha", "signed_square", "signed_square", A=0.0),
        Cls("mt3", "auto", "quadratic:2", "quadratic:2", A=2.0),
        Cls("mt4", "region_restricted", "signed_square", "signed_square"),
        Cls("mt5", "region_restricted", "signed_square", "signed_square"),
        Cls("mc1", "region_restricted", "signed_square", "signed_square"),
        Cls("mc2", "region_restricted", "signed_square", "signed_square"),
        Cls("mc3", "region_restricted", "signed_square", "signed_square"),
        Cls("mt4", "literal", "signed_square", "signed_square", interval=(-3.0, 3.0)),
    )
    warmup = 9
    trace_requests = 18


class SearchGrid(_Search):
    name = "search-grid"
    why = (
        "every scenario scans a grid; scenarios of one request share a (function, "
        "interval) and no two requests do, so only a per-search cache gains"
    )
    classes = (
        Cls("mt2", "auto", "signed_square", "signed_square", A=0.0, interval=None),
        Cls("it2", "standard", "quadratic:2", "quadratic:2", interval=None),
        Cls("it3", "standard", "quadratic:2", "quadratic:2", interval=None),
        Cls("ic1", "standard", "quadratic:2", "quadratic:2", interval=None, draw_c=True),
        Cls("ic2", "standard", "quadratic:2", "quadratic:2", interval=None, draw_c=True),
        Cls("ic3", "standard", "quadratic:2", "quadratic:2", interval=None, draw_c=True),
    )
    warmup = 6
    trace_requests = 6


def write_table() -> str:
    """The 201-node table of x**2 over [-1, 1]; returns its path."""
    out = RUN_DIR / "tables"
    out.mkdir(parents=True, exist_ok=True)
    xs = [-1.0 + 2.0 * k / (TABLE_NODES - 1) for k in range(TABLE_NODES)]
    path = out / "quadratic_2.txt"
    text = "".join(f"{x!r} {x * x!r}\n" for x in xs)
    if not path.is_file() or path.read_text() != text:
        path.write_text(text)
    return str(path)


class Tabulated(Workload):
    """One request is run_scenario plus dumps on a pre-generated document,
    which is what `check` does per document."""

    name = "tabulated"
    why = (
        "each request re-reads and re-classifies a 201-node table (k1_witness "
        "dominates): where table classification and witness caching show"
    )
    warmup = 3
    trace_requests = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        fn = f"tabulated-spline:{write_table()}"
        self.classes = tuple(
            Cls(theorem, mode, fn, "quadratic:2", A=2.0)
            for theorem, mode in (
                ("mt1", "proper"), ("mt4", "region_restricted"), ("mc1", "region_restricted"),
            )
        )
        rng = random.Random(f"{seed}/{self.name}/docs")
        self.docs = []
        for cls in self.classes:
            fn_spec = scenario.fn_spec_from_string(cls.fn)
            for _ in range(DOCS_PER_CLASS):
                s = rng.randrange(2**31)
                payload = scengen.gen_payload(
                    scengen.GenSpec(seed=s), cls.theorem, cls.mode, random.Random(s)
                )
                doc = scenario.make_scenario(cls.theorem, cls.mode, fn_spec, payload, seed=s)
                self.docs.append((cls, doc))

    def request(self, i: int) -> Request:
        d = self._slot(i) * DOCS_PER_CLASS + (i // len(self.classes)) % DOCS_PER_CLASS
        cls, doc = self.docs[d]
        return Request(i, cls, doc["seed"], doc=d)

    def execute(self, req: Request, trace_dir=None):
        report = scenario.run_scenario(self.docs[req.doc][1])
        scenario.dumps(report)
        return 1, (report["verdict"], report["margin"])

    def payloads(self, req: Request) -> list[dict]:
        return [self.docs[req.doc][1]["payload"]]

    def _check(self, req: Request, obs, tally: Tally) -> None:
        verdict, margin = obs
        ref, scale = self._reference(req, self.payloads(req)[0])
        # A comes from grid classification of the interpolant, not the exact constant
        ok = verdict == HOLDS and abs(margin - ref) <= TABLE_RTOL * scale
        note = f"doc seed {req.seed}: {verdict} {margin!r}, reference {ref!r}"
        tally.add(req.cls, ok, note=note)


#: every theorem id in its default mode with the CLI's default function
_CLI_CLASSES = tuple(
    Cls(theorem, mode, fn, fn, A=A)
    for theorem, mode, fn, A in (
        ("mt1", "proper", "signed_square", 0.0),
        ("mt2", "auto", "signed_square", 0.0),
        ("mt3", "auto", "quadratic:2", 2.0),
        ("it2", "standard", "quadratic:2", None),
        ("it3", "standard", "quadratic:2", None),
        ("ic1", "standard", "quadratic:2", None),
        ("ic2", "standard", "quadratic:2", None),
        ("ic3", "standard", "quadratic:2", None),
        ("mt4", "region_restricted", "signed_square", None),
        ("mt5", "region_restricted", "signed_square", None),
        ("mc1", "region_restricted", "signed_square", None),
        ("mc2", "region_restricted", "signed_square", None),
        ("mc3", "region_restricted", "signed_square", None),
    )
)


def _reap(proc: subprocess.Popen) -> int:
    """Wait for a child and return its peak resident set in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def cli_command(args: list[str], trace_file=None) -> list[str]:
    """Command line of one jensengap CLI process, traced through the shim
    when a trace file is given."""
    if trace_file is None:
        return [sys.executable, "-m", "jensengap.cli", *args]
    return [sys.executable, str(BENCH / "child.py"), "cli", str(trace_file), *args]


class CliPipe(Workload):
    """One request is a `gen --theorem T | check -` process pair."""

    name = "cli-pipe"
    why = (
        "gen | check process pairs over all 13 theorem ids: interpreter start-up, "
        "imports and JSON dominate"
    )
    classes = _CLI_CLASSES
    warmup = 2
    trace_requests = 13
    child_processes = True
    # the classes differ by well under 1% of a pipe's cost, and a run has
    # only a few requests of each
    pooled_latency = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.child_rss_kib = 0

    def request(self, i: int) -> Request:
        return Request(i, self.classes[self._slot(i)], self._rng(i).randrange(2**31))

    def payloads(self, req: Request) -> list[dict]:
        spec = scengen.GenSpec(seed=req.seed)
        return [scengen.gen_payload(spec, req.cls.theorem, req.cls.mode, random.Random(req.seed))]

    def execute(self, req: Request, trace_dir=None):
        gen_args = ["gen", "--theorem", req.cls.theorem, "--seed", str(req.seed), "--count", "1"]
        traces = (None, None)
        if trace_dir is not None:
            traces = tuple(trace_dir / f"{req.index}-{part}.json" for part in ("gen", "check"))
        env = child_env()
        gen = subprocess.Popen(cli_command(gen_args, traces[0]), stdout=subprocess.PIPE, env=env)
        try:
            chk = subprocess.Popen(
                cli_command(["check", "-"], traces[1]),
                stdin=gen.stdout, stdout=subprocess.PIPE, env=env,
            )
        except OSError:
            gen.kill()
            _reap(gen)
            raise
        gen.stdout.close()
        timer = threading.Timer(PIPE_TIMEOUT_S, lambda: (gen.kill(), chk.kill()))
        timer.start()
        try:
            out = chk.stdout.read()
            chk.stdout.close()
            rss = max(_reap(gen), _reap(chk))
        finally:
            timer.cancel()
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return 1, (gen.returncode, chk.returncode, out)

    def _check(self, req: Request, obs, tally: Tally) -> None:
        gen_rc, chk_rc, out = obs
        cls = req.cls
        if gen_rc != 0 or chk_rc != 0:
            tally.add(cls, False, note=f"seed {req.seed}: exit {gen_rc}|{chk_rc}")
            return
        try:
            rep = json.loads(out)
        except ValueError as exc:
            tally.add(cls, False, note=f"seed {req.seed}: unreadable report: {exc}")
            return
        ref, scale = self._reference(req, self.payloads(req)[0])
        ok = rep["verdict"] == HOLDS and _margins_agree(rep["margin"], ref, scale)
        note = f"seed {req.seed}: {rep['verdict']} {rep['margin']!r}, reference {ref!r}"
        tally.add(cls, ok, note=note)

    def cli_probe(self) -> list[str]:
        req = self.request(0)
        return ["--theorem", req.cls.theorem, "--seed", str(req.seed)]

    def peak_rss_kib(self) -> int:
        """Peak resident set of the largest `gen` or `check` process."""
        return self.child_rss_kib


WORKLOADS = {w.name: w for w in (SearchDeclared, SearchGrid, Tabulated, CliPipe)}
