"""Tests of the benchmark itself: run with `python -m pytest bench/tests`."""

import json
import shutil
import subprocess
import sys

import pytest

import reference
import tracer
import workloads
from common import BENCH, ROOT
from jensengap import scenario, scengen
from jensengap.report import UNMET

WORKLOADS = sorted(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first_of_each_class(wl, per_class=1):
    """The first requests of every class, in request order."""
    seen: dict = {}
    i = 0
    while len(seen) < len(wl.classes) or min(map(len, seen.values())) < per_class:
        req = wl.request(i)
        seen.setdefault(req.cls, [])
        if len(seen[req.cls]) < per_class:
            seen[req.cls].append(req)
        i += 1
    return [r for reqs in seen.values() for r in reqs]


@pytest.mark.parametrize("name", WORKLOADS)
def test_requests_and_payloads_repeat_per_seed(name):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(7), cls(7), cls(8)
    n = 2 * len(a.classes)
    reqs_a = [a.request(i) for i in range(n)]
    assert reqs_a == [b.request(i) for i in range(n)]
    assert reqs_a != [other.request(i) for i in range(n)]
    for req in reqs_a[:3]:
        assert a.payloads(req) == b.payloads(req)


@pytest.mark.parametrize("name", WORKLOADS)
def test_blocks_hold_each_class_once(name):
    wl = workloads.WORKLOADS[name](3)
    n = len(wl.classes)
    for block in range(3):
        got = [wl.request(block * n + k).cls for k in range(n)]
        assert sorted(map(str, got)) == sorted(map(str, wl.classes))


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_agrees_with_run_payload(name):
    """The program reaches a verdict on every sampled payload, and its
    margin agrees with the reference."""
    wl = workloads.WORKLOADS[name](11)
    rtol = workloads.TABLE_RTOL if name == "tabulated" else workloads.MARGIN_RTOL
    for req in _first_of_each_class(wl, per_class=2):
        cls = req.cls
        model = scenario.model_from_spec(scenario.fn_spec_from_string(cls.fn))
        for payload in wl.payloads(req)[:5]:
            report = scenario.run_payload(cls.theorem, cls.mode, model, payload)
            assert report["verdict"] != UNMET, f"{cls.key} unmet"
            ref, scale = reference.margin(
                cls.theorem, cls.mode, payload, reference.function(cls.ref_fn), cls.A
            )
            assert abs(report["margin"] - ref) <= rtol * scale, cls.key


def _unmet_everywhere(monkeypatch):
    """Make every verification come back hypotheses-unmet."""
    original = scengen.run_payload

    def unmet(*args, **kwargs):
        return {**original(*args, **kwargs), "verdict": UNMET}

    monkeypatch.setattr(scengen, "run_payload", unmet)


@pytest.mark.parametrize("index", range(len(workloads.SearchDeclared.classes)))
def test_unmet_search_scenarios_are_failures(monkeypatch, index):
    """A search leaves unmet scenarios out of its results; the check must
    still count each one as a wrong verdict, in every class."""
    wl = workloads.SearchDeclared(5)
    req = next(r for r in map(wl.request, range(len(wl.classes))) if r.cls == wl.classes[index])
    _unmet_everywhere(monkeypatch)
    tally = workloads.Tally()
    wl.check(req, wl.execute(req)[1], tally)
    assert tally.attempted == wl.scenarios(req)
    assert tally.failed == tally.attempted


def test_probe_margin_matches_the_documented_value():
    payload = scengen.straddle_probe_mt4()
    ref, _ = reference.margin("mt4", "literal", payload, reference.function("signed_square"))
    assert abs(ref - workloads.PROBE_MARGIN) <= workloads.PROBE_TOL


def test_every_wrapped_binding_exists_and_none_is_missing():
    import importlib

    import jensengap.cli  # noqa: F401

    package = [m for n, m in sys.modules.items() if n == "jensengap" or n.startswith("jensengap.")]
    for span, bindings in tracer.WRAPPED.items():
        attr = tracer.attribute(span)
        original = getattr(importlib.import_module(bindings[0]), attr)
        assert callable(original), span
        for name in bindings:
            assert getattr(importlib.import_module(name), attr) is original, (span, name)
        bound = {m.__name__ for m in package if getattr(m, attr, None) is original}
        assert bound <= set(bindings), f"{span} is also bound in {bound - set(bindings)}"


def test_tracer_counts_and_restores():
    wl = workloads.SearchDeclared(5)
    req = wl.request(0)
    originals = {
        (name, tracer.attribute(span)): getattr(sys.modules[name], tracer.attribute(span))
        for span, bindings in tracer.WRAPPED.items()
        for name in bindings
    }
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.root("bench.request", 0):
            n, _ = wl.execute(req)
    finally:
        tr.uninstall()
    for (name, attr), fn in originals.items():
        assert getattr(sys.modules[name], attr) is fn
    summary = tr.summary()
    assert summary["calls"]["scenario.run_payload"] == n
    assert summary["calls"]["scengen.gen_payload"] == workloads.SEARCH_BUDGET
    total = sum(summary["self_ns"].values())
    assert total == summary["inclusive_ns"]["bench.request"]


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tabulated", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_is_not_correct_when_a_search_bails_out_unmet(tmp_path):
    """A verifier that gives up early looks fast; the run must say it is wrong."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "jensengap" / "scengen.py"
    text = source.read_text()
    early = 'if report["verdict"] == UNMET:'
    assert early in text
    source.write_text(text.replace(early, "if True:"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-grid", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tabulated", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
