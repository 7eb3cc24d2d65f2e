"""Start-up: a fresh interpreter imports only what its subcommand uses, and
the package namespace resolves each public name on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jensengap
from jensengap import affine, funclib, functional, scenario
from jensengap.scenario import THEOREMS, dumps, make_scenario
from jensengap.scengen import GenSpec, gen_payload

SRC = Path(jensengap.__file__).resolve().parent.parent

# imports jensengap, runs `jensengap ARGS` when ARGS are given, and prints
# the exit code and the loaded module names as the last line of stdout
_PROBE = """
import json, sys
import jensengap
rc = None
if len(sys.argv) > 1:
    from jensengap.cli import main
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _fresh(*args: str) -> tuple[int | None, set[str]]:
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *args],
        capture_output=True, text=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return result["rc"], set(result["modules"])


def _scenario_file(tmp_path, theorem_id: str) -> str:
    entry, mode = scenario.lookup(theorem_id)
    payload = gen_payload(GenSpec(seed=1), theorem_id, mode)
    fn = scenario.fn_spec_from_string(entry.default_fn[mode])
    path = tmp_path / f"{theorem_id}.json"
    path.write_text(dumps(make_scenario(theorem_id, mode, fn, payload, seed=1)), encoding="utf-8")
    return str(path)


def _verifier_module(theorem_id: str) -> str:
    return "affine" if THEOREMS[theorem_id].fields == scenario.AFFINE_FIELDS else "functional"


class TestImportSets:
    def test_import_jensengap_loads_no_submodule(self):
        _, modules = _fresh()
        assert not {m for m in modules if m.startswith("jensengap.")}

    @pytest.mark.parametrize("theorem_id", ["mt1", "ic2", "mt4"])
    def test_check_loads_its_verifier_module_and_not_scengen(self, tmp_path, theorem_id):
        rc, modules = _fresh("check", _scenario_file(tmp_path, theorem_id))
        assert rc == 0
        assert "jensengap.scengen" not in modules
        own = _verifier_module(theorem_id)
        other = {"affine": "functional", "functional": "affine"}[own]
        assert f"jensengap.{own}" in modules
        assert f"jensengap.{other}" not in modules

    @pytest.mark.parametrize("theorem_id", ["mt1", "ic2", "mt4", "mc2"])
    def test_gen_loads_no_verifier_module(self, theorem_id):
        rc, modules = _fresh("gen", "--theorem", theorem_id, "--seed", "3")
        assert rc == 0
        assert "jensengap.scengen" in modules
        assert not modules & {"jensengap.affine", "jensengap.functional"}

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--theorem", "mt5"],
            ["analyze", "--fn", "quadratic:2"],
            ["search", "--theorem", "mt2", "--budget", "3"],
            ["search", "--theorem", "mc3", "--budget", "3"],
        ],
        ids=lambda args: args[0] + ("-" + args[2] if args[1] == "--theorem" else ""),
    )
    def test_no_subcommand_loads_dataclasses(self, args):
        rc, modules = _fresh(*args)
        assert rc in (0, 2)
        assert "dataclasses" not in modules

    def test_check_loads_no_dataclasses(self, tmp_path):
        rc, modules = _fresh("check", _scenario_file(tmp_path, "mt3"))
        assert rc == 0
        assert "dataclasses" not in modules


# constants carry no __module__; every other public name is a function or class
_CONSTANTS = {"EPS_EQ": "domain", "FAILS": "report", "HOLDS": "report", "UNMET": "report"}


class TestLazyNamespace:
    @pytest.mark.parametrize("name", jensengap.__all__)
    def test_name_is_the_defining_module_object(self, name):
        value = getattr(jensengap, name)
        if name in _CONSTANTS:
            module = importlib.import_module(f"jensengap.{_CONSTANTS[name]}")
        else:
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("jensengap.")
        assert getattr(module, name) is value

    def test_dir_lists_all(self):
        assert set(jensengap.__all__) <= set(dir(jensengap))
        assert "__version__" in dir(jensengap)

    def test_star_import(self):
        namespace: dict = {}
        exec("from jensengap import *", namespace)
        assert set(jensengap.__all__) <= set(namespace)
        assert namespace["verify_mt4"] is functional.verify_mt4

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            jensengap.no_such_name  # noqa: B018
        assert not hasattr(jensengap, "apply_fn")
        assert not hasattr(scenario, "verify_nothing")
        assert not hasattr(scenario, "k1_witness")
        # the package exports these, but none is a registered verifier
        for name in ("jensen_affine_gap", "spread", "__version__", "search_counterexamples"):
            assert name in jensengap._SOURCES and not hasattr(scenario, name)

    def test_declared_class_is_gone(self):
        # every catalog constant A comes from the monotone-f'' certificate
        assert "KnownClass" not in jensengap.__all__
        with pytest.raises(AttributeError, match="KnownClass"):
            jensengap.KnownClass  # noqa: B018
        assert not hasattr(funclib, "KnownClass")

    def test_version(self):
        assert jensengap.__version__ == scenario.VERSION

    @pytest.mark.parametrize("theorem_id", list(THEOREMS))
    def test_scenario_verifier_is_the_defining_module_object(self, theorem_id):
        name = THEOREMS[theorem_id].verifier
        defining = affine if _verifier_module(theorem_id) == "affine" else functional
        assert getattr(scenario, name) is getattr(defining, name)
