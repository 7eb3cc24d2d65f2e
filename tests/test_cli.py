import contextlib
import copy
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jensengap
from jensengap import analysis, cli, scengen
from jensengap.cli import main
from jensengap.domain import InfeasibleError, StructureError
from jensengap.scenario import (
    THEOREMS,
    dumps,
    fn_spec_from_string,
    make_scenario,
    model_from_spec,
    run_payload,
    run_scenario,
)
from jensengap.scengen import GenSpec, gen_payload, straddle_probe_mt4

MIRRORED_MT1 = make_scenario(
    "mt1",
    "proper",
    {"name": "signed_square", "point": 0.0},
    {
        "c": 0.0,
        "interval": [-1.0, 1.0],
        "left": {
            "plus_a": {"points": [-1.0], "weights": [0.5]},
            "plus_b": {"points": [0.0], "weights": [0.5]},
            "minus_c": {"points": [], "weights": []},
        },
        "right": {
            "plus_a": {"points": [0.0], "weights": [0.5]},
            "plus_b": {"points": [1.0], "weights": [0.5]},
            "minus_c": {"points": [], "weights": []},
        },
        "A": 0.0,
    },
)


def _unmet_mt1() -> dict:
    doc = json.loads(dumps(MIRRORED_MT1))
    doc["payload"]["right"]["plus_b"]["points"] = [0.4]  # breaks the spread equality
    return doc


#: one document of each verdict
VERDICT_DOCS = {
    "holds": MIRRORED_MT1,
    "fails": make_scenario("mt4", "literal", {"name": "signed_square"}, straddle_probe_mt4()),
    "hypotheses-unmet": _unmet_mt1(),
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc) if not isinstance(doc, str) else doc, encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


def feed_stdin(monkeypatch, text: str) -> None:
    """Pipe text into `check -`: its UTF-8 bytes behind a text sys.stdin."""
    stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)


class TestCheck:
    def test_mirrored_scenario_holds(self, tmp_path, capsys):
        path = write(tmp_path, "mt1.json", MIRRORED_MT1)
        assert run(["check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "holds"
        assert report["chain"] == pytest.approx([-0.25, 0.0, 0.0, 0.25], abs=1e-12)

    def test_literal_straddle_fails_with_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "mt4.json", VERDICT_DOCS["fails"])
        assert run(["check", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fails"
        assert report["margin"] == pytest.approx(-0.06029414592216457, abs=1e-4)

    def test_unmet_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", VERDICT_DOCS["hypotheses-unmet"])
        assert run(["check", path]) == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "hypotheses-unmet"

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{not json")
        assert run(["check", path]) == 1

    def test_wrong_schema_version_exit_1(self, tmp_path, capsys):
        doc = json.loads(dumps(MIRRORED_MT1))
        doc["schema_version"] = 99
        path = write(tmp_path, "v99.json", doc)
        assert run(["check", path]) == 1

    def test_missing_file_exit_1(self, capsys):
        assert run(["check", "/nonexistent/file.json"]) == 1

    def test_tol_override(self, tmp_path, capsys):
        # an absurdly loose tolerance turns the straddle failure into a pass
        doc = make_scenario("mt4", "literal", {"name": "signed_square"}, straddle_probe_mt4())
        path = write(tmp_path, "mt4.json", doc)
        assert run(["check", path, "--tol", "1.0"]) == 0

    @pytest.mark.parametrize(
        "tolerances, named",
        [
            ([1], "tolerance"),
            ([], "tolerance"),
            ("x", "tolerance"),
            ({"eq": -1e-9}, "tolerance"),
            # the parser rejects a non-finite number before any field is read
            ({"eq": math.nan}, "NaN"),
            ({"eq": math.inf}, "Infinity"),
        ],
    )
    def test_bad_tolerances_in_the_document_exit_1(self, tmp_path, capsys, tolerances, named):
        path = write(tmp_path, "tol.json", {**MIRRORED_MT1, "tolerances": tolerances})
        assert run(["check", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    @pytest.mark.parametrize(
        "theorem, where, value, token",
        [
            # once exit 1 on "-inf + inf in fsum", naming neither the sum nor the input
            ("mt1", ("left", "plus_a", "weights"), [math.inf, -math.inf], "Infinity"),
            # once judged, and hypotheses-unmet (exit 3)
            ("ic3", ("Ls", 0, 0), math.inf, "Infinity"),
            ("ic3", ("Ls", 0, 0), -math.inf, "-Infinity"),
            ("ic3", ("Ls", 0, 0), math.nan, "NaN"),
        ],
    )
    def test_non_finite_numbers_are_input_errors(
        self, tmp_path, capsys, theorem, where, value, token
    ):
        assert run(["gen", "--theorem", theorem, "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        node = doc["payload"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        assert run(["check", write(tmp_path, "doc.json", json.dumps(doc))]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"non-finite number {token} in" in captured.err

    @pytest.mark.parametrize(
        "doc_tol, tol",
        [([1], None), ("x", None), ({"eq": -1.0}, None), ({"eq": math.nan}, None),
         ({"eq": math.inf}, None), (None, -1e-9), (None, math.nan), (None, math.inf)],
    )
    def test_run_scenario_rejects_bad_tolerances(self, doc_tol, tol):
        doc = {**MIRRORED_MT1, "tolerances": doc_tol}
        with pytest.raises(StructureError, match="^tolerance"):
            run_scenario(doc, tol=tol)

    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("doc", [MIRRORED_MT1, []], ids=["document", "empty-list"])
    def test_bad_tol_option_exit_1(self, tmp_path, capsys, tol, doc):
        path = write(tmp_path, "mt1.json", doc)
        assert run(["check", path, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "tolerance must be finite and >= 0" in captured.err

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        feed_stdin(monkeypatch, dumps(MIRRORED_MT1))
        assert run(["check", "-"]) == 0

    def test_parameter_on_parameterless_function_exit_1(self, tmp_path, capsys):
        doc = json.loads(dumps(MIRRORED_MT1))
        doc["function"] = {"name": "cubic", "param": 3}
        path = write(tmp_path, "cubic3.json", doc)
        assert run(["check", path]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "verdicts, code",
        [
            ([], 0),
            (["holds", "holds"], 0),
            (["holds", "hypotheses-unmet"], 3),
            (["hypotheses-unmet", "fails"], 2),
            (["fails", "hypotheses-unmet", "holds"], 2),
        ],
    )
    def test_list_exit_rule(self, tmp_path, capsys, verdicts, code):
        # the rule of a single document: any fails gives 2, else any unmet 3
        path = write(tmp_path, "many.json", [VERDICT_DOCS[v] for v in verdicts])
        assert run(["check", path]) == code
        assert [r["verdict"] for r in json.loads(capsys.readouterr().out)] == verdicts


#: functions tabulated on 201 nodes over [-1, 1]
TABLE_FNS = {"x^2": lambda x: x * x, "x^3": lambda x: x**3, "x|x|": lambda x: x * abs(x)}


class TestCheckTableDocuments:
    """A table's spline has an exact f'', so the documents of a `check` list
    on a table scan no grid, and gen | check holds on the tables of x^2, x^3
    and x|x|, which are 3-convex at 0."""

    @pytest.mark.parametrize("fn", sorted(TABLE_FNS))
    @pytest.mark.parametrize("theorem", ["mt1", "mt4", "mc1"])
    def test_list_holds_scans_nothing_and_matches_single_checks(
        self, tmp_path, capsys, monkeypatch, theorem, fn
    ):
        table = tmp_path / "t.txt"
        nodes = [-1.0 + i / 100 for i in range(201)]
        table.write_text("".join(f"{x!r} {TABLE_FNS[fn](x)!r}\n" for x in nodes), encoding="utf-8")
        gen = ["gen", "--theorem", theorem, "--fn", f"tabulated-spline:{table}"]
        assert run(gen + ["--interval=-1,1", "--seed", "1", "--count", "5"]) == 0
        docs = capsys.readouterr().out
        scans = []
        for name in ("bracket_windows", "third_windows"):
            real = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda *a, real=real: scans.append(a) or real(*a))
        feed_stdin(monkeypatch, docs)
        assert run(["check", "-"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert scans == []
        assert [r["verdict"] for r in reports] == ["holds"] * 5
        for doc, report in zip(json.loads(docs), reports):
            assert run(["check", write(tmp_path, "one.json", doc)]) == 0
            assert capsys.readouterr().out == dumps(report)


class TestCheckCatalogDocuments:
    """A catalog function's shape queries are exact, so the documents of a
    `check` list scan no grid at all, model per document or not."""

    def test_ic2_exp_list_scans_nothing(self, tmp_path, capsys, monkeypatch):
        assert run(["gen", "--theorem", "ic2", "--fn", "exp", "--seed", "1", "--count", "3"]) == 0
        docs = capsys.readouterr().out
        scans = []
        for name in ("bracket_windows", "third_windows"):
            real = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda *a, real=real: scans.append(a) or real(*a))
        feed_stdin(monkeypatch, docs)
        assert run(["check", "-"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert scans == []
        assert [r["verdict"] for r in reports] == ["holds"] * 3


class TestFarFromZero:
    """x|x| at c = 1e5: the exact K1c interval [-2, 2] is feasible, where a
    grid's rounding made it empty for 45 of these 200 scenarios."""

    def test_signed_square_witness_is_never_unmet(self, capsys, monkeypatch):
        gen = [
            "gen", "--theorem", "mt1", "--fn", "signed_square", "--interval=99999,100001",
            "--point", "100000", "--count", "200", "--seed", "1",
        ]
        assert run(gen) == 0
        feed_stdin(monkeypatch, capsys.readouterr().out)
        run(["check", "-"])
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 200
        witness = [c for r in reports for c in r["hypotheses"] if c["name"] == "witness.K1c"]
        assert witness and all(c["ok"] for c in witness)

    @pytest.mark.parametrize("fn", ["signed_square", "neg_signed_square"])
    @pytest.mark.parametrize("interval, point", [("2,5", "3"), ("-1e3,-10", "-500")])
    def test_off_zero_split_point_holds(self, capsys, monkeypatch, fn, interval, point):
        # f = +-x^2 on either side of c: the grid's K1c interval was empty
        # (unmet) or off the exact constant (fails) here
        gen = [
            "gen", "--theorem", "mt1", "--fn", fn, f"--interval={interval}", "--point", point,
            "--count", "20", "--seed", "1",
        ]
        assert run(gen) == 0
        feed_stdin(monkeypatch, capsys.readouterr().out)
        assert run(["check", "-"]) == 0
        assert {r["verdict"] for r in json.loads(capsys.readouterr().out)} == {"holds"}


class TestNarrowInterval:
    """An interval 2e-12 wide: the inner interval of these pairs was refused
    below an absolute width of 1e-9, so gen found no scenario."""

    @pytest.mark.parametrize(
        "theorem, mode",
        [
            ("it2", "standard"), ("it3", "standard"), ("ic1", "standard"),
            ("ic3", "standard"), ("mt4", "literal"), ("mt4", "region_restricted"),
            ("mt5", "literal"), ("mt5", "region_restricted"),
        ],
    )
    def test_gen_check_holds(self, capsys, monkeypatch, theorem, mode):
        gen = [
            "gen", "--theorem", theorem, "--mode", mode, "--interval=-1e-12,1e-12",
            "--count", "5", "--seed", "1",
        ]
        assert run(gen) == 0
        feed_stdin(monkeypatch, capsys.readouterr().out)
        assert run(["check", "-"]) == 0


class TestMt3BranchCDefault:
    """`gen --theorem mt3 --mode c` uses a function that satisfies branch (c),
    f'' straddling 0 downward with f 3-concave, so `check -` holds."""

    @pytest.mark.parametrize("interval", [[], ["--interval=-1e3,1e3"]])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_gen_check_holds(self, capsys, monkeypatch, seed, interval):
        gen = ["gen", "--theorem", "mt3", "--mode", "c", "--seed", str(seed), *interval]
        assert run(gen) == 0
        feed_stdin(monkeypatch, capsys.readouterr().out)
        assert run(["check", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "holds" and report["details"]["branch"] == "c"


class TestAnalyze:
    def test_signed_square(self, capsys):
        assert run(["analyze", "--fn", "signed_square", "--point", "0", "--interval=-1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "K1c"
        assert report["k1_interval"]["lo"] == pytest.approx(-2.0, abs=1e-6)
        assert report["k1_interval"]["hi"] == pytest.approx(2.0, abs=1e-6)

    def test_quadratic_both(self, capsys):
        assert run(["analyze", "--fn", "quadratic:2", "--point", "0.3", "--interval=-1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "both"
        assert report["witness_A"] == pytest.approx(2.0, abs=1e-6)

    def test_cubic_offcenter(self, capsys):
        assert run(["analyze", "--fn", "cubic", "--point", "0.5", "--interval=-1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [report["k1_interval"]["lo"], report["k1_interval"]["hi"]] == [3.0, 3.0]

    @pytest.mark.parametrize(
        "fn, point, k1",
        [
            ("cubic", "0.5", [3.0, 3.0]),
            ("signed_square", "0", [-2.0, 2.0]),
            ("exp", "0", [1.0, 1.0]),
        ],
    )
    def test_catalog_interval_is_exact(self, capsys, fn, point, k1):
        assert run(["analyze", "--fn", fn, "--point", point, "--interval=-1,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [report["k1_interval"]["lo"], report["k1_interval"]["hi"]] == k1
        assert "grid_n" not in report

    @pytest.mark.parametrize("n", ["3", "1000"])
    def test_grid_option_is_gone(self, capsys, n):
        assert run(["analyze", "--fn", "cubic", "--grid", n]) == 1
        assert "--grid" in capsys.readouterr().err

    def test_unknown_function_exit_1(self, capsys):
        assert run(["analyze", "--fn", "sigmoid", "--point", "0"]) == 1

    def test_unparsable_interval_names_the_option(self, capsys):
        assert run(["analyze", "--fn", "cubic", "--interval=a,1"]) == 1
        message = "interval must be 'lo,hi', got 'a,1'"
        assert capsys.readouterr().err == f"jensengap: error: {message}\n"

    @pytest.mark.parametrize("fn", ["cubic:3", "exp:7"])
    def test_parameter_on_parameterless_function_exit_1(self, capsys, fn):
        assert run(["analyze", "--fn", fn]) == 1
        assert "takes no parameter" in capsys.readouterr().err


class TestGen:
    @pytest.mark.parametrize(
        "theorem,mode",
        [
            ("mt1", None),
            ("mt2", None),
            ("mt2", "a"),
            ("mt2", "b"),
            ("mt3", None),
            ("mt3", "a"),
            ("it2", None),
            ("ic1", None),
            ("ic2", None),
            ("ic3", None),
            ("it3", None),
            ("mt4", "region_restricted"),
            ("mt4", "literal"),
            ("mt5", None),
            ("mc1", None),
            ("mc2", None),
            ("mc3", None),
        ],
    )
    def test_roundtrip_exit_0(self, tmp_path, capsys, theorem, mode):
        out = str(tmp_path / "scenario.json")
        args = ["gen", "--theorem", theorem, "--seed", "7", "--out", out]
        if mode:
            args += ["--mode", mode]
        assert run(args) == 0
        assert run(["check", out]) == 0, (tmp_path / "scenario.json").read_text(encoding="utf-8")

    def test_point_outside_interval_exit_1(self, capsys):
        assert run(["gen", "--theorem", "mt1", "--seed", "1", "--point", "5"]) == 1

    def test_unknown_mode_exit_1(self, capsys):
        assert run(["gen", "--theorem", "mt1", "--mode", "sideways", "--seed", "1"]) == 1

    @pytest.mark.parametrize("fn", ["cubic:3", "exp:7"])
    def test_parameter_on_parameterless_function_exit_1(self, capsys, fn):
        assert run(["gen", "--theorem", "mt1", "--seed", "1", "--fn", fn]) == 1
        assert capsys.readouterr().out == ""

    def test_count_emits_array(self, tmp_path, capsys):
        out = str(tmp_path / "many.json")
        assert run(["gen", "--theorem", "mt1", "--seed", "3", "--count", "3", "--out", out]) == 0
        docs = json.loads((tmp_path / "many.json").read_text(encoding="utf-8"))
        assert isinstance(docs, list) and len(docs) == 3
        assert run(["check", out]) == 0

    def test_deterministic_bytes(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for out in (a, b):
            assert run(["gen", "--theorem", "mt4", "--seed", "9", "--out", out]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_bytes_are_the_dumps_of_the_whole_list(self, tmp_path, capsys, count):
        """Documents written one at a time make the text dumps gives the list."""
        fn = fn_spec_from_string("signed_square", point=0.0)
        docs = []
        for seed in range(4, 4 + count):
            payload = gen_payload(GenSpec(seed), "mt1", "proper", random.Random(seed))
            docs.append(make_scenario("mt1", "proper", fn, payload, seed=seed))
        text = dumps(docs[0] if count == 1 else docs)
        args = ["gen", "--theorem", "mt1", "--seed", "4", "--count", str(count)]
        assert run(args) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / "docs.json"
        assert run([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["docs.json"]

    # the --out rules hold for every subcommand, which write through one writer;
    # each test runs gen and check
    OUT_COMMANDS = pytest.mark.parametrize("command", ["gen", "check"])

    @staticmethod
    def _args(command, tmp_path_factory, count=2) -> list[str]:
        """gen of `count` mt1 documents, or check of the file that run writes,
        which lies outside the test's own tmp_path."""
        gen = ["gen", "--theorem", "mt1", "--sizes", "2,2,1", "--seed", "3", "--count", str(count)]
        if command == "gen":
            return gen
        docs = tmp_path_factory.mktemp("in") / "docs.json"
        assert run([*gen, "--out", str(docs)]) == 0
        return ["check", str(docs)]

    @staticmethod
    def _text(args, capsys) -> str:
        assert run(args) == 0
        return capsys.readouterr().out

    @OUT_COMMANDS
    @pytest.mark.parametrize("before", [None, "an earlier file\n"])
    def test_failed_run_leaves_out_as_it_was(
        self, tmp_path, tmp_path_factory, capsys, monkeypatch, before, command
    ):
        args = self._args(command, tmp_path_factory, count=5)
        module, name = (scengen, "gen_payload") if command == "gen" else (cli, "run_scenario")
        real, calls = getattr(module, name), []

        def third_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise InfeasibleError("no feasible scenario")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, third_call_fails)
        out = tmp_path / "docs.json"
        if before is not None:
            out.write_text(before, encoding="utf-8")
        assert run([*args, "--out", str(out)]) == 1 and len(calls) == 3
        assert capsys.readouterr().err == "jensengap: error: no feasible scenario\n"
        if before is None:
            assert not out.exists()
        else:
            assert out.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["docs.json"])

    @OUT_COMMANDS
    def test_out_through_a_symlink_writes_its_target(
        self, tmp_path, tmp_path_factory, capsys, command
    ):
        args = self._args(command, tmp_path_factory)
        text = self._text(args, capsys)
        (tmp_path / "docs.json").write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.json"
        link.symlink_to("docs.json")
        assert run([*args, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == "docs.json"
        assert (tmp_path / "docs.json").read_text(encoding="utf-8") == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["docs.json", "link.json"]

    @OUT_COMMANDS
    def test_out_keeps_an_existing_files_mode_and_owner(
        self, tmp_path, tmp_path_factory, capsys, command
    ):
        """Another user's file stays theirs when root rewrites it."""
        args = self._args(command, tmp_path_factory)
        text = self._text(args, capsys)
        out = tmp_path / "docs.json"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(0o640)
        owner = (1234, 1234) if os.geteuid() == 0 else (os.getuid(), os.getgid())
        os.chown(out, *owner)
        assert run([*args, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text
        st = out.stat()
        assert (st.st_mode & 0o7777, st.st_uid, st.st_gid) == (0o640, *owner)

    @OUT_COMMANDS
    def test_new_out_gets_the_mode_open_gives(self, tmp_path, tmp_path_factory, command):
        """A new FILE has the mode any file the process makes has (0o666
        less the umask), not the private mode of a temporary file."""
        args = self._args(command, tmp_path_factory)
        ref = tmp_path / "ref"
        ref.write_text("", encoding="utf-8")
        out = tmp_path / "docs.json"
        assert run([*args, "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o7777 == ref.stat().st_mode & 0o7777

    @OUT_COMMANDS
    def test_out_in_a_directory_that_takes_no_new_file(
        self, tmp_path, tmp_path_factory, capsys, monkeypatch, command
    ):
        """Where no file can be made beside FILE, FILE is written in place."""
        args = self._args(command, tmp_path_factory)
        text = self._text(args, capsys)
        out = tmp_path / "docs.json"
        out.write_text("old\n", encoding="utf-8")

        def refuse(*args, **kwargs):
            raise PermissionError("no new file here")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        assert run([*args, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text

    @OUT_COMMANDS
    def test_out_to_a_pipe_writes_into_it(self, tmp_path, tmp_path_factory, capsys, command):
        """A FILE that is not a plain file (here a named pipe) is written in
        place; it is not replaced by a plain file."""
        args = self._args(command, tmp_path_factory)
        text = self._text(args, capsys)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run([*args, "--out", str(fifo)]) == 0
            got = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert got.decode("utf-8") == text


class TestSearch:
    def test_clean_search_exit_0(self, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        assert (
            run(
                [
                    "search",
                    "--theorem",
                    "mt1",
                    "--fn",
                    "signed_square",
                    "--budget",
                    "50",
                    "--seed",
                    "2",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        assert report["found"] == 0

    def test_literal_straddle_exit_2(self, tmp_path):
        out = str(tmp_path / "s.json")
        code = run(
            [
                "search",
                "--theorem",
                "mt4",
                "--mode",
                "literal",
                "--fn",
                "signed_square",
                "--interval=-3,3",
                "--budget",
                "30",
                "--seed",
                "3",
                "--out",
                out,
            ]
        )
        assert code == 2
        report = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        assert report["found"] >= 1
        assert ["probe"] in [r["seed_trace"] for r in report["results"]]

    def test_no_probes_drops_the_literal_probe(self, tmp_path):
        search = [
            "search", "--theorem", "mt4", "--mode", "literal", "--fn", "signed_square",
            "--interval=-3,3", "--budget", "30", "--seed", "3",
        ]
        out = tmp_path / "s.json"
        reports = []
        for extra in ([], ["--no-probes"]):
            code = run(search + extra + ["--out", str(out)])
            reports.append(json.loads(out.read_text(encoding="utf-8")))
            assert code == (2 if reports[-1]["found"] else 0)
        probed, unprobed = reports
        assert ["probe"] in [r["seed_trace"] for r in probed["results"]]
        assert unprobed["results"] == [
            r for r in probed["results"] if r["seed_trace"] != ["probe"]
        ]

    def test_bad_flag_exit_1(self, capsys):
        assert run(["search", "--theorem", "bogus", "--budget", "5"]) == 1

    def test_help_exit_0(self, capsys):
        assert run(["--help"]) == 0


class TestRequest:
    """gen and search read one request (theorem, mode, function, interval,
    split point, sizes, seed) through one path, so the same bad request is
    the same one-line error from either, and nothing is written."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--mode", "sideways"], "sideways"),
            (["--point", "5"], "split point must be interior to the interval"),
            (["--interval=1,-1"], "empty interval [1.0, -1.0]"),
            (["--interval=1"], "interval must be 'lo,hi', got '1'"),
            (["--sizes", "2,2"], "sizes must be 'n,m,l', got '2,2'"),
            (["--sizes", "0,2,1"], "group sizes must satisfy n >= 1, m >= 1, l >= 0"),
            (["--sizes", "2,2,10001"], "group sizes must be at most 10000"),
            # a number that does not parse gets the message of a wrong count
            (["--sizes", "2,2,x"], "sizes must be 'n,m,l', got '2,2,x'"),
            (["--interval=a,1"], "interval must be 'lo,hi', got 'a,1'"),
            (["--fn", "sigmoid"], "sigmoid"),
            (["--fn", "cubic:3"], "takes no parameter"),
            (["--fn", "exp", "--interval=-20,20"], "interval ["),
            # the request is read in one order: spec before function
            (["--point", "5", "--fn", "sigmoid"], "split point must be interior to the interval"),
        ],
    )
    def test_same_error_from_gen_and_search(self, tmp_path, capsys, args, message):
        errors = []
        for command in ("gen", "search"):
            out = tmp_path / f"{command}.json"
            assert run([command, "--theorem", "mt1", *args, "--out", str(out)]) == 1
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("jensengap: error:") and errors[0].count("\n") == 1
        assert message in errors[0]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["gen", "--count", "0"], "count must be at least 1"),
            (["search", "--budget", "0"], "search budget must be at least 1"),
            (["gen", "--count", "100001"], "count must be at most 100000"),
            (["search", "--budget", "100001"], "search budget must be at most 100000"),
        ],
    )
    def test_count_and_budget_limits_exit_1(self, monkeypatch, capsys, args, message):
        def no_draw(*args):
            raise AssertionError("a scenario was drawn past the limit check")

        monkeypatch.setattr(scengen, "gen_payload", no_draw)
        assert run([*args, "--theorem", "mt1", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"jensengap: error: {message}\n"

    @pytest.mark.parametrize(
        "command, key, what", [("gen", "--count", "count"), ("search", "--budget", "search budget")]
    )
    def test_points_limit_boundary(self, monkeypatch, capsys, command, key, what):
        """k * (n + m + l) may reach scengen.MAX_POINTS but not pass it; past
        it is an input error before any draw."""
        drawn = []

        def stub(*args):
            drawn.append(args)
            raise InfeasibleError("drawn")

        monkeypatch.setattr(scengen, "gen_payload", stub)
        sizes = ["--theorem", "mt1", "--sizes", "10000,10000,5000"]  # n + m + l = 25000
        assert scengen.MAX_POINTS == 40 * 25000
        assert run([command, *sizes, key, "41"]) == 1 and not drawn
        message = f"{what} * (n + m + l) must be at most 1000000"
        assert capsys.readouterr().err == f"jensengap: error: {message}\n"
        assert run([command, *sizes, key, "40"]) == 1 and len(drawn) == 1
        assert capsys.readouterr().err == "jensengap: error: drawn\n"

    def test_oversized_sizes_exit_1_at_once(self):
        """One mistyped digit in --sizes is an input error, not hours of work."""
        src = Path(jensengap.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "jensengap.cli", "gen", "--theorem", "mt1",
             "--sizes", "2,2,100000000"],
            capture_output=True, text=True, encoding="utf-8", timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "jensengap: error: group sizes must be at most 10000\n"

    @pytest.mark.parametrize("command", ["check", "analyze", "gen", "search"])
    def test_help_exit_0(self, capsys, command):
        assert run([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: jensengap {command}")


class TestIntervalOutsideDomain:
    """An interval that leaves the function's domain is an input error
    before any work starts, and the error names the interval."""

    @pytest.mark.parametrize(
        "args",
        [
            ["gen", "--theorem", "mt1", "--fn", "exp", "--interval=-20,20"],
            ["search", "--theorem", "mt2", "--fn", "quadratic:2", "--interval=-3e6,3e6"],
            ["analyze", "--fn", "exp", "--interval=-20,1"],
        ],
    )
    def test_exit_1_naming_the_interval(self, tmp_path, capsys, args):
        out = tmp_path / "out.json"
        assert run(args + ["--out", str(out)]) == 1
        assert not out.exists()
        assert "interval [" in capsys.readouterr().err

    def test_domain_edge_is_accepted(self, capsys):
        assert run(["analyze", "--fn", "exp", "--interval=-10,10"]) == 0


def _mt1_doc() -> dict:
    """The mt1 document of `gen --theorem mt1 --seed 1`."""
    payload = gen_payload(GenSpec(seed=1), "mt1", "proper", random.Random(1))
    doc = make_scenario("mt1", "proper", fn_spec_from_string("signed_square"), payload, seed=1)
    return json.loads(dumps(doc))


#: a family of two functionals, each weighing one value by 1.5e296
#: theorem id -> (the function list cut short by one, the keys of the family
#: cut to fewer members than allowed, the least number of members)
FAMILY_SHAPES = {
    "ic2": ("gs", ("Ls", "gs"), 2),
    "ic3": ("gs", ("Ls", "gs"), 1),
    "it3": ("hs", ("Hs", "hs"), 1),
    "mc2": ("hs", ("Ls", "gs", "hs"), 2),
    "mc3": ("hs", ("Ls", "gs", "hs"), 1),
    "mt5": ("gs_star", ("Ls_star", "gs_star"), 1),
}


class TestInputRules:
    """One family reader and one split-point rule: each shape fault of a
    family, and a split point outside the interval, is the same one-line
    input error from every verifier that reads it."""

    def _check_error(self, tmp_path, capsys, doc) -> str:
        assert run(["check", write(tmp_path, "doc.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("shape", ["mismatched", "too small"])
    @pytest.mark.parametrize("theorem", sorted(FAMILY_SHAPES))
    def test_family_shape_is_one_input_error(self, tmp_path, capsys, theorem, shape):
        cut, family, least = FAMILY_SHAPES[theorem]
        mode = THEOREMS[theorem].modes[0]
        payload = gen_payload(GenSpec(seed=1), theorem, mode, random.Random(1))
        if shape == "mismatched":
            n = len(payload[family[0]])
            got = (n, n - 1)
            payload[cut] = payload[cut][:-1]
        else:
            got = (least - 1, least - 1)
            for key in family:
                payload[key] = payload[key][: least - 1]
        message = f"family sizes must match and be at least {least}, got {got[0]} and {got[1]}"
        fn_spec = fn_spec_from_string(THEOREMS[theorem].default_fn[mode])
        with pytest.raises(StructureError) as err:
            run_payload(theorem, mode, model_from_spec(fn_spec), payload)
        assert str(err.value) == message
        doc = make_scenario(theorem, mode, fn_spec, payload)
        assert self._check_error(tmp_path, capsys, doc) == f"jensengap: error: {message}\n"

    @pytest.mark.parametrize(
        "theorem, mode",
        [(t, m) for t in ("mt1", "mt2", "mt3", "mc1", "mc2", "mc3") for m in THEOREMS[t].modes],
    )
    def test_split_point_outside_the_interval(self, tmp_path, capsys, theorem, mode):
        assert run(["gen", "--theorem", theorem, "--mode", mode, "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["interval"] == [-1.0, 1.0]
        doc["payload"]["c"] = 5.0
        err = self._check_error(tmp_path, capsys, doc)
        assert err == "jensengap: error: split point must lie in the interval\n"


BIG_FAMILY = [[1.5e296], [1.5e296]]


class TestNoTraceback:
    """Input whose sums or powers would leave the float range is an input
    error: exit 1 with a one-line message naming what is wrong, no
    traceback.  A function spec's point never reaches the model."""

    def _check(self, tmp_path, capsys, doc) -> tuple[int, str]:
        rc = run(["check", write(tmp_path, "doc.json", doc)])
        return rc, capsys.readouterr().err

    def test_group_weights_summing_past_float_range(self, tmp_path, capsys):
        doc = _mt1_doc()
        doc["payload"]["left"]["plus_a"]["weights"] = [1e308, 1e308]
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err.startswith("jensengap: error: group weights sum past")

    def test_functional_weights_summing_past_float_range(self, tmp_path, capsys):
        payload = gen_payload(GenSpec(seed=1), "ic1", "standard", random.Random(1))
        payload["L"] = [1e308, 1e308]
        doc = make_scenario("ic1", None, fn_spec_from_string("quadratic:2"), payload)
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err.startswith("jensengap: error: functional weights sum past")

    def test_family_totals_summing_past_float_range(self, tmp_path, capsys):
        payload = gen_payload(GenSpec(seed=1), "ic3", "standard", random.Random(1))
        for L in payload["Ls"]:
            L[-1] = 1e308
        doc = make_scenario("ic3", None, fn_spec_from_string("quadratic:2"), payload)
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err.startswith("jensengap: error: Ls totals sum past")

    @pytest.mark.parametrize(
        "theorem, mode, payload, what",
        [
            (
                "mc3", "literal",
                {"c": 0, "interval": [-1e6, 1e6], "Ls": BIG_FAMILY,
                 "gs": [[-1e6], [-1e6]], "hs": [[1e6], [1e6]]},
                "family sum L(u**2)",
            ),
            (
                "mt5", "literal",
                {"c": 0, "interval": [-1e6, 1e6], "inner": [-1, 1],
                 "Ls": BIG_FAMILY, "Hs": BIG_FAMILY, "gs": [[0.5], [0.5]], "hs": [[1e6], [1e6]],
                 "Ls_star": [[1.0]], "Hs_star": [[1.0]], "gs_star": [[0.5]], "hs_star": [[2.0]]},
                "family sum L(u**2)",
            ),
            (
                "it3", "standard",
                {"interval": [-1e6, 1e6], "inner": [-1, 1], "Ls": BIG_FAMILY,
                 "gs": [[1e12], [1e12]], "Hs": [[1.0]], "hs": [[5.0]]},
                "family sum L(u)",
            ),
        ],
        ids=["mc3", "mt5", "it3"],
    )
    def test_family_sum_past_float_range(self, tmp_path, capsys, theorem, mode, payload, what):
        # each member's weighted sum stays inside the float range; their sum
        # over the family does not
        doc = make_scenario(theorem, mode, {"name": "quadratic", "param": 2}, payload)
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err == f"jensengap: error: {what} past the float range\n"

    @pytest.mark.parametrize("points", [[1e4, 1e4], [1e4, -1e4]], ids=["same", "mixed"])
    def test_barycenter_past_float_range(self, tmp_path, capsys, points):
        # each w * p product leaves the float range: +inf twice, or +inf and
        # -inf; either way the barycenter is an input error, not a number
        doc = _mt1_doc()
        doc["payload"]["left"]["plus_a"].update(weights=[1e305, 1e305], points=points)
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err == "jensengap: error: barycenter sum(w * p) past the float range\n"

    def test_weighted_sum_past_float_range(self, tmp_path, capsys):
        payload = gen_payload(GenSpec(seed=1), "it2", "standard", random.Random(1))
        payload["L"], payload["g"] = [1, 1], [1e308, 1e308]
        doc = make_scenario("it2", None, fn_spec_from_string("quadratic:2"), payload, seed=1)
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err == "jensengap: error: weighted sum L(u) past the float range\n"

    @pytest.mark.parametrize("g", [[1e10, -1e10], [1e10, 1e10]])
    def test_weighted_sum_of_overflowing_products(self, tmp_path, capsys, g):
        # each L * g product leaves the float range: +inf and -inf, or +inf twice
        payload = gen_payload(GenSpec(seed=1), "it2", "standard", random.Random(1))
        payload["L"], payload["g"] = [1e300, 1e300], g
        doc = make_scenario("it2", None, fn_spec_from_string("quadratic:2"), payload, seed=1)
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err == "jensengap: error: weighted sum L(u) past the float range\n"

    def test_huge_points_inside_a_table_domain(self, tmp_path, capsys):
        table = tmp_path / "wide.txt"
        table.write_text("-1e200 1.0\n0 0\n1e200 1.0\n", encoding="utf-8")
        doc = _mt1_doc()
        doc["function"] = {"name": "tabulated-spline", "path": str(table)}
        for group in doc["payload"]["left"].values():
            group["points"] = [1e200] * len(group["points"])
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1
        assert err == "jensengap: error: group moment sum(w * p**2) past the float range\n"

    def test_points_outside_the_domain(self, tmp_path, capsys):
        doc = _mt1_doc()
        for group in doc["payload"]["left"].values():
            group["points"] = [1e200] * len(group["points"])
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and "left points [1e+200, 1e+200] outside domain" in err

    def test_exp_point_does_not_reach_the_model(self, tmp_path, capsys):
        payload = gen_payload(GenSpec(seed=1), "mt2", "a", random.Random(1))
        rcs = []
        for point in (0.0, 1e308):
            spec = fn_spec_from_string("exp", point=point)
            rcs.append(self._check(tmp_path, capsys, make_scenario("mt2", "a", spec, payload)))
        assert rcs[0] == rcs[1] == (0, "")

    def test_point_that_is_not_a_number(self, tmp_path, capsys):
        doc = _mt1_doc()
        doc["function"]["point"] = "x"
        rc, err = self._check(tmp_path, capsys, doc)
        assert rc == 1 and err.startswith("jensengap: error:")


#: every theorem id with each of its modes
ID_MODES = [(t, m) for t, entry in THEOREMS.items() for m in entry.modes]
#: replacement leaves for the mutation property
POOL = [None, "x", [], 1e308, math.nan, [1e308, 1e308]]


@lru_cache(maxsize=None)
def _generated(theorem: str, mode: str, seed: int) -> str:
    entry = THEOREMS[theorem]
    payload = gen_payload(GenSpec(seed=seed), theorem, mode, random.Random(seed))
    fn_spec = fn_spec_from_string(entry.default_fn[mode])
    return dumps(make_scenario(theorem, mode, fn_spec, payload, seed=seed))


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


@given(
    case=st.sampled_from(ID_MODES),
    seed=st.integers(0, 3),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_mutated_documents_never_raise(tmp_path_factory, case, seed, data):
    """One or two leaves of a generated document, replaced from POOL: check
    returns an exit code of 0 to 3, and anything on stderr is one error line."""
    doc = json.loads(_generated(*case, seed))
    paths = list(_leaf_paths(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, last = data.draw(st.sampled_from(paths))
        node = doc
        for key in parents:  # only leaves are replaced, so no path passes through one
            node = node[key]
        node[last] = copy.deepcopy(data.draw(st.sampled_from(POOL)))
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["check", str(path)])
    assert 0 <= rc <= 3
    assert err.getvalue() == "" or (
        err.getvalue().startswith("jensengap: error:") and err.getvalue().count("\n") == 1
    )


def test_import_leaves_numpy_out():
    """The package has no runtime dependencies: a fresh interpreter that
    imports the CLI does not load numpy."""
    src = Path(jensengap.__file__).resolve().parent.parent
    code = "import sys, jensengap.cli; sys.exit('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, timeout=60
    )
    assert done.returncode == 0


def test_stdin_is_read_as_utf8(tmp_path):
    """`check -` decodes stdin as UTF-8, as `check FILE` reads a file: a
    document naming a table at a non-ASCII path, written raw in UTF-8,
    holds through stdin under a Latin-1 stdio encoding too."""
    src = Path(jensengap.__file__).resolve().parent.parent
    table = tmp_path / "tab\u00e9.txt"
    nodes = [-1.0 + i / 100 for i in range(201)]
    table.write_text("".join(f"{x!r} {x * x!r}\n" for x in nodes), encoding="utf-8")
    doc = tmp_path / "doc.json"
    assert main(["gen", "--theorem", "mt1", "--fn", f"tabulated-spline:{table}", "--seed", "1",
                 "--out", str(doc)]) == 0
    raw = json.dumps(json.loads(doc.read_text(encoding="utf-8")), ensure_ascii=False)
    doc.write_bytes(raw.encode("utf-8"))
    for path, encoding in ((str(doc), "latin-1"), ("-", "utf-8"), ("-", "latin-1")):
        done = subprocess.run(
            [sys.executable, "-m", "jensengap.cli", "check", path],
            input=doc.read_bytes(), capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": encoding},
        )
        assert done.returncode == 0, (path, encoding, done.stderr)


def test_files_are_read_and_written_as_utf8(tmp_path):
    """JSON text is UTF-8 (RFC 8259 8.1), so no command that reads or writes
    a file uses the locale's encoding: with default-encoding warnings made
    errors, a fresh interpreter runs each of them to exit 0."""
    src = Path(jensengap.__file__).resolve().parent.parent
    table = tmp_path / "sq.txt"
    nodes = [-1.0 + i / 100 for i in range(201)]
    table.write_text("# x² on [-1, 1]\n" + "".join(f"{x!r} {x * x!r}\n" for x in nodes), "utf-8")
    doc = tmp_path / "mt1.json"
    for args in (
        ["gen", "--theorem", "mt1", "--seed", "1", "--out", str(doc)],
        ["check", str(doc)],
        ["analyze", "--fn", f"tabulated-spline:{table}"],
    ):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "jensengap.cli", *args],
            capture_output=True, text=True, encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert done.returncode == 0, (args[0], done.stderr)
