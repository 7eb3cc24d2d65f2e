"""Golden reports: `check` and `search` output must stay byte-identical.

For every (theorem id, mode) in the registry, three generated documents
with the CLI default function are checked as generated, and again with the
first weight of their first functional or group scaled by 1.1, which breaks
a mass constraint and must come back hypotheses-unmet; mt3 documents are
also checked under their non-default ``"c_convention": "printed"``.  The
`gen` output of seeds 1-20 is pinned for every (theorem id, mode) as well,
and so is that of seeds 1-5 at the non-default spec ``GEN_WIDE`` (n = 5,
so every family split takes two weights, and a split point that is not 0),
and so are the results of a budget-100 search for each request class of
the benchmark's search workloads.  The SHA-256 digest of each output is
compared with the one recorded in golden_reports.json.

After a deliberate change of the output, rewrite the recorded digests with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from jensengap.cli import main
from jensengap.domain import IntervalR
from jensengap.scenario import dumps, fn_spec_from_string, make_scenario, model_from_spec
from jensengap.scengen import GenSpec, search_counterexamples, straddle_probe_mt4

DIGESTS = Path(__file__).with_name("golden_reports.json")
SEEDS = (1, 2, 3)
#: the search document of acceptance criterion 10
SEARCH_ARGS = [
    "search", "--theorem", "mt4", "--mode", "literal", "--fn", "signed_square",
    "--interval=-3,3", "--budget", "25", "--seed", "3",
]
#: seeds of the `gen` documents pinned for every (theorem id, mode)
GEN_SEEDS = range(1, 21)
#: a non-default `gen` spec and its seeds, pinned as ``gen.<id>.<mode>.sizes523``
GEN_WIDE = ["--interval=-3,3", "--point", "0.5", "--sizes", "5,2,3"]
GEN_WIDE_SEEDS = range(1, 6)
#: the first request of each class of the benchmark's search-declared and
#: search-grid workloads at seed 1: (theorem id, mode, function, interval,
#: split point, search seed), searched at the CLI budget
SEARCH_BUDGET = 100
SEARCH_REQUESTS = (
    ("mt1", "proper", "signed_square", (-1.0, 1.0), 0.0, 619714608),
    ("mt1", "literal_alpha", "signed_square", (-1.0, 1.0), 0.0, 1578166756),
    ("mt3", "auto", "quadratic:2", (-1.0, 1.0), 0.0, 339387276),
    ("mt4", "region_restricted", "signed_square", (-1.0, 1.0), 0.0, 1536849092),
    ("mt5", "region_restricted", "signed_square", (-1.0, 1.0), 0.0, 2084358811),
    ("mc1", "region_restricted", "signed_square", (-1.0, 1.0), 0.0, 1055320912),
    ("mc2", "region_restricted", "signed_square", (-1.0, 1.0), 0.0, 286938315),
    ("mc3", "region_restricted", "signed_square", (-1.0, 1.0), 0.0, 346363320),
    ("mt4", "literal", "signed_square", (-3.0, 3.0), 0.0, 60047278),
    ("mt2", "auto", "signed_square", (-0.6023107143816218, 0.9810355803925164), 0.0, 2042725391),
    ("it2", "standard", "quadratic:2", (-1.3066750682214403, 0.514519372323594), 0.0, 478192242),
    ("it3", "standard", "quadratic:2", (-0.6572870461178284, 1.7401203273792967), 0.0, 849519652),
    (
        "ic1", "standard", "quadratic:2", (-1.0069601449127865, 1.5204550953037628),
        0.40925332344112153, 1950469691,
    ),
    (
        "ic2", "standard", "quadratic:2", (-1.5515437505931187, 1.7610167732874964),
        -0.6007385599280067, 2104125788,
    ),
    (
        "ic3", "standard", "quadratic:2", (-1.8175674403851523, 1.6170558946136229),
        0.10963694752355024, 1740511649,
    ),
)


def _first_weights(payload: dict) -> list:
    if "left" in payload:
        return payload["left"]["plus_a"]["weights"]
    return payload["L"] if "L" in payload else payload["Ls"][0]


def golden_outputs(modes: dict, workdir: Path) -> dict[str, bytes]:
    """Output bytes per case name; ``modes`` maps each theorem id to its modes."""
    doc_path, out_path = workdir / "doc.json", workdir / "out.json"

    def run(*args: str) -> bytes:
        main([*args, "--out", str(out_path)])
        return out_path.read_bytes()

    outputs = {}
    for theorem_id, theorem_modes in modes.items():
        for mode in theorem_modes:
            outputs[f"gen.{theorem_id}.{mode}"] = b"".join(
                run("gen", "--theorem", theorem_id, "--mode", mode, "--seed", str(seed))
                for seed in GEN_SEEDS
            )
            outputs[f"gen.{theorem_id}.{mode}.sizes523"] = b"".join(
                run("gen", "--theorem", theorem_id, "--mode", mode, "--seed", str(seed), *GEN_WIDE)
                for seed in GEN_WIDE_SEEDS
            )
            for seed in SEEDS:
                name = f"{theorem_id}.{mode}.seed{seed}"
                gen = ["gen", "--theorem", theorem_id, "--mode", mode, "--seed", str(seed)]
                assert main([*gen, "--out", str(doc_path)]) == 0, name
                outputs[name] = run("check", str(doc_path))
                doc = json.loads(doc_path.read_text(encoding="utf-8"))
                if theorem_id == "mt3":
                    printed = {**doc, "payload": {**doc["payload"], "c_convention": "printed"}}
                    doc_path.write_text(dumps(printed), encoding="utf-8")
                    outputs[f"{name}.printed"] = run("check", str(doc_path))
                _first_weights(doc["payload"])[0] *= 1.1
                doc_path.write_text(dumps(doc), encoding="utf-8")
                outputs[f"{name}.unmet"] = report = run("check", str(doc_path))
                assert json.loads(report)["verdict"] == "hypotheses-unmet", name
    outputs["search.criterion10"] = run(*SEARCH_ARGS)
    probe = make_scenario("mt4", "literal", {"name": "signed_square"}, straddle_probe_mt4())
    doc_path.write_text(dumps(probe), encoding="utf-8")
    outputs["check.straddle_probe"] = run("check", str(doc_path))
    outputs.update(search_outputs())
    return outputs


def search_outputs() -> dict[str, bytes]:
    """(seed_trace, verdict, repr(margin)) of every scenario each search of
    ``SEARCH_REQUESTS`` verifies and does not find hypotheses-unmet."""
    outputs = {}
    for theorem_id, mode, fn, interval, c, seed in SEARCH_REQUESTS:
        results = search_counterexamples(
            model_from_spec(fn_spec_from_string(fn)), theorem_id, mode, SEARCH_BUDGET, seed,
            spec=GenSpec(seed=seed, interval=IntervalR(*interval), c=c),
            report_threshold=-math.inf,
        )
        rows = [(r.seed_trace, r.details["verdict"], repr(r.margin)) for r in results]
        outputs[f"search.{theorem_id}.{mode}.seed{seed}"] = repr(rows).encode()
    return outputs


def _registry_modes() -> dict:
    from jensengap.scenario import THEOREMS

    return {theorem_id: entry.modes for theorem_id, entry in THEOREMS.items()}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reports_are_byte_identical(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    outputs = golden_outputs(_registry_modes(), tmp_path)
    assert sorted(outputs) == sorted(recorded)
    changed = [name for name, data in outputs.items() if _digest(data) != recorded[name]]
    for name in changed:
        print(f"changed: {name}\n{outputs[name].decode()}")
    assert not changed, changed


def test_generator_table_matches_registry():
    from jensengap.scenario import THEOREMS
    from jensengap.scengen import GENERATORS

    assert list(GENERATORS) == list(THEOREMS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(_registry_modes(), Path(tmp))
    text = json.dumps({k: _digest(v) for k, v in outputs.items()}, indent=2, sort_keys=True)
    DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} digests to {DIGESTS}", file=sys.stderr)
