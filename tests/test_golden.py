"""Golden reports: `check` and `search` output must stay byte-identical.

For every (theorem id, mode) in the registry, three generated documents
with the CLI default function are checked as generated, and again with the
first weight of their first functional or group scaled by 1.1, which breaks
a mass constraint and must come back hypotheses-unmet.  The SHA-256 digest
of each output is compared with the one recorded in golden_reports.json.

After a deliberate change of the output, rewrite the recorded digests with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from jensengap.cli import main
from jensengap.scenario import dumps, make_scenario
from jensengap.scengen import straddle_probe_mt4

DIGESTS = Path(__file__).with_name("golden_reports.json")
SEEDS = (1, 2, 3)
#: the search document of acceptance criterion 10
SEARCH_ARGS = [
    "search", "--theorem", "mt4", "--mode", "literal", "--fn", "signed_square",
    "--interval=-3,3", "--budget", "25", "--seed", "3",
]


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
            for seed in SEEDS:
                name = f"{theorem_id}.{mode}.seed{seed}"
                gen = ["gen", "--theorem", theorem_id, "--mode", mode, "--seed", str(seed)]
                assert main([*gen, "--out", str(doc_path)]) == 0, name
                outputs[name] = run("check", str(doc_path))
                doc = json.loads(doc_path.read_text())
                _first_weights(doc["payload"])[0] *= 1.1
                doc_path.write_text(dumps(doc))
                outputs[f"{name}.unmet"] = report = run("check", str(doc_path))
                assert json.loads(report)["verdict"] == "hypotheses-unmet", name
    outputs["search.criterion10"] = run(*SEARCH_ARGS)
    probe = make_scenario("mt4", "literal", {"name": "signed_square"}, straddle_probe_mt4())
    doc_path.write_text(dumps(probe))
    outputs["check.straddle_probe"] = run("check", str(doc_path))
    return outputs


def _registry_modes() -> dict:
    from jensengap.scenario import THEOREMS

    return {theorem_id: entry.modes for theorem_id, entry in THEOREMS.items()}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reports_are_byte_identical(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
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
    DIGESTS.write_text(text + "\n")
    print(f"wrote {len(outputs)} digests to {DIGESTS}", file=sys.stderr)
