"""BENCHMARK.json, the code's declarations and the printed result agree."""

import json
import re
from pathlib import Path

from ladderbench import report, rungs, workloads

REPO_ROOT = Path(__file__).resolve().parents[3]
DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_shape():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/ladder"]
    assert DECLARED["command"] == ["python3", "benchmarks/ladder/run.py"]
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert len(json.dumps(DECLARED)) < 64 * 1024


def test_workloads_match_the_code():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in workloads.ALL
    ]
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert set(rungs.BY_WORKLOAD) == set(workloads.BY_NAME)


def test_end_to_end_metrics_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]] == report.END_TO_END
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_per_layer_metrics_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == report.PER_LAYER
    assert all(set(m) == {"name", "unit", "better"} for m in DECLARED["per_layer"])


def test_every_name_and_unit_is_well_formed_and_unique():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")


def test_the_printed_result_names_what_is_declared():
    rows = {name: {"value": 1.5, "unit": unit} for name, unit, _ in report.END_TO_END}
    printed = report.final_json(True, 10, 0, rows)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert list(printed["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert printed["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert report.final_json(True, 0, 0, {})["attempted"] == 1
