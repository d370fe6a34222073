"""BENCHMARK.json and the harness's metric catalogue must agree."""

import json
from pathlib import Path

import run

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_harness():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


def test_workloads_match_the_harness():
    assert tuple(w["name"] for w in BENCH["workloads"]) == run.WORKLOADS


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())


def test_command_fixes_c_ref():
    command = BENCH["command"]
    c_ref = float(command[command.index("--c-ref") + 1])
    assert c_ref > 0
