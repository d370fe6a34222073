"""Every workload end to end on shrunken inputs, untraced and traced."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--c-ref", "0.0035", "--seed", "3", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_passes_its_oracle_and_reports_every_metric(workload, trace):
    result = _run("--smoke", "--workload", workload, "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_layers_have_the_designed_shares():
    # Full-size inputs: the shrunken ones shift the balance toward training.
    shares = {}
    for workload in run.WORKLOADS:
        metrics = _run("--workload", workload, "--seconds", "1", "--trace", "1")["metrics"]
        shares[workload] = {k: v["value"] for k, v in metrics.items() if k.endswith(".share")}
    ingest, replay = shares["ingest"], shares["replay"]
    assert ingest["simulate.share"] == max(ingest.values())
    assert ingest["forecast.share"] == ingest["learner.share"] == 0.0
    assert replay["forecast.share"] + replay["learner.share"] == max(
        replay["forecast.share"] + replay["learner.share"],
        *(v for k, v in replay.items() if k not in ("forecast.share", "learner.share")),
    )
    assert replay["simulate.share"] == shares["serve"]["simulate.share"] == 0.0
