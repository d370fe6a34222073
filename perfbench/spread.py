"""Run-to-run spread of the end-to-end metrics, the benchmark's steadiness check.

Run from the repository root::

    python3 perfbench/spread.py --seeds 1-10 --label set-1

For every workload in ``BENCHMARK.json`` and every seed, runs the
benchmark's command once (one process at a time, untraced) and reports
per metric the median of the runs and their spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median, the figure each metric's ``bound`` is checked
against. With ``--out``, the set is stored under ``--label`` in that
JSON file (``perfbench/SPREADS.json`` holds the committed sets).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--label", default="latest")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            command = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: failed\n{done.stderr[-2000:]}", file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()), flush=True)
        report[name] = {
            metric: {"median": statistics.median(v), "spread": spread(v), "bound": bounds[metric], "runs": len(v)}
            for metric, v in values.items()
        }
        for metric, row in report[name].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {name:7s} {metric:12s} median {row['median']:.5g} spread {row['spread']:.4f} bound {row['bound']}{flag}")
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.label] = {"seeds": args.seeds, "workloads": report}
        args.out.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
