#!/usr/bin/env python3
"""Aggregate paired benchmark runs of two commits into one BENCH record.

    python3 scripts/bench_record.py --parent DIR --change DIR --out BENCH_1.json \
        --note "how the runs were made"

Each DIR holds the ``result-<workload>-s<seed>-t0.json`` files that
``perfbench/run.py --trace 0`` wrote for one commit. Runs are paired by
workload and seed. For every end-to-end metric of ``BENCHMARK.json`` the
record gives each side's median and quartiles (inclusive method), the
change/parent ratio of the medians, and in how many pairs the change was
better, worse or tied; it also keeps every run's value, the quality
readouts per seed and the environment block of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_side(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("result-*-t0.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        runs[(report["workload"], report["seed"])] = report
    return runs


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    p, c = summary(parent), summary(change)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": p,
        "change": c,
        "median_ratio": c["median"] / p["median"] if p["median"] else None,
        "change_better": sum(d > 0 for d in diffs),
        "change_worse": sum(d < 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="",
                        help="how the runs were made: commits, run order, machine")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_side(args.parent), load_side(args.change)
    keys = sorted(parent.keys() & change.keys())
    record = {"note": args.note, "seconds": None, "env": None, "workloads": {}}
    for workload in [w["name"] for w in benchmark["workloads"]]:
        seeds = [seed for name, seed in keys if name == workload]
        if not seeds:
            continue
        if len(seeds) < 2:
            parser.error(f"{workload}: quartiles need at least two pairs, found one")
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        record["seconds"] = pairs[0][0]["seconds"]
        record["env"] = {"parent": pairs[0][0]["env"], "change": pairs[0][1]["env"]}
        metrics = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            metrics[name] = compare(
                metric,
                [p["result"]["metrics"][name]["value"] for p, _ in pairs],
                [c["result"]["metrics"][name]["value"] for _, c in pairs],
            )
        record["workloads"][workload] = {
            "seeds": seeds,
            "failed": {"parent": sum(p["result"]["failed"] for p, _ in pairs),
                       "change": sum(c["result"]["failed"] for _, c in pairs)},
            "attempted": {"parent": sum(p["result"]["attempted"] for p, _ in pairs),
                          "change": sum(c["result"]["attempted"] for _, c in pairs)},
            "quality_identical": all(p["readout"] == c["readout"] for p, c in pairs),
            "readouts": {str(s): {"parent": p["readout"], "change": c["readout"]}
                         for s, (p, c) in zip(seeds, pairs)},
            "metrics": metrics,
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
