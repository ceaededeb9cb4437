"""Every committed benchmark record ``BENCH_<n>.json`` is self-consistent.

A record holds alternating pairs of parent and change runs per workload:
the seeds, every run's value per end-to-end metric, and the statistics
read from those runs.  Each statistic must be the one its runs give, so a
record cannot claim a median or a win count that its runs do not show.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def test_there_are_records():
    assert [p.name for p in RECORDS][:3] == ["BENCH_22.json", "BENCH_24.json", "BENCH_26.json"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_is_read_from_its_runs(path):
    record = json.loads(path.read_text())
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    if "claim" in record:
        claim = record["claim"]
        assert claim["workload"] in record["workloads"]
        assert claim["metric"] in record["workloads"][claim["workload"]]["metrics"]
    for workload, entry in record["workloads"].items():
        pairs = entry["pairs"]
        assert pairs == len(entry["seeds"]) == len(set(entry["seeds"])), workload
        assert set(entry["failed"]) == set(entry["attempted"]) == {"parent", "change"}
        assert set(entry["metrics"]) <= set(METRICS), workload
        for name, metric in entry["metrics"].items():
            where = (workload, name)
            declared = METRICS[name]
            assert [metric[k] for k in ("unit", "better", "bound")] == [
                declared[k] for k in ("unit", "better", "bound")
            ], where
            for side in ("parent", "change"):
                runs = metric[f"{side}_runs"]
                assert len(runs) == pairs, where
                q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert metric[side] == {
                    "median": statistics.median(runs), "q1": q1, "q3": q3
                }, (where, side)
            parent, change = metric["parent"], metric["change"]
            assert metric["change_over_parent"] == change["median"] / parent["median"], where
            assert metric["parent_iqr"] == parent["q3"] - parent["q1"], where
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(
                sign * (c - p) > 0 for p, c in zip(metric["parent_runs"], metric["change_runs"])
            )
            assert metric["change_better_pairs"] == wins, where
