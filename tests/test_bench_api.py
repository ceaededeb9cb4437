"""The benchmark's workloads, run in-process on their tiny instances.

The benchmark (``bench/``) drives emck through its public API and checks
each result against a frozen outcome: it reads ``agreement_sweep(...).passed``,
``verify_*(...).status``, the fields of a ``SearchResult`` and more.  Here
each workload that ``BENCHMARK.json`` lists runs one operation on its first
input, untraced and traced, as ``bench/run.py`` runs it: ``prepare``, then
``op``, then ``settle``, whose traced form also probes the layers under the
operation.  A library change that breaks what the harness reads fails here.
The benchmark's files are imported, never written.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench(monkeypatch):
    """The ``workloads`` and ``tracing`` modules of ``bench/``, imported
    without writing bytecode next to them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    for name in ("workloads", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_a_workload_settles_its_first_operation(bench, name, traced):
    workloads, tracing = bench
    workload = workloads.make(name, tiny=True)
    tracer = tracing.Tracer() if traced else tracing.NULL
    x = workload.prepare(workload.inputs(1)[0])
    counts = Counter()
    assert workload.settle(x, workload.op(x, tracer), tracer, counts) >= 1
    if traced:
        assert tracer.spans
