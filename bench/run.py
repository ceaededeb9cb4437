"""emck benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Runs from the root of a source checkout, with emck imported from ``src/``
(nothing is installed).  The run makes passes over the workload's inputs
until ``--seconds`` have passed, checks every result, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each input is timed by its fastest pass, as ``timeit`` does: on a shared
machine the speed of the same code swings by a quarter over seconds, and
the fastest repeat is the one other processes disturbed least.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` each input runs untraced and then traced, back to back,
and the metrics are the per-layer ones.  Lines before the last one
are comments for people.  The run's environment, result and spans go to
``bench/results/<workload>.trace<0|1>.json``.  ``--tiny`` runs a small
instance of the workload, for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import emck  # noqa: E402

if not Path(emck.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"emck was imported from {emck.__file__}, not from {SRC}")

from tracing import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS, make  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = BENCH / "results"
# fresh interpreters per run, spread over it; setup_s is their median
COLD_STARTS = 9
# passes per run at the least, whatever --seconds says
MIN_PASSES = 2
# tracebacks printed per run; later failures are only counted
SHOWN_ERRORS = 3
# The ROADMAP baseline, as context for the numbers (not a bound): Python
# 3.11.7 on a shared machine, before this benchmark existed.
BASELINE = {
    "tier1_c01_s": 149.4,
    "c01_1m_slice_enumerate_s": 3.80,
    "c01_1m_slice_search_s": 8.65,
}


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)


class Timings:
    """The fastest time of each input over the passes, and the number of
    models it visited."""

    def __init__(self, n: int):
        self.best = [math.inf] * n
        self.items = [0] * n

    def _done(self):
        return [(b, n) for b, n in zip(self.best, self.items) if n]

    def models_per_s(self) -> float:
        done = self._done()
        return sum(n for _, n in done) / sum(b for b, _ in done) if done else 0.0

    def latencies_ms(self) -> list[float]:
        return [b * 1e3 / n for b, n in self._done()]


def run_pass(workload, specs, modes: list, errors: list) -> list[Pass]:
    """One pass over the inputs.  Each mode is a ``(tracer, timings)`` pair;
    every input runs once per mode, back to back, so that traced and
    untraced times of an input meet the same machine speed."""
    passes = [Pass() for _ in modes]
    for i, spec in enumerate(specs):
        for (tracer, timings), done in zip(modes, passes):
            done.attempted += 1
            try:
                x = workload.prepare(spec)
                t0 = perf_counter()
                out = workload.op(x, tracer)
                elapsed = perf_counter() - t0
                timings.items[i] = workload.settle(x, out, tracer, done.counts)
            except Exception:
                done.failed += 1
                if len(errors) < SHOWN_ERRORS:
                    errors.append(traceback.format_exc())
                    print(errors[-1], file=sys.stderr)
                continue
            timings.best[i] = min(timings.best[i], elapsed)
    for (tracer, _), done in zip(modes, passes):
        done.spans = tracer.spans
    return passes


@dataclass
class Run:
    untraced: Timings
    traced: Timings
    passes: list = field(default_factory=list)
    traced_passes: list = field(default_factory=list)
    cold_starts: list = field(default_factory=list)


def measure(workload, specs, seconds: float, trace: bool, cold_start, errors: list) -> Run:
    """Passes over the inputs until the next one would end past ``seconds``;
    with ``trace`` each input runs untraced and then traced.  ``cold_start``,
    unless None, is called COLD_STARTS times spread over the run, so that
    their median is not taken at a single moment's machine speed."""
    run = Run(Timings(len(specs)), Timings(len(specs)))
    start = perf_counter()
    while True:
        modes = [(NULL, run.untraced)] + ([(Tracer(), run.traced)] if trace else [])
        untraced, *traced = run_pass(workload, specs, modes, errors)
        run.passes.append(untraced)
        run.traced_passes += traced
        n = len(run.passes)
        elapsed = perf_counter() - start
        done = n >= MIN_PASSES and elapsed + elapsed / n > seconds
        if cold_start is not None:
            due = COLD_STARTS if done else math.ceil(COLD_STARTS * elapsed / seconds)
            while len(run.cold_starts) < min(due, COLD_STARTS):
                run.cold_starts.append(cold_start())
        if done:
            return run


def percentile(values: list, pct: float | None) -> float:
    """Nearest-rank percentile; ``None`` gives the maximum."""
    ordered = sorted(values)
    if pct is None:
        return ordered[-1]
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def cold_start_s(name: str, seed: int, tiny: bool) -> float:
    argv = [sys.executable, "-I", str(BENCH / "cold_start.py"), name, str(seed)]
    if tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"cold start failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def end_to_end(workload, timings: Timings, setup_s: float) -> dict:
    latencies = timings.latencies_ms()
    return {
        "models_per_s": timings.models_per_s(),
        "model_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "model_ms_tail": percentile(latencies, workload.tail_pct) if latencies else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, untraced: Timings, traced: Timings, passes: list) -> dict:
    """Layer metrics, each from its fastest traced pass; counts from the
    first.  A layer the workload does not call reads 0."""
    metrics = {m["name"]: 0 for m in SPEC["per_layer"]}
    for metric, span in workload.layer_spans.items():
        per_pass = [[s[2] - s[1] for s in p.spans if s[0] == span] for p in passes]
        if metric.endswith("_s"):
            metrics[metric] = min(sum(d) for d in per_pass)
        else:
            scale = 1e3 if metric.endswith("_ms") else 1e6
            means = [sum(d) / len(d) for d in per_pass if d]
            metrics[metric] = scale * min(means) if means else 0.0
    metrics.update(passes[0].counts)
    workload.derived(metrics)
    rate = traced.models_per_s()
    metrics["trace.overhead_frac"] = untraced.models_per_s() / rate - 1 if rate else 0.0
    return metrics


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    env = environment()
    workload = make(args.workload, args.tiny)
    trace = bool(args.trace)
    cold_start = None if trace else partial(cold_start_s, args.workload, args.seed, args.tiny)
    errors: list = []
    specs = workload.inputs(args.seed)
    run = measure(workload, specs, args.seconds, trace, cold_start, errors)
    passes = run.passes + run.traced_passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        metrics = per_layer(workload, run.untraced, run.traced, run.traced_passes)
        section = "per_layer"
    else:
        setup_s = statistics.median(run.cold_starts)
        metrics, section = end_to_end(workload, run.untraced, setup_s), "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {section}")
    samples = len(run.untraced.latencies_ms())
    tail = f"p{workload.tail_pct:g}" if workload.tail_pct is not None else "max"
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}"
        f"{' seedless' if workload.seedless else ''}: {len(specs)} inputs,"
        f" {len(run.passes)} passes{' (+ traced)' if trace else ''}"
    )
    for name in units:
        print(f"#   {name:40} {metrics[name]!r} {units[name]}")
    print(f"#   failed_frac {failed / attempted if attempted else 1.0!r} ({failed} of {attempted})")
    if not trace:
        print(f"#   model_ms_tail is the {tail} over {samples} inputs")
    print(f"# env {json.dumps(env)}")
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": None if workload.seedless else args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": env,
        "baseline_context": BASELINE,
        "tail": {"percentile": tail, "inputs": samples},
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": errors,
        "result": result,
        "cold_starts_s": run.cold_starts,
        "spans": [p.spans for p in run.traced_passes],
    }
    (RESULTS / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
