"""Smoke test of the benchmark: a tiny instance of every workload, untraced
and traced, run through the same command as the benchmark.

    python3 bench/smoke.py

Each run must exit 0, pass its correctness gate with no failed operation,
and print as its last line exactly the metrics BENCHMARK.json lists for its
mode, each with its unit; end-to-end metrics must be nonzero, and every
per-layer metric must be nonzero on at least one workload.  Prints every
metric of every workload.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    exercised = set()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} of {result['attempted']}")
            units = {m["name"]: m["unit"] for m in SPEC[section]}
            printed = {k: v.get("unit") for k, v in result["metrics"].items()}
            if printed != units:
                problems.append(f"{where}: metrics and units {printed} != {units}")
            for name, metric in result["metrics"].items():
                print(f"{workload:20} {name:38} {metric['value']!r} {metric['unit']}")
                if metric["value"]:
                    exercised.add(name)
                elif trace == 0:
                    problems.append(f"{where}: {name} is 0")
    idle = [m["name"] for m in SPEC["per_layer"] if m["name"] not in exercised]
    if idle:
        problems.append(f"per-layer metrics no workload moves: {idle}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
