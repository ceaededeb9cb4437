"""Cold start of one workload: in a fresh interpreter, import emck, build the
workload's components up to its first model, and print the seconds taken.

    python3 -I bench/cold_start.py WORKLOAD SEED [--tiny]
"""

import os
import sys
import time

t0 = time.perf_counter()
bench = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(bench), "src"), bench]

import workloads  # noqa: E402  (imports emck: part of the cold start)

workloads.make(sys.argv[1], "--tiny" in sys.argv).first_model(int(sys.argv[2]))
print(time.perf_counter() - t0)
