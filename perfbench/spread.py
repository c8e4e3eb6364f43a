"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload service_mixed --runs 10
    python3 perfbench/spread.py --workload service_mixed --first-seed 11

Runs ``run.py`` untraced for ``run_seconds`` once per seed (1..runs, or
from ``--first-seed``; a second set with other seeds shows whether the
medians repeat) and prints, per metric, the median, the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), and that share against the
metric's bound in ``BENCHMARK.json``.  A spread over a third of its bound
is marked; a failed or incorrect run stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stdout)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f}s "
              + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    print(f"run wall: median {statistics.median(walls):.1f}s, "
          f"max {max(walls):.1f}s")
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds[name]
        mark = "" if spread <= bound / 3 else "  <-- wide"
        print(f"{name:32s} median {mid:12.5g}  spread {spread:6.3f}"
              f"  bound {bound}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
