"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_analytic --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``cli_analytic``, ``cli_strategy`` (cold ``python -m repro
eval`` processes) and ``service_mixed`` (open-loop HTTP traffic against
``python -m repro serve``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` launches the same commands through ``shim.py`` and reports
the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run's details (machine fingerprint, sample counts, tail
percentile, failed checks).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cli_workloads  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import service_workload  # noqa: E402

END_TO_END = (("setup_s", "s"), ("eval_wall_s", "s"), ("warm_wall_s", "s"),
              ("p50_ms", "ms"), ("tail_ms", "ms"), ("etl_wall_s", "s"))
WORKLOADS = (*cli_workloads.WORKLOADS, "service_mixed")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "service_mixed":
        return service_workload.run(seed, seconds, trace)
    return cli_workloads.run(cli_workloads.WORKLOADS[name], seed, seconds,
                             trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers: the handlers' finally
    # blocks run on SystemExit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        common.check_checkout()
        common.fresh_workdir()
        common.build()
        stamp = common.fingerprint()
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except common.BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    ops, values = outcome["ops"], outcome["metrics"]
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    if set(values) != set(units):
        sys.stderr.write(f"perfbench: metric set mismatch: "
                         f"{sorted(set(values) ^ set(units))}\n")
        return 3
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fingerprint": stamp,
              "failures": ops.failures,
              "pace_ms_median": 1e3 * common.median(common.PACES),
              **outcome["detail"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ops.failed == 0 and outcome["detail"].get("valid", True),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
