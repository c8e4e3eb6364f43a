"""Shared harness pieces: the pinned program environment, the host pace,
timed launches, order statistics and the bit-identity comparison.

The harness itself is stdlib only; it never imports ``repro``.  Every
program process is launched from the root of the checkout with
``PYTHONPATH=src`` and BLAS pinned to one thread.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected")
SHIM = os.path.join(HERE, "shim.py")

#: Without this pin OpenBLAS splits the dense LU across threads, which
#: reorders reductions and moves analytic cells by 1-2 ulp.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

#: Upper limit on any single program process; a hang fails the run.
PROCESS_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken checkout)."""


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro/__main__.py "
                         "is missing (run from the root of a checkout)")


def fresh_workdir() -> str:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    return WORK


def work_path(*parts: str) -> str:
    return os.path.join(WORK, *parts)


def write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build() -> None:
    """Byte-compile the program so no timed process pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL,
                   timeout=PROCESS_TIMEOUT_S)


def fingerprint() -> Dict[str, object]:
    """What makes numbers comparable: versions, BLAS, CPUs, python."""
    probe = (
        "import json, os, platform, numpy, scipy\n"
        "blas = 'unknown'\n"
        "try:\n"
        "    deps = numpy.show_config(mode='dicts')['Build Dependencies']\n"
        "    blas = '%s %s' % (deps['blas'].get('name'),"
        " deps['blas'].get('version'))\n"
        "except Exception:\n"
        "    pass\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': "
        "scipy.__version__, 'blas': blas, 'nproc': os.cpu_count(), "
        "'python': platform.python_version()}))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=program_env(),
                         capture_output=True, text=True, check=True,
                         timeout=PROCESS_TIMEOUT_S)
    stamp = json.loads(out.stdout)
    stamp["threads"] = dict(PINNED_THREADS)
    return stamp


class Ops:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] = self.failures.get(what, 0) + 1
        return ok


def numeric_floor(repeats: int = 3) -> float:
    """Median in-process import time of the numeric stack alone."""
    probe = ("import time; t = time.perf_counter(); "
             "import numpy, scipy.linalg, scipy.sparse.linalg; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", probe], env=program_env(),
                             capture_output=True, text=True, check=True,
                             timeout=PROCESS_TIMEOUT_S)
        times.append(float(out.stdout))
    return median(times)


# ------------------------------------------------------------------ host pace
#: The reference VM (2 vCPUs of a shared host) runs at one of two speeds
#: about 1.5x apart, in spells of seconds to minutes.  A wall time read in
#: a slow spell is up to 1.5x longer, and no statistic over one run removes
#: a spell longer than the run: ten-seed spreads of median walls were
#: 0.2-0.29 of the median.  So every timed operation is bracketed by two
#: readings of a fixed pure-Python loop, the pace, and reported as its wall
#: scaled to the loop's time in the VM's fast state,
#: ``wall * PACE_REF_S / mean(pace before, pace after)``.  Ten-seed
#: spreads of the paced figures were 0.03-0.14.  The program is never part
#: of the loop, so a slower program still reads slower.
PACE_REF_S = 0.009
PACE_ITERATIONS = 150_000

#: Every pace read in this run, for the detail line.
PACES: List[float] = []


def pace() -> float:
    """The host's current pace: the median of five runs of a fixed loop,
    so a stall during one of them does not count."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(PACE_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - start)
    PACES.append(median(times))
    return PACES[-1]


def pace_scale(before: float, after: float) -> float:
    """Factor from a wall read between paces *before* and *after* to the
    reference pace."""
    return 2.0 * PACE_REF_S / (before + after)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts from now on, on one
    CPU, so a pace reading and the process it brackets see the same CPU's
    speed (the VM's two vCPUs change speed separately)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Launcher:
    """Starts ``python -m repro`` processes, optionally through the shim.

    Traced launches write their spans to ``<WORK>/spans/<n>-<label>.json``;
    the caller collects them with :meth:`traces`.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.launched = 0
        self._span_dir = work_path("spans")
        os.makedirs(self._span_dir, exist_ok=True)

    def argv(self, args: Sequence[str], label: str,
             trace: Optional[bool] = None) -> List[str]:
        if not (self.trace if trace is None else trace):
            return [sys.executable, "-m", "repro", *args]
        out = os.path.join(self._span_dir, f"{self.launched:04d}-{label}.json")
        return [sys.executable, SHIM, out, *args]

    def run(self, args: Sequence[str], label: str, *,
            trace: Optional[bool] = None
            ) -> Tuple[float, subprocess.CompletedProcess]:
        """Run one process to completion; return (paced wall seconds,
        result)."""
        argv = self.argv(args, label, trace)
        self.launched += 1
        before = pace()
        start = time.perf_counter()
        proc = subprocess.run(argv, env=program_env(), capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
        wall = time.perf_counter() - start
        wall *= pace_scale(before, pace())
        if proc.returncode != 0:
            sys.stderr.write(f"[perfbench] exit {proc.returncode}: "
                             f"{' '.join(args)}\n{proc.stderr[-2000:]}\n")
        return wall, proc

    def traces(self) -> List[Dict[str, object]]:
        """Every traced process's span file, in launch order, labelled."""
        traces = []
        for name in sorted(os.listdir(self._span_dir)):
            trace = read_json(os.path.join(self._span_dir, name))
            trace["label"] = name[5:-len(".json")]
            traces.append(trace)
        return traces


# ----------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0 <= q <= 100."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it
    (fewer than twenty samples); the tail is then the maximum.
    """
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """(label, value) of the tail by :func:`tail_percentile`'s rule."""
    q = tail_percentile(len(values))
    if q is None:
        return "max", float(max(values))
    return f"p{q:g}", percentile(values, q)


# -------------------------------------------------------------- bit identity
def hex_metrics(metrics: Dict[str, float]) -> Dict[str, str]:
    return {name: float(value).hex() for name, value in metrics.items()}


def count_mismatches(expected: Sequence[Dict[str, str]],
                     got: Sequence[Dict[str, float]]) -> int:
    """Cells whose metrics are not ``float.hex``-equal to *expected*."""
    if len(expected) != len(got):
        return max(len(expected), len(got))
    return sum(hex_metrics(g) != e for e, g in zip(expected, got))


def loaded_cells(stdout: str) -> int:
    """Cells a ``repro query load`` reported inserting (-1: no report)."""
    found = re.search(r"\[query load\] (\d+) cell\(s\) loaded", stdout)
    return int(found.group(1)) if found else -1


def served_from_store(stdout: str) -> int:
    """Cells an ``eval --store`` reported serving from the store (-1: no
    report)."""
    found = re.search(r"; (\d+) served from the store", stdout)
    return int(found.group(1)) if found else -1


def eval_output_metrics(path: str) -> List[Dict[str, float]]:
    """Per-cell metric dicts of a ``repro eval -o`` file, in cell order
    (empty when the process wrote none)."""
    if not os.path.isfile(path):
        return []
    return [dict(e["metrics"]) for e in read_json(path)["evaluations"]]


def all_finite(metrics: Sequence[Dict[str, float]]) -> bool:
    return bool(metrics) and all(math.isfinite(v) for m in metrics
                                 for v in m.values())


def expected_hex(name: str) -> List[Dict[str, str]]:
    return read_json(os.path.join(EXPECTED, name))["metrics_hex"]
