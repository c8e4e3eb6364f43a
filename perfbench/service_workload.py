"""``service_mixed``: seeded open-loop traffic against ``repro serve``.

The server runs ``--backend process --workers 2 --lru-size 256`` on a
fresh store.  One run is:

* set-up: five server spawns, each timed from launch to its "listening"
  line (``setup_s``); the last one serves the run;
* four segments.  Each opens with a cold round that POSTs the next two
  128-cell sweeps of an 8 n x 128 lam grid of analytic cells
  (``eval_wall_s``: the eight POSTs' summed wall), then the 32 hot
  cells;
* the open loop, ``--seconds`` in all, split over the segments: Poisson
  arrivals at 30 events/s over two keep-alive connections from one
  asyncio process.  Events are 56 % hot cells, 30 % grid cells, 12 %
  fresh analytic cells, 1 % fresh seeded ``mc`` cells and 1 % pairs of
  overlapping 16-cell sweeps, one per connection.  Latency runs from each
  request's due time, so it includes the wait for a free connection
  (``p50_ms``, ``tail_ms``);
* the server is stopped.  On one CPU, ``query load`` reads its store
  into three fresh warehouses (``etl_wall_s``) and once more into the last
  one; then ``repro eval --store`` puts the first grid sweep into the
  service's store (the CLI keys cells apart from the service) and re-runs
  it three times, every cell a hit among the objects the service wrote
  (``warm_wall_s``).  Timing single store hits over HTTP instead (under a
  millisecond each) spread by a quarter from run to run even when paced.

Every reported time but the open-loop latencies is paced: scaled to the
reference pace of the host (see ``common.pace``).

Checks: every response is 200 and ``/v1/stats`` reports no errors; every
repeated cell key returns the same bits from whichever layer served it;
sampled hot, grid, fresh and mc cells are ``float.hex``-equal to a direct
``repro.evaluate``; the warehouse holds every stored cell and a second
load inserts none.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import common
import layers

RATE_PER_S = 30.0
CONNECTIONS = 2
LRU_SIZE = 256
LATENCY_LIMIT_S = 0.25
#: A run whose generator sent its 99th-percentile request later than this
#: measured the generator, not the service: it is marked invalid.
LATE_LIMIT_MS = 100.0
#: Event shares; the first kind takes the rounding remainder.  Sweep
#: events send two requests, so per request the mix is 85 % cache hits,
#: 12 % lone misses, 1 % mc and 2 % sweeps: the median falls inside the
#: cache-hit cluster and p90 inside the miss cluster.  With 60 % hits the
#: median sat on the edge between the two and moved by half between runs;
#: with more misses the process pool saturated.
MIX = (("hot", 0.56), ("warm", 0.30), ("fresh", 0.12), ("mc", 0.0067),
       ("sweep", 0.0067))
GRID_N = tuple(range(2, 10))
GRID_LAMS = 128
HOT_N = (2, 3, 4, 5)
HOT_LAMS = 8
MC_REPS = 2000
SWEEP_N = 6
SWEEP_CELLS = 16
SAMPLES_PER_KIND = 4
SETUP_SPAWNS = 5
#: Open-loop segments, each opened by a cold round of grid POSTs.
SEGMENTS = 4
CLOSED_LOOP_REQUESTS = 300
#: Fresh warehouse loads of the run's store (``etl_wall_s`` is their median).
ETL_LOADS = 3
#: ``repro eval --store`` re-runs of a grid sweep after the service.
WARM_RUNS = 3
REQUEST_TIMEOUT_S = 30.0
SPAWN_TIMEOUT_S = 60.0


def cell_spec(n: int, lam: float) -> Dict[str, object]:
    return {"system": {"kind": "symmetric", "n": n, "mu": 1.0, "lam": lam},
            "metrics": ["mean"]}


def sweep_spec(n: int, lams: List[float]) -> Dict[str, object]:
    return {**cell_spec(n, lams[0]), "sweep": {"lam": list(lams)}}


@dataclass
class Request:
    due: float
    kind: str
    spec: Dict[str, object]
    method: str = "auto"
    rid: str = ""


@dataclass
class Inputs:
    grid: List[Dict[str, object]]          # one cold sweep per n
    hot: Dict[str, object]                 # the 32 hot cells, one sweep
    schedule: List[Request]
    closed: List[Request]


def segment_mix(events: int) -> Dict[str, int]:
    """Exact event count of each kind in a segment of *events* events;
    every kind occurs at least once, so short runs still check all."""
    counts = {kind: max(1, round(weight * events)) for kind, weight in MIX[1:]}
    return {MIX[0][0]: events - sum(counts.values()), **counts}


def build_inputs(seed: int, seconds: float) -> Inputs:
    """Everything the run sends, derived from *seed* alone."""
    rng = random.Random(seed)
    offset = rng.random() * 0.01
    grid_lams = [round(0.3 + 0.01 * i + offset, 9) for i in range(GRID_LAMS)]
    hot_lams = [round(rng.uniform(0.2, 1.5), 9) for _ in range(HOT_LAMS)]
    sweep_lams = [round(2.0 + 0.01 * i + offset, 9) for i in range(10000)]
    hot_cells = [(n, lam) for n in HOT_N for lam in hot_lams]
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    sweeps = 0

    def event(due: float, kind: str, posted: Tuple[int, ...] = GRID_N
              ) -> List[Request]:
        nonlocal sweeps
        if kind == "hot":
            return [Request(due, kind, cell_spec(*rng.choice(hot_cells)))]
        if kind == "warm":
            return [Request(due, kind, cell_spec(rng.choice(posted),
                                                 rng.choice(grid_lams)))]
        if kind == "fresh":
            return [Request(due, kind, cell_spec(
                rng.randint(3, 8), round(rng.uniform(0.2, 2.0), 9)))]
        if kind == "mc":
            spec = {**cell_spec(3, round(rng.uniform(0.2, 2.0), 9)),
                    "seed": rng.randint(1, 2 ** 31), "reps": MC_REPS}
            return [Request(due, kind, spec, method="mc")]
        # Two overlapping sweeps at once, one per connection: the shared
        # half is computed once (single flight), the next pair meets the
        # rest in the LRU.
        start = SWEEP_CELLS * sweeps
        sweeps += 1
        return [Request(due, kind, sweep_spec(
            SWEEP_N, sweep_lams[first:first + SWEEP_CELLS]))
            for first in (start, start + SWEEP_CELLS // 2)]

    # Per segment, a Poisson process conditioned on its event count:
    # uniform arrival times and an exact mix, shuffled by the seed.  Letting
    # the mix itself vary moved p50 by 2x between seeds (the sweep pairs'
    # share sets how often cache hits queue behind them), which is noise,
    # not signal; equal segments also share one tail percentile.
    span = seconds / SEGMENTS
    events = round(RATE_PER_S * span)
    schedule = []
    for segment in range(SEGMENTS):
        mix = [kind for kind, count in segment_mix(events).items()
               for _ in range(count)]
        rng.shuffle(mix)
        dues = sorted(rng.uniform(segment * span, (segment + 1) * span)
                      for _ in mix)
        posted = GRID_N[:(segment + 1) * len(GRID_N) // SEGMENTS]
        schedule += [r for due, kind in zip(dues, mix)
                     for r in event(due, kind, posted)]
    closed = []
    while len(closed) < CLOSED_LOOP_REQUESTS:
        closed.extend(event(0.0, rng.choices(kinds, weights)[0]))
    for prefix, requests in (("ol", schedule), ("cl", closed)):
        for index, request in enumerate(requests):
            request.rid = f"{prefix}-{index}-{request.kind}"
    return Inputs(grid=[sweep_spec(n, grid_lams) for n in GRID_N],
                  hot={**cell_spec(HOT_N[0], hot_lams[0]),
                       "sweep": {"n": list(HOT_N), "lam": hot_lams}},
                  schedule=schedule, closed=closed)


# ------------------------------------------------------------------- client
class HttpConnection:
    """A keep-alive HTTP/1.1 JSON connection (Content-Length framing)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str,
                      payload: Optional[Dict] = None,
                      request_id: str = "") -> Tuple[int, Dict]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Request-Id: {request_id}\r\n\r\n").encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            await self.close()
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        data = await self._reader.readexactly(
            int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, json.loads(data)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
        self._reader = self._writer = None


@dataclass
class Outcome:
    request: Request
    status: int
    latency: float = 0.0          # from due time to the full response
    conn_wait: float = 0.0        # from due time to holding a connection
    late: float = 0.0             # how late the generator dispatched it
    cells: List[Dict] = field(default_factory=list)


async def _send(pool: asyncio.Queue, request: Request, due: float,
                late: float) -> Outcome:
    connection = await pool.get()
    got = time.perf_counter()
    try:
        status, payload = await asyncio.wait_for(
            connection.request("POST", "/v1/evaluate",
                               {"spec": request.spec,
                                "method": request.method},
                               request.rid), REQUEST_TIMEOUT_S)
    except (OSError, EOFError, ValueError, IndexError,
            asyncio.TimeoutError) as exc:
        sys.stderr.write(f"[perfbench] {request.rid}: {exc!r}\n")
        await connection.close()
        status, payload = 0, {}
    finally:
        pool.put_nowait(connection)
    done = time.perf_counter()
    return Outcome(request, status, done - due, got - due, late,
                   payload.get("cells", []) if status == 200 else [])


def _pool(port: int) -> asyncio.Queue:
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(CONNECTIONS):
        pool.put_nowait(HttpConnection("127.0.0.1", port))
    return pool


async def _drain_pool(pool: asyncio.Queue) -> None:
    while not pool.empty():
        await pool.get_nowait().close()


async def open_loop(port: int, schedule: List[Request],
                    offset: float = 0.0) -> List[Outcome]:
    """Send *schedule* on time, whatever the server's state; due times
    count from *offset*."""
    pool = _pool(port)
    tasks = []
    start = time.perf_counter() + 0.05 - offset
    try:
        for request in schedule:
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late = max(0.0, time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(
                _send(pool, request, due, late)))
        return list(await asyncio.gather(*tasks))
    finally:
        await _drain_pool(pool)


async def closed_loop(port: int, requests: List[Request]
                      ) -> Tuple[List[Outcome], float]:
    """Each connection sends its next request when the last one returns."""
    pool = _pool(port)
    queue = list(reversed(requests))
    outcomes: List[Outcome] = []

    async def client() -> None:
        while queue:
            request = queue.pop()
            outcomes.append(await _send(pool, request, time.perf_counter(),
                                        0.0))

    start = time.perf_counter()
    try:
        await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    finally:
        await _drain_pool(pool)
    return outcomes, time.perf_counter() - start


async def sequential(port: int, requests: List[Request]) -> List[Outcome]:
    """Send one request at a time; each outcome's latency is its wall."""
    pool = _pool(port)
    try:
        return [await _send(pool, request, time.perf_counter(), 0.0)
                for request in requests]
    finally:
        await _drain_pool(pool)


async def paced(sending) -> Tuple[List[float], List[Outcome]]:
    """Await *sending* between two readings of the host's pace; the
    outcomes' latencies scaled to the reference pace (``common.pace``),
    and the outcomes."""
    before = common.pace()
    outcomes = await sending
    scale = common.pace_scale(before, common.pace())
    return [o.latency * scale for o in outcomes], outcomes


async def get_stats(port: int) -> Dict:
    connection = HttpConnection("127.0.0.1", port)
    try:
        status, payload = await connection.request("GET", "/v1/stats")
    finally:
        await connection.close()
    return payload if status == 200 else {}


# ------------------------------------------------------------------- server
def _default_sigint() -> None:
    """Give the server the default SIGINT, even when this harness was
    started with SIGINT ignored (as a background job is); ``repro serve``
    shuts down cleanly only on KeyboardInterrupt."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro serve`` process with its output in files."""

    def __init__(self, launcher: common.Launcher, name: str, label: str,
                 trace: Optional[bool] = None) -> None:
        self.store = common.work_path(f"{name}-store")
        self._out = common.work_path(f"{name}.out")
        args = ["serve", "--port", "0", "--backend", "process",
                "--workers", str(CONNECTIONS), "--lru-size", str(LRU_SIZE),
                "--store", self.store]
        with open(self._out, "wb") as out:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                launcher.argv(args, label, trace), env=common.program_env(),
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
                preexec_fn=_default_sigint)
        launcher.launched += 1
        self.port = 0
        self.startup_s = 0.0

    def wait_listening(self) -> bool:
        deadline = self.started + SPAWN_TIMEOUT_S
        while time.perf_counter() < deadline:
            with open(self._out, "r", encoding="utf-8",
                      errors="replace") as handle:
                found = re.search(r"listening on http://[^:]+:(\d+)",
                                  handle.read())
            if found:
                self.startup_s = time.perf_counter() - self.started
                self.port = int(found.group(1))
                return True
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        return False

    def stop(self) -> bool:
        """SIGINT (the server drains and exits 0); kill if it hangs.

        The server runs in its own session, so whatever it leaves behind,
        such as pool workers of a batch cut short, is killed with it.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SPAWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return self.proc.returncode == 0


def count_store_cells(root: str) -> int:
    return sum(name.endswith(".json") for path, _dirs, names in os.walk(root)
               if os.sep + "objects" in path for name in names)


def _hexify(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_hexify(v) for v in value]
    if isinstance(value, dict):
        return {k: _hexify(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------- run
def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    launcher = common.Launcher(trace)
    ops = common.Ops()
    inputs = build_inputs(seed, seconds)

    setup, servers = [], []
    try:
        for index in range(SETUP_SPAWNS):
            last = index == SETUP_SPAWNS - 1
            before = common.pace()
            server = Server(launcher, f"server-{index}",
                            "serve" if last else "setup")
            servers.append(server)
            ops.record(server.wait_listening(), "server start")
            setup.append(server.startup_s
                         * common.pace_scale(before, common.pace()))
            if not last:
                ops.record(server.stop(), "server stop")
        server = servers[-1]
        if not server.port:
            raise common.BenchError("the server did not start")
        result = asyncio.run(_traffic(server.port, inputs, seconds, trace,
                                       ops))
        ops.record(server.stop(), "server stop")
        if trace:
            result["untraced_cold"] = _untraced_cold(launcher, inputs, ops)
    finally:
        for spawned in servers:
            spawned.stop()

    server = servers[-1]
    # Only single-threaded processes from here on (see pin_to_one_cpu).
    common.pin_to_one_cpu()
    etl = []
    for index in range(ETL_LOADS):
        db = common.work_path(f"warehouse-{index}.sqlite")
        wall, proc = launcher.run(["query", "load", "--store", server.store,
                                   "--db", db], "etl")
        etl.append(wall)
        ops.record(proc.returncode == 0 and common.loaded_cells(proc.stdout)
                   == count_store_cells(server.store), "etl load")
    _, proc = launcher.run(["query", "load", "--store", server.store,
                            "--db", db], "etl")
    ops.record(proc.returncode == 0 and common.loaded_cells(proc.stdout) == 0,
               "etl reload inserts nothing")
    warm = _warm_reruns(launcher, inputs.grid[0], server.store, ops)
    _check_against_direct(result["samples"], ops)

    outcomes = result["open"]
    # p50 and tail per segment, then the median over segments: a few
    # seconds of a slow machine move one segment, not the run's figure.
    # Unlike the other times these are not paced: a lone miss waits on the
    # service's batching timer, which does not scale with the host's speed.
    segments = result["latencies"]
    tails = [common.tail(latencies) for latencies in segments]
    tail_label = tails[0][0]
    late_p99_ms = 1e3 * common.percentile([o.late for o in outcomes], 99)
    by_kind: Dict[str, List[float]] = {}
    for outcome in outcomes:
        by_kind.setdefault(outcome.request.kind, []).append(outcome.latency)
    detail = {"requests": len(outcomes),
              "requests_per_segment": [len(x) for x in segments],
              "tail_percentile": tail_label,
              "segment_p50_ms": [1e3 * common.median(x) for x in segments],
              "segment_tail_ms": [1e3 * value for _, value in tails],
              "cold_s": result["cold"],
              "warm_s": warm,
              "p50_ms_by_kind": {kind: 1e3 * common.median(values)
                                 for kind, values in sorted(by_kind.items())},
              "conn_wait_ms_p50": 1e3 * common.median(
                  [o.conn_wait for o in outcomes]),
              "late_ms_p99": late_p99_ms,
              "valid": late_p99_ms <= LATE_LIMIT_MS}
    if not trace:
        metrics = {
            "setup_s": common.median(setup),
            # The sweeps differ in n, so a median of eight is decided by
            # two of them; their sum uses all eight.
            "eval_wall_s": sum(result["cold"]),
            "warm_wall_s": common.median(warm),
            "p50_ms": 1e3 * common.median([common.median(latencies)
                                           for latencies in segments]),
            "tail_ms": 1e3 * common.median([value for _, value in tails]),
            "etl_wall_s": common.median(etl),
        }
        return {"ops": ops, "metrics": metrics, "detail": detail}

    traces = launcher.traces()
    detail["unpatched"] = layers.unpatched(traces)
    # Layer costs of the server are those of the open-loop requests; the
    # cold rounds would otherwise dominate every per-call figure.
    for recorded in traces:
        if recorded["label"] == "serve":
            recorded["spans"] = [s for s in recorded["spans"]
                                 if (s[2] or "").startswith("ol-")]
    metrics = layers.from_traces(traces, "serve", "analytic",
                                 per_call=True)
    stats = result["stats"]
    lru = stats.get("lru", {})
    lookups = lru.get("hits", 0) + lru.get("misses", 0)
    served = [o for o in outcomes if o.status == 200]
    submits = {s[2]: s[5] - s[4] for t in traces if t["label"] == "serve"
               for s in t["spans"] if s[3] == "service.submit"}
    # Client time holding a connection, minus server-side submit time.
    overheads = [o.latency - o.conn_wait - submits[o.request.rid]
                 for o in served if o.request.rid in submits]
    metrics.update({
        "import.numeric_floor_s": common.numeric_floor(),
        "service.lru_hit_ratio": lru.get("hits", 0) / lookups if lookups
        else 0.0,
        "service.dedup_hit_rate": stats.get("dedup_hit_rate", 0.0),
        "service.batch_occupancy": stats.get("batching", {}).get(
            "mean_occupancy", 0.0),
        "service.dispatches": stats.get("dispatches", 0),
        "service.prefill_s": result["prefill_s"],
        "service.goodput_rps": sum(o.latency <= LATENCY_LIMIT_S
                                   for o in served) / seconds,
        "service.capacity_rps": result["capacity_rps"],
        "http.overhead_ms_mean": 1e3 * sum(overheads) / len(overheads)
        if overheads else 0.0,
        "gen.late_ms_p99": late_p99_ms,
        "gen.conn_wait_ms_p50": 1e3 * common.median(
            [o.conn_wait for o in outcomes]),
        "trace.overhead_pct": 100.0 * (sum(result["cold"])
                                       - result["untraced_cold"])
        / result["untraced_cold"],
    })
    return {"ops": ops, "metrics": metrics, "detail": detail}


async def _traffic(port: int, inputs: Inputs, seconds: float, trace: bool,
                   ops: common.Ops) -> Dict[str, object]:
    """Per segment: a cold round, the hot cells, open loop.

    The cold round POSTs the next two grid sweeps (``eval_wall_s``).  They
    fill the 256-cell LRU, so the open loop's grid cells of earlier
    segments are store hits.  The hot cells are POSTed last, so they stay
    LRU-resident.  Spreading these rounds over the run samples the
    machine's state across the whole run instead of in one burst.
    """
    grid = inputs.grid
    per_round = len(grid) // SEGMENTS
    span = seconds / SEGMENTS
    cold: List[float] = []
    latencies: List[List[float]] = []
    prepared: List[Outcome] = []
    opened: List[Outcome] = []
    for segment in range(SEGMENTS):
        # Each cold POST is paced on its own: it takes long enough for
        # the host's speed to change.
        for i, spec in enumerate(
                grid[segment * per_round:(segment + 1) * per_round]):
            walls, outcomes = await paced(sequential(port, [
                Request(0.0, "grid", spec, rid=f"cold-{segment}-{i}")]))
            cold += walls
            prepared += outcomes
        prepared += await sequential(port, [
            Request(0.0, "hot", inputs.hot, rid=f"hot-{segment}")])
        low, high = segment * span, (segment + 1) * span
        outcomes = await open_loop(
            port, [r for r in inputs.schedule if low <= r.due < high], low)
        latencies.append([o.latency for o in outcomes])
        opened += outcomes
    for outcome in prepared:
        ops.record(outcome.status == 200, "prefill request")
    capacity = 0.0
    closed: List[Outcome] = []
    if trace:
        closed, elapsed = await closed_loop(port, inputs.closed)
        capacity = sum(o.status == 200 for o in closed) / elapsed
    stats = await get_stats(port)
    for outcome in opened + closed:
        ops.record(outcome.status == 200, f"{outcome.request.kind} request")
    ops.record(bool(stats) and stats.get("errors", 1) == 0,
               "service stats report no errors")
    ops.record(_repeats_agree(prepared + opened + closed),
               "repeated keys return identical bits")
    return {"cold": cold, "open": opened, "latencies": latencies,
            "stats": stats,
            # The rounds' request walls; the pace readings between them
            # are not the service's.
            "prefill_s": sum(o.latency for o in prepared),
            "capacity_rps": capacity, "samples": _samples(opened)}


def _repeats_agree(outcomes: List[Outcome]) -> bool:
    seen: Dict[str, str] = {}
    for outcome in outcomes:
        for cell in outcome.cells:
            bits = json.dumps(_hexify(cell["result"]), sort_keys=True)
            if seen.setdefault(cell["key"], bits) != bits:
                return False
    return True


def _samples(outcomes: List[Outcome]) -> List[Dict[str, object]]:
    """The first few served cells of each single-cell kind."""
    picked: List[Dict[str, object]] = []
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        kind = outcome.request.kind
        if kind == "sweep" or not outcome.cells \
                or counts.get(kind, 0) >= SAMPLES_PER_KIND:
            continue
        counts[kind] = counts.get(kind, 0) + 1
        picked.append({"kind": kind, "spec": outcome.request.spec,
                       "method": outcome.request.method,
                       "result": outcome.cells[0]["result"]})
    return picked


def _check_against_direct(samples: List[Dict[str, object]],
                          ops: common.Ops) -> None:
    """Sampled served cells against a direct ``repro.evaluate``."""
    request = common.write_json(common.work_path("reference-in.json"),
                                samples)
    answer = common.work_path("reference-out.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(common.HERE, "reference.py"), request,
         answer], env=common.program_env(), capture_output=True, text=True,
        timeout=common.PROCESS_TIMEOUT_S)
    pairs = common.read_json(answer) if proc.returncode == 0 else []
    ops.record(len(pairs) == len(samples) == 4 * SAMPLES_PER_KIND,
               "reference sample size")
    for sample, pair in zip(samples, pairs):
        ops.record(common.count_mismatches(
            [common.hex_metrics(pair["direct"])], [pair["served"]]) == 0,
            f"{sample['kind']} cell equals direct evaluate")


def _warm_reruns(launcher: common.Launcher, sweep: Dict[str, object],
                 store: str, ops: common.Ops) -> List[float]:
    """Walls of ``repro eval --store`` re-runs of *sweep* against the
    service's store, after one run that puts the sweep there (the CLI keys
    its cells apart from the service's); each re-run must find every cell
    in the store and match the first run bit for bit."""
    spec = common.write_json(common.work_path("warm.spec.json"), sweep)
    first_out = common.work_path("warm-first.json")
    _, proc = launcher.run(["eval", spec, "--store", store, "-o", first_out,
                            "--force"], "cold")
    first = [common.hex_metrics(m)
             for m in common.eval_output_metrics(first_out)]
    ops.record(proc.returncode == 0 and len(first) == GRID_LAMS,
               "sweep into the service's store")
    walls = []
    for index in range(WARM_RUNS):
        out = common.work_path(f"warm-{index}.json")
        wall, proc = launcher.run(["eval", spec, "--store", store, "-o", out,
                                   "--force"], "warm")
        walls.append(wall)
        ops.record(proc.returncode == 0
                   and common.served_from_store(proc.stdout) == GRID_LAMS
                   and common.count_mismatches(
                       first, common.eval_output_metrics(out)) == 0,
                   "warm re-run from the service's store")
    return walls


def _untraced_cold(launcher: common.Launcher, inputs: Inputs,
                   ops: common.Ops) -> float:
    """Summed cold grid sweeps on an untraced server (tracing overhead)."""
    server = Server(launcher, "server-untraced", "serve", trace=False)
    try:
        ops.record(server.wait_listening(), "server start")
        grid = [Request(0.0, "grid", spec, rid=f"untraced-{i}")
                for i, spec in enumerate(inputs.grid)]
        walls, outcomes = asyncio.run(paced(sequential(server.port, grid)))
    finally:
        ops.record(server.stop(), "server stop")
    for outcome in outcomes:
        ops.record(outcome.status == 200, "prefill request")
    return sum(walls)
