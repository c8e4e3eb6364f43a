"""Per-layer metrics of a traced run, computed from the shim's span files.

Every traced run reports every name in :data:`PER_LAYER`.  A layer that a
workload's commands never call reports 0 (for example the service layer
on the CLI workloads); ``layers.json`` records which workloads each layer
is on.  Times are medians or means of the calls recorded in the run, so
they do not grow with the number of cycles the run fitted in.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import common
import spans as sp

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("import.repro_s", "s"),
    ("import.numeric_floor_s", "s"),
    ("api.spec_resolve_ms", "ms"),
    ("api.canonical_key_ms", "ms"),
    ("api.assemble_ms", "ms"),
    ("store.get_calls", "count"),
    ("store.get_ms_mean", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.put_calls", "count"),
    ("store.put_ms_mean", "ms"),
    ("store.lock_wait_ms", "ms"),
    ("dispatch.maps", "count"),
    ("dispatch.map_ms_p50", "ms"),
    ("dispatch.tasks_per_map", "count"),
    ("engine.analytic.assembly_s", "s"),
    ("engine.analytic.solve_s", "s"),
    ("engine.strategy.sim_s", "s"),
    ("engine.strategy.reps_per_s", "1/s"),
    ("service.admission_wait_ms_p50", "ms"),
    ("service.execute_ms_p50", "ms"),
    ("service.submit_ms_p50.lru", "ms"),
    ("service.submit_ms_p50.store", "ms"),
    ("service.submit_ms_p50.inflight", "ms"),
    ("service.submit_ms_p50.computed", "ms"),
    ("service.lru_hit_ratio", "ratio"),
    ("service.dedup_hit_rate", "ratio"),
    ("service.batch_occupancy", "count"),
    ("service.dispatches", "count"),
    ("service.prefill_s", "s"),
    ("service.goodput_rps", "1/s"),
    ("service.capacity_rps", "1/s"),
    ("http.overhead_ms_mean", "ms"),
    ("etl.load_s", "s"),
    ("etl.cells_per_s", "1/s"),
    ("gen.late_ms_p99", "ms"),
    ("gen.conn_wait_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


def unpatched(traces: List[Dict]) -> List[str]:
    """Functions the shim could not find in the program, across *traces*."""
    return sorted({name for trace in traces for name in trace["missing"]})


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p50(values: Sequence[float]) -> float:
    return common.median(values) if values else 0.0


def from_traces(traces: List[Dict], engine_label: str, engine: str,
                per_call: bool = False) -> Dict[str, float]:
    """Per-layer numbers from *traces* (the shim's files, each with the
    ``label`` the harness gave its launch).

    Phase times of *engine* (``analytic`` or ``strategy``) come from the
    processes labelled *engine_label*, as the median over them; the two
    engines share phase names, so the workload says which one it ran.
    A process's phase time is its total, or with *per_call* its total
    divided by its phase count (for a long-lived server, whose totals
    grow with the run).
    """
    out = {name: 0.0 for name, _unit in PER_LAYER}
    if not traces:
        return out
    out["import.repro_s"] = _p50([t["import_s"] for t in traces])
    calls = {"api.spec_resolve": [], "api.canonical_key": [],
             "api.assemble": []}
    gets, puts, locks, maps = [], [], [], []
    submit_by_source: Dict[str, List[float]] = {}
    admission, execute, loads = [], [], []
    total_spans = 0
    for trace in traces:
        spans = trace["spans"]
        total_spans += len(spans)
        selfs = sp.self_times(spans)
        for name, bucket in calls.items():
            bucket.extend(selfs[s[sp.ID]] for s in spans if s[sp.NAME] == name)
        gets.extend(sp.outermost(spans, "store.get"))
        puts.extend(sp.outermost(spans, "store.put"))
        locks.extend(s for s in spans if s[sp.NAME] == "store.lock_wait")
        maps.extend(sp.outermost(spans, "dispatch.map"))
        for s in spans:
            name = s[sp.NAME]
            if name == "service.submit_cell" and s[sp.TAG]:
                submit_by_source.setdefault(s[sp.TAG], []).append(
                    s[sp.END] - s[sp.START])
            elif name == "service.admission_wait":
                admission.append(s[sp.END] - s[sp.START])
            elif name == "service.execute":
                execute.append(s[sp.END] - s[sp.START])
            elif name == "etl.load" and s[sp.TAG]:
                loads.append(s)
    for name, bucket in calls.items():
        out[name + "_ms"] = 1e3 * _mean(bucket)
    out["store.get_calls"] = len(gets)
    out["store.get_ms_mean"] = 1e3 * _mean(sp.durations(gets))
    out["store.hit_ratio"] = _mean([1.0 if s[sp.TAG] else 0.0 for s in gets])
    out["store.put_calls"] = len(puts)
    out["store.put_ms_mean"] = 1e3 * _mean(sp.durations(puts))
    out["store.lock_wait_ms"] = 1e3 * _mean(sp.durations(locks))
    out["dispatch.maps"] = len(maps)
    out["dispatch.map_ms_p50"] = 1e3 * _p50(sp.durations(maps))
    out["dispatch.tasks_per_map"] = _mean([s[sp.TAG] for s in maps])

    phases = [t["phases"] for t in traces if t["label"] == engine_label]

    def phase_p50(name: str) -> float:
        values = []
        for p in phases:
            total, count = p.get(name, (0.0, 0))
            values.append(total / count if per_call and count else total)
        return _p50(values)

    if engine == "analytic":
        out["engine.analytic.assembly_s"] = phase_p50("assembly")
        out["engine.analytic.solve_s"] = phase_p50("solve")
    else:
        out["engine.strategy.sim_s"] = phase_p50("sim")

    out["service.admission_wait_ms_p50"] = 1e3 * _p50(admission)
    out["service.execute_ms_p50"] = 1e3 * _p50(execute)
    for source in ("lru", "store", "inflight", "computed"):
        out[f"service.submit_ms_p50.{source}"] = 1e3 * _p50(
            submit_by_source.get(source, []))
    fresh = [s for s in loads if s[sp.TAG][1] > 0]
    if fresh:
        out["etl.load_s"] = _p50(sp.durations(fresh))
        out["etl.cells_per_s"] = _p50([s[sp.TAG][0] / (s[sp.END] - s[sp.START])
                                       for s in fresh])
    out["trace.spans"] = total_spans
    return out
