"""Tracing launcher: ``python shim.py SPANS.json <repro args...>``.

Runs ``python -m repro <args>`` in this process after wrapping the public
functions at each layer boundary, so that every call records a span:
``[id, parent id, request id, name, start, end, tag]``.  It also activates
``repro.bench.collect_phases`` for the engines' own phase timers.  Spans
are kept in memory and written to ``SPANS.json`` at exit, including the
SIGINT exit of ``repro serve``.

Spans of process-pool children are not captured: a forked worker exits
without running this process's exit hooks, so under the process backend
only the parent side of a dispatch is traced.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

_clock = time.perf_counter
_SPANS = []
_IDS = itertools.count(1)
_PARENT = contextvars.ContextVar("perfbench_parent", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)
#: id(BatchCell) -> when its entry was admitted to the batcher.
_ADMITTED = {}
#: The active phase collector; held so it stays open until exit.
_COLLECTOR = None
#: Patch targets this program does not have.
_MISSING = []


def _wrap(func, name, tagger=None):
    """A span-recording wrapper for a plain or ``async`` function.

    ``tagger(result, args)`` may attach a small JSON value to the span.
    """
    if inspect.iscoroutinefunction(func):
        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            span, parent = next(_IDS), _PARENT.get()
            token = _PARENT.set(span)
            start, result = _clock(), None
            try:
                result = await func(*args, **kwargs)
                return result
            finally:
                end = _clock()
                _PARENT.reset(token)
                _SPANS.append((span, parent, _REQUEST.get(), name, start,
                               end, tagger(result, args) if tagger else None))
        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span, parent = next(_IDS), _PARENT.get()
        token = _PARENT.set(span)
        start, result = _clock(), None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = _clock()
            _PARENT.reset(token)
            _SPANS.append((span, parent, _REQUEST.get(), name, start, end,
                           tagger(result, args) if tagger else None))
    return wrapper


def _patch_function(module, attr, replacement):
    """Swap ``module.attr`` everywhere ``repro`` bound it by name."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        space = vars(mod)
        for key, value in list(space.items()):
            if value is original:
                space[key] = replacement


def _patch_method(cls, attr, make):
    """Replace ``cls.attr`` with ``make(function)``, keeping its kind."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _materialized(generator_function):
    """Run a generator function to completion, so its span covers the work."""
    @functools.wraps(generator_function)
    def listed(*args, **kwargs):
        return iter(list(generator_function(*args, **kwargs)))
    return listed


def _admit(original):
    @functools.wraps(original)
    def admit(self, entry):
        _ADMITTED[id(getattr(entry, "cell", entry))] = _clock()
        return original(self, entry)
    return admit


def _execute_cells(original):
    traced = _wrap(original, "service.execute",
                   lambda result, args: len(args[1]))

    @functools.wraps(original)
    def execute_cells(backend, cells):
        now = _clock()
        for cell in cells:
            admitted = _ADMITTED.pop(id(cell), None)
            if admitted is not None:
                _SPANS.append((next(_IDS), _PARENT.get(), _REQUEST.get(),
                               "service.admission_wait", admitted, now, None))
        return traced(backend, cells)
    return execute_cells


def _read_request(original):
    """Adopt the client's ``X-Request-Id`` as the span request id."""
    @functools.wraps(original)
    async def read_request(self, reader):
        request = await original(self, reader)
        if request is not None:
            _REQUEST.set(request[2].get("x-request-id"))
        return request
    return read_request


def _targets():
    """(module, class or None, attribute, make replacement from original)."""
    def span(name, tagger=None):
        return lambda func: _wrap(func, name, tagger)

    hit = lambda result, args: result is not None          # noqa: E731
    count = lambda result, args: len(result)                # noqa: E731
    spec, store, sharded = ("repro.api.spec", "repro.report.store",
                            "repro.report.sharded")
    backends, service = "repro.runner.backends", "repro.service.session"
    return [
        (spec, "StudySpec", "from_dict", span("api.spec_resolve")),
        (spec, "StudySpec", "cells",
         lambda f: _wrap(_materialized(f), "api.spec_resolve")),
        ("repro.api.evaluators", None, "resolve_method",
         span("api.spec_resolve")),
        (spec, "StudySpec", "canonical_key", span("api.canonical_key")),
        (store, None, "store_key", span("api.canonical_key")),
        ("repro.api.evaluation", "Evaluation", "to_experiment_result",
         span("api.assemble")),
        ("repro.api.evaluation", "Evaluation", "from_experiment_result",
         span("api.assemble")),
        (store, "ResultStore", "get", span("store.get", hit)),
        (store, "ResultStore", "put", span("store.put")),
        (sharded, "ShardedResultStore", "get", span("store.get", hit)),
        (sharded, "ShardedResultStore", "put", span("store.put")),
        (store, "FileLock", "__enter__", span("store.lock_wait")),
        (backends, "SerialBackend", "map", span("dispatch.map", count)),
        (backends, "ProcessPoolBackend", "map", span("dispatch.map", count)),
        ("repro.service.batching", "AdmissionBatcher", "admit", _admit),
        ("repro.service.batching", None, "execute_cells", _execute_cells),
        (service, "EvaluationService", "submit",
         span("service.submit", lambda r, a: r and len(r.cells))),
        (service, "EvaluationService", "submit_cell",
         span("service.submit_cell", lambda r, a: r and r.source)),
        ("repro.service.server", "EvaluationServer", "_read_request",
         _read_request),
        ("repro.warehouse.etl", None, "load_store",
         span("etl.load",
              lambda r, a: r and [r.cells_seen, r.cells_inserted])),
    ]


def _install():
    """Patch every target that exists; record the ones that do not, so a
    program that renamed or removed a function still runs (its layer then
    reads 0 and the run's detail line names it)."""
    for module_name, owner, attr, make in _targets():
        try:
            module = importlib.import_module(module_name)
            if owner is None:
                _patch_function(module, attr, make(getattr(module, attr)))
            else:
                _patch_method(getattr(module, owner), attr, make)
        except (ImportError, AttributeError, KeyError):
            _MISSING.append(".".join(filter(None, (module_name, owner,
                                                   attr))))


def _dump(path, started, import_s, timer):
    payload = {
        "import_s": import_s,
        "wall_s": _clock() - started,
        "phases": {name: [timer.totals[name], timer.counts[name]]
                   for name in timer.totals},
        "spans": _SPANS,
        "missing": _MISSING,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    out, args = argv[1], argv[2:]
    started = _clock()
    import repro.__main__ as cli
    import_s = _clock() - started
    _install()
    from repro.bench import collect_phases
    global _COLLECTOR
    _COLLECTOR = collect_phases()
    timer = _COLLECTOR.__enter__()
    atexit.register(_dump, out, started, import_s, timer)
    return cli.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
