"""``python -m repro`` — list, run, evaluate, report and query scenarios.

Examples
--------
::

    python -m repro list
    python -m repro run table1
    python -m repro run table1 -p simulate=true --reps 20000 \\
        --backend process --workers 8
    python -m repro run validation --reps 200 --seed 7
    python -m repro run heterogeneous_sweep --params sweep.json   # kwargs file
    python -m repro run figure5_full_chain --store .repro-store   # resumable
    python -m repro eval study.json                                # StudySpec
    python -m repro eval study.json --method mc --store .repro-store
    python -m repro serve --port 8642 --store .repro-store \\
        --backend process --workers 8                          # shared service
    python -m repro report --all --out reports/
    python -m repro report table1 figure6 --out reports/
    python -m repro query load --store .repro-store --db warehouse.sqlite
    python -m repro query kpi scheme_frontier --format csv
    python -m repro query sql "SELECT COUNT(*) FROM cells"
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

import repro
from repro import __version__

#: Seconds from the start of the ``repro`` package import to ``main()``; set
#: only when this module runs as the program (``python -m repro``).
_STARTUP_SECONDS = 0.0

#: Default root seed for CLI runs, so invocations are reproducible unless the
#: user asks for fresh entropy with ``--seed -1``.
DEFAULT_CLI_SEED = 2024


def _parse_value(text: str):
    """Best-effort literal parsing: ints, floats, tuples, booleans, strings."""
    import ast
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        params[key] = _parse_value(value)
    return params


def _load_json_object(path: str, what: str) -> Dict[str, object]:
    """Load a JSON object from *path* with CLI-grade error messages.

    Shared by ``run --params`` (scenario kwargs) and ``eval`` (StudySpec
    payloads), so both accept exactly the same files.
    """
    if not os.path.isfile(path):
        raise SystemExit(f"{what} file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read {what} file {path}: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"{what} file {path} must hold a JSON object, "
                         f"got {type(payload).__name__}")
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the registered experiment scenarios of the "
                    "Shin & Lee (1983) reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered scenarios")
    list_cmd.add_argument("-v", "--verbose", action="store_true",
                          help="include paper references and defaults")

    run_cmd = sub.add_parser("run", help="run one scenario and print its table")
    run_cmd.add_argument("scenario", help="registered scenario name "
                                          "(see 'python -m repro list')")
    run_cmd.add_argument("--backend", choices=("serial", "process"),
                         default="serial", help="execution backend "
                                                "(default: serial)")
    run_cmd.add_argument("--workers", type=int, default=None,
                         help="worker processes for --backend process "
                              "(default: all cores)")
    run_cmd.add_argument("--reps", type=int, default=None,
                         help="Monte-Carlo replication budget "
                              "(scenario default if omitted; ignored by "
                              "purely analytic scenarios)")
    run_cmd.add_argument("--seed", type=int, default=DEFAULT_CLI_SEED,
                         help=f"root seed (default {DEFAULT_CLI_SEED}; "
                              "-1 draws fresh entropy)")
    run_cmd.add_argument("-p", "--param", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="scenario parameter override (repeatable)")
    run_cmd.add_argument("--params", metavar="FILE", default=None,
                         help="JSON file of scenario keyword parameters "
                              "(-p overrides win over file entries)")
    run_cmd.add_argument("--digits", type=int, default=4,
                         help="float digits in the rendered table (default 4)")
    run_cmd.add_argument("-o", "--output", metavar="PATH", default=None,
                         help="persist the result as JSON (envelope with "
                              "params, seed, backend, repro version and "
                              "elapsed time)")
    run_cmd.add_argument("--force", action="store_true",
                         help="overwrite an existing --output file")
    run_cmd.add_argument("--recompute", action="store_true",
                         help="execute the scenario even when the --store "
                              "holds this cell (the result is re-written "
                              "through)")
    run_cmd.add_argument("--store", metavar="DIR", default=None,
                         help="result-store directory: serve the run from "
                              "the cache when this (scenario, params, seed, "
                              "reps) cell was already computed, write it "
                              "through otherwise")

    eval_cmd = sub.add_parser(
        "eval", help="evaluate a declarative StudySpec file through the "
                     "unified facade (repro.api)")
    eval_cmd.add_argument("spec", metavar="SPEC.json",
                          help="JSON StudySpec file (see docs/ARCHITECTURE.md "
                               "for the schema)")
    eval_cmd.add_argument("--method", default="auto",
                          choices=("auto", "analytic", "mc", "des", "strategy"),
                          help="evaluation engine (default: auto — selected "
                               "by system kind, state-space size and "
                               "requested metrics)")
    eval_cmd.add_argument("--backend", choices=("serial", "process"),
                          default="serial", help="execution backend for "
                                                 "stochastic shards and sweep "
                                                 "cells (default: serial)")
    eval_cmd.add_argument("--workers", type=int, default=None,
                          help="worker processes for --backend process")
    eval_cmd.add_argument("--reps", type=int, default=None,
                          help="override the spec's stochastic budget")
    eval_cmd.add_argument("--seed", type=int, default=None,
                          help="override the spec's root seed "
                               "(-1 draws fresh entropy)")
    eval_cmd.add_argument("--store", metavar="DIR", default=None,
                          help="result-store directory: cells already "
                               "evaluated under the same canonical key are "
                               "reloaded, not recomputed")
    eval_cmd.add_argument("--recompute", action="store_true",
                          help="evaluate even when the --store holds the "
                               "cell (re-written through)")
    eval_cmd.add_argument("--digits", type=int, default=6,
                          help="float digits in the rendered table "
                               "(default 6)")
    eval_cmd.add_argument("-o", "--output", metavar="PATH", default=None,
                          help="persist spec + evaluation(s) as JSON")
    eval_cmd.add_argument("--force", action="store_true",
                          help="overwrite an existing --output file")
    eval_cmd.add_argument("--timing", action="store_true",
                          help="print a per-phase wall-time breakdown "
                               "(import / spec resolve / assembly / solve "
                               "or sim / reduce / store) after the result")

    serve_cmd = sub.add_parser(
        "serve", help="run the multi-tenant evaluation service "
                      "(HTTP/JSON, repro.service)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8642,
                           help="TCP port (default: 8642; 0 picks an "
                                "ephemeral port, printed on startup)")
    serve_cmd.add_argument("--backend", choices=("serial", "process"),
                           default="serial",
                           help="execution backend for batch fan-outs "
                                "(default: serial)")
    serve_cmd.add_argument("--workers", type=int, default=None,
                           help="worker processes for --backend process")
    serve_cmd.add_argument("--store", metavar="DIR", default=None,
                           help="result-store directory (the same store "
                                "'eval --store' reads and writes)")
    serve_cmd.add_argument("--lru-size", type=int, default=1024,
                           help="hot-cell LRU capacity (default 1024; "
                                "0 disables the in-memory cache)")
    serve_cmd.add_argument("--max-batch", type=int, default=256,
                           help="flush a batch immediately at this many "
                                "pending cells (default 256)")

    report_cmd = sub.add_parser(
        "report", help="render paper figures/tables and a REPORT.md")
    report_cmd.add_argument("scenarios", nargs="*", metavar="scenario",
                            help="scenarios to include (see 'python -m repro "
                                 "list'); required unless --all is given")
    report_cmd.add_argument("--all", action="store_true", dest="all_scenarios",
                            help="include every registered scenario, paper "
                                 "artifacts first")
    report_cmd.add_argument("--out", metavar="DIR", default="reports",
                            help="output directory for REPORT.md, figures/, "
                                 "tables/ and the result store "
                                 "(default: reports)")
    report_cmd.add_argument("--store", metavar="DIR", default=None,
                            help="result-store directory "
                                 "(default: <out>/store); already-computed "
                                 "cells are reloaded, not re-run")
    report_cmd.add_argument("--backend", choices=("serial", "process"),
                            default="serial",
                            help="execution backend for missing cells "
                                 "(default: serial)")
    report_cmd.add_argument("--workers", type=int, default=None,
                            help="worker processes for --backend process")
    report_cmd.add_argument("--reps", type=int, default=None,
                            help="Monte-Carlo replication budget override")
    report_cmd.add_argument("--seed", type=int, default=DEFAULT_CLI_SEED,
                            help=f"root seed (default {DEFAULT_CLI_SEED}; "
                                 "-1 draws fresh entropy)")
    report_cmd.add_argument("--force", action="store_true",
                            help="recompute every cell even on a cache hit")
    report_cmd.add_argument("--digits", type=int, default=6,
                            help="significant digits in report tables "
                                 "(default 6)")

    query_cmd = sub.add_parser(
        "query", help="analytics warehouse over the result store "
                      "(ETL + canned KPI views + read-only SQL)")
    qsub = query_cmd.add_subparsers(dest="query_command", required=True)
    load_cmd = qsub.add_parser(
        "load", help="load (incrementally) a result store into the "
                     "warehouse database")
    load_cmd.add_argument("--store", metavar="DIR", default=".repro-store",
                          help="result-store directory "
                               "(default: .repro-store)")
    kpi_cmd = qsub.add_parser(
        "kpi", help="render a canned KPI view (no name: list the catalog)")
    kpi_cmd.add_argument("view", nargs="?", default=None,
                         help="view name (omit it to list the catalog)")
    kpi_cmd.add_argument("--limit", type=int, default=0,
                         help="cap the row count (0 = all rows)")
    sql_cmd = qsub.add_parser(
        "sql", help="run one read-only SQL statement against the warehouse")
    sql_cmd.add_argument("statement", help="SQL to execute (the connection "
                                           "is read-only; writes fail)")
    for verb in (load_cmd, kpi_cmd, sql_cmd):
        verb.add_argument("--db", metavar="FILE", default="warehouse.sqlite",
                          help="warehouse SQLite file, created by load if "
                               "missing (default: warehouse.sqlite)")
    for verb in (kpi_cmd, sql_cmd):
        verb.add_argument("--format", choices=("table", "json", "csv"),
                          default="table",
                          help="output format (default: table)")
    return parser


def _cmd_list(verbose: bool) -> int:
    from repro.runner import list_scenarios, load_builtin_scenarios

    load_builtin_scenarios()
    specs = list_scenarios()
    if not specs:
        print("no scenarios registered")
        return 1
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        reps = f" [reps≈{spec.default_reps}]" if spec.uses_replications else ""
        print(f"{spec.name:<{width}}  {spec.description}{reps}")
        if verbose:
            if spec.paper_reference:
                print(f"{'':<{width}}  ↳ reproduces: {spec.paper_reference}")
            if spec.defaults:
                rendered = ", ".join(f"{k}={v!r}" for k, v in spec.defaults.items())
                print(f"{'':<{width}}  ↳ defaults: {rendered}")
    return 0


def _check_output_path(path: Optional[str], force: bool) -> None:
    """Fail before the run, not after it: a long sweep whose result cannot
    be persisted is wasted work."""
    if path is None:
        return
    if os.path.isdir(path):
        raise SystemExit(f"--output path is a directory: {path}")
    if os.path.exists(path) and not force:
        raise SystemExit(f"--output file exists: {path} "
                         "(pass --force to overwrite)")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise SystemExit(f"--output directory does not exist: {directory}")
    if not os.access(directory, os.W_OK):
        raise SystemExit(f"--output directory is not writable: {directory}")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers is not None and args.backend != "process":
        raise SystemExit("--workers requires --backend process")
    if args.reps is not None and args.reps < 1:
        raise SystemExit("--reps must be >= 1")
    seed: Optional[int] = None if args.seed == -1 else args.seed
    _check_output_path(args.output, args.force)
    from repro.runner import (ExperimentRunner, get_scenario,
                              load_builtin_scenarios, make_backend)

    store = None
    if args.store is not None:
        from repro.report import ResultStore
        store = ResultStore(args.store)
    backend = make_backend(args.backend, args.workers)
    runner = ExperimentRunner(backend, seed=seed, reps=args.reps, store=store)
    load_builtin_scenarios()
    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
    params: Dict[str, object] = {}
    if args.params is not None:
        params.update(_load_json_object(args.params, "--params"))
    params.update(_parse_params(args.param))
    if spec.internal and not params:
        raise SystemExit(
            f"scenario {spec.name!r} is internal infrastructure and needs "
            "caller-supplied parameters (--params/-p); for the facade's "
            "'evaluate' scenario, prefer `python -m repro eval SPEC.json`")
    # Validate overrides against the scenario signature up front, so a typo'd
    # -p name fails cleanly without masking TypeErrors from the run itself.
    import inspect
    try:
        inspect.signature(spec.func).bind_partial(None, **{**dict(spec.defaults),
                                                           **params})
    except TypeError as exc:
        raise SystemExit(f"bad scenario parameters for {spec.name!r}: {exc}")
    try:
        record = runner.run_record(spec, force=args.recompute, **params)
    except ValueError as exc:
        # Internal scenarios validate their payload contract themselves;
        # surface that as a clean CLI error instead of a traceback.
        if spec.internal:
            raise SystemExit(
                f"scenario {spec.name!r} rejected its parameters: {exc}")
        raise
    finally:
        backend.close()
    result = record.result
    print(result.render(args.digits))
    source = "store cache" if record.cached else f"{record.elapsed_seconds:.2f}s"
    print(f"\n[scenario={args.scenario} backend={backend.describe()} "
          f"seed={seed} reps={args.reps if args.reps is not None else 'default'} "
          f"({source})]")
    if record.cached:
        print(f"[cache hit in {args.store} — scenario not re-executed; "
              "pass --recompute to force a fresh run]")
    if args.output is not None:
        effective = {**dict(spec.defaults), **params}
        try:
            _write_json(args.output, args, spec.name, effective, seed, record)
        except OSError as exc:
            raise SystemExit(f"cannot write --output file: {exc}")
        print(f"[result written to {args.output}]")
    return 0


def _resolve_and_evaluate(args: argparse.Namespace):
    """The eval pipeline: parse the spec file, apply overrides, evaluate.

    Factored out of :func:`_cmd_eval` so ``--timing`` can run the whole
    pipeline under one phase collector (the engines and the facade carry
    the ``assembly``/``solve``/``sim``/``reduce``/``store`` markers; the
    pipeline's own imports and the spec parse are timed here).
    """
    from dataclasses import replace

    from repro.bench import phase

    with phase("import"):
        from repro.api import StudySpec, evaluate_record
        from repro.runner.backends import make_backend
    with phase("spec-resolve"):
        payload = _load_json_object(args.spec, "spec")
        try:
            spec = StudySpec.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"bad StudySpec in {args.spec}: {exc}")
        for flag, axis in (("reps", "reps"), ("seed", "seed")):
            if getattr(args, flag) is not None and axis in spec.sweep:
                raise SystemExit(
                    f"--{flag} conflicts with the spec's {axis!r} sweep "
                    "axis; edit the spec or drop the flag")
        if args.reps is not None:
            spec = replace(spec, reps=args.reps)
        if args.seed is not None:
            spec = replace(spec, seed=None if args.seed == -1 else args.seed)

    store = None
    if args.store is not None:
        from repro.report import ResultStore
        store = ResultStore(args.store)
    backend = make_backend(args.backend, args.workers)
    try:
        result = evaluate_record(spec, method=args.method, backend=backend,
                                 store=store, force=args.recompute)
    except (ArithmeticError, KeyError, ValueError) as exc:
        raise SystemExit(f"evaluation failed: {exc}")
    finally:
        backend.close()
    return spec, result


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.workers is not None and args.backend != "process":
        raise SystemExit("--workers requires --backend process")
    if args.reps is not None and args.reps < 1:
        raise SystemExit("--reps must be >= 1")
    _check_output_path(args.output, args.force)
    from repro.report.store import strict_jsonable

    timing_report = None
    if args.timing:
        from repro.bench import collect_phases
        with collect_phases() as timer:
            timer.add("import", _STARTUP_SECONDS, before=True)
            spec, result = _resolve_and_evaluate(args)
        timing_report = timer.render()
    else:
        spec, result = _resolve_and_evaluate(args)

    if spec.is_sweep:
        print(result.to_experiment_result().render(args.digits))
    else:
        print(result.cells[0].evaluation.to_experiment_result()
              .render(args.digits))
    methods = ", ".join(sorted({c.method for c in result.cells}))
    cache_note = f"; {result.cache_hits} served from the store" \
        if args.store is not None else ""
    seed_note = f"seeds={list(spec.sweep['seed'])}" \
        if "seed" in spec.sweep else f"seed={spec.seed}"
    print(f"\n[{len(result.cells)} cell(s) via {methods}{cache_note}; "
          f"{seed_note}]")
    if result.cache_hits and not args.recompute:
        print(f"[cache hits in {args.store} — pass --recompute to force "
              "fresh evaluations]")
    if args.output is not None:
        evaluations = [cell.evaluation.to_dict() for cell in result.cells]
        envelope = {
            "spec": spec.to_dict(),
            "method": args.method,
            "version": __version__,
            "evaluations": evaluations,
        }
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(strict_jsonable(envelope), handle, indent=2,
                          sort_keys=True, allow_nan=False)
                handle.write("\n")
        except OSError as exc:
            raise SystemExit(f"cannot write --output file: {exc}")
        print(f"[evaluation written to {args.output}]")
    if timing_report is not None:
        print()
        # The LAPACK a dense solve ran on, when this process bound one: a hex
        # diff between two machines can then be traced to its BLAS build.
        blas = sys.modules.get("repro.util.blas")
        if blas is not None:
            print("[lapack] " + " ".join(f"{key}={value}" for key, value
                                         in blas.numerics().items()))
        print(timing_report)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers is not None and args.backend != "process":
        raise SystemExit("--workers requires --backend process")
    if args.lru_size < 0:
        raise SystemExit("--lru-size must be >= 0")
    if args.max_batch < 1:
        raise SystemExit("--max-batch must be >= 1")
    import asyncio

    from repro.service import EvaluationServer, EvaluationService

    async def _serve() -> None:
        service = EvaluationService(
            backend=args.backend, workers=args.workers, store=args.store,
            lru_size=args.lru_size, max_batch=args.max_batch)
        server = EvaluationServer(service, host=args.host, port=args.port)
        await server.start()
        store_note = f" store={args.store}" if args.store else ""
        print(f"[repro serve] listening on http://{server.host}:{server.port} "
              f"backend={service.backend.describe()}{store_note}",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\n[repro serve] stopped")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.workers is not None and args.backend != "process":
        raise SystemExit("--workers requires --backend process")
    if args.reps is not None and args.reps < 1:
        raise SystemExit("--reps must be >= 1")
    if not args.all_scenarios and not args.scenarios:
        raise SystemExit("name at least one scenario, or pass --all")
    if args.all_scenarios and args.scenarios:
        raise SystemExit("--all and explicit scenario names are exclusive")
    from repro.report import generate_report
    from repro.runner import get_scenario, load_builtin_scenarios, make_backend

    load_builtin_scenarios()
    if args.scenarios:
        # Fail on unknown (or non-renderable internal) names before any
        # cell is computed.
        for name in args.scenarios:
            try:
                spec = get_scenario(name)
            except KeyError as exc:
                raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
            if spec.internal:
                raise SystemExit(
                    f"scenario {name!r} is internal infrastructure and has "
                    "no report rendering; evaluate it with `python -m repro "
                    "eval SPEC.json`")
    seed: Optional[int] = None if args.seed == -1 else args.seed
    with make_backend(args.backend, args.workers) as backend:
        summary = generate_report(
            None if args.all_scenarios else args.scenarios,
            out_dir=args.out,
            store=args.store,
            backend=backend,
            seed=seed,
            reps=args.reps,
            force=args.force,
            digits=args.digits,
        )
    print(f"report written to {summary.report_path}")
    print(f"[{summary.computed} scenario(s) computed, {summary.cache_hits} "
          f"served from the store at {summary.store_root}]")
    for path in summary.artifact_paths:
        print(f"  - {os.path.relpath(path, args.out)}")
    return 0


def _jsonable(value):
    """Best-effort conversion of parameter values for the JSON envelope."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):        # numpy scalars
        return value.item()
    return value


def _write_json(path: str, args: argparse.Namespace, scenario_name: str,
                params: Dict[str, object], seed: Optional[int],
                record) -> None:
    """Persist the run as a JSON envelope around ``ExperimentResult.to_dict``.

    ``backend``/``elapsed_seconds`` describe the run that *computed* the
    result — on a ``--store`` cache hit that is the original run, which is
    why the envelope also carries an explicit ``cached`` flag.
    """
    from repro.report.store import strict_jsonable
    envelope = {
        "scenario": scenario_name,
        "params": _jsonable(params),
        "seed": seed,
        "reps": record.reps,
        "backend": record.backend,
        "workers": args.workers,
        "elapsed_seconds": record.elapsed_seconds,
        "cached": record.cached,
        "version": __version__,
        "result": record.result.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(strict_jsonable(envelope), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args.verbose)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        from repro.warehouse.cli import cmd_query
        return cmd_query(args)
    return _cmd_run(args)


if __name__ == "__main__":
    _STARTUP_SECONDS = time.perf_counter() - repro._IMPORT_STARTED
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other CLIs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
