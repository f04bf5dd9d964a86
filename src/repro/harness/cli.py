"""``python -m repro`` — run the paper's sweeps (and your own) from the shell.

Examples::

    python -m repro list
    python -m repro list --json
    python -m repro run figure5
    python -m repro run figure5 --full --jobs 4
    python -m repro run all --backend process --workers 8 --no-cache
    python -m repro run figure9 --csv --out figure9.csv

    # ad-hoc scenarios, no source edits: any registered workload x any
    # system presets x any parameter grid, with dotted-path config
    # overrides — executed through the same cache and backends
    python -m repro sweep matmul --system cpu,ccsvm --grid size=8,16
    python -m repro sweep matmul --system cpu,ccsvm --grid size=8,16 \
        --set mttop.count=4 --backend process --workers 4
    python -m repro sweep barnes_hut --system ccsvm --grid bodies=16,32 \
        --param timesteps=1 --set "l2.total_size_bytes=8MiB"

    # hierarchy-shape presets and declarative scenario files
    python -m repro sweep barnes_hut --system apu-shared-l2,ccsvm-l3 \
        --grid bodies=8,16 --param timesteps=1
    python -m repro sweep --scenario study.toml
    python -m repro sweep --scenario study.toml --set l3.enabled=true --seed 9

    # distributed: one coordinator, any number of workers (any order);
    # each worker runs up to --jobs points at once on a local process pool
    python -m repro worker --connect 127.0.0.1:7421 --jobs 8 &
    python -m repro worker --connect 127.0.0.1:7421 --jobs 8 &
    python -m repro run table2 --backend distributed --workers 2

    # always-on service: one fleet, many submitters (priorities +
    # fair share); workers are the same `repro worker` processes
    python -m repro serve --bind 127.0.0.1:7421 &
    python -m repro worker --connect 127.0.0.1:7421 --jobs 8 &
    python -m repro submit matmul --system cpu,ccsvm --grid size=8,16
    python -m repro submit --sweep figure5 --priority 5
    python -m repro status --json
    python -m repro result job-1
    python -m repro run figure5 --backend service   # same fleet, same output

    # result store: inspect, prune, verify, sync between hosts
    python -m repro cache info --json
    python -m repro cache clear figure5
    python -m repro cache push /mnt/shared/repro-store
    python -m repro cache pull /mnt/shared/repro-store figure5
    python -m repro cache gc --max-age-days 30 --dry-run
    python -m repro cache verify

``--full`` selects each sweep's larger parameter grid (the same grids the
``REPRO_FULL_SWEEP=1`` environment variable selects).  ``--backend``
chooses how points execute — ``serial`` (in-process), ``process`` (a local
as-completed ``multiprocessing`` pool) or ``distributed`` (TCP workers
started with ``repro worker``); ``REPRO_BACKEND`` sets the default, and
plain ``--jobs N`` keeps its historical meaning of ``--backend process``.
Completed points are cached under ``.repro-cache/`` (override with
``--cache-dir`` or ``REPRO_CACHE_DIR``; disable with ``--no-cache``;
inspect or prune with ``repro cache``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.experiments.report import full_sweep_enabled
from repro.harness.backends import (
    BACKEND_ENV,
    BACKEND_NAMES,
    create_backend,
    default_bind,
    default_service_address,
)
from repro.harness.runner import SweepRunner, default_cache_dir
from repro.harness.spec import HarnessError, get_spec, spec_names
from repro.harness.worker import run_worker


def _positive_int(text: str) -> int:
    """argparse type for worker/job counts: an integer >= 1.

    Validating at parse time gives bad values a clean usage error *before*
    any backend is constructed, matching the ``ValueError`` the backend
    constructors and :func:`~repro.harness.backends.create_backend` raise
    for programmatic misuse.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """Backend/cache/output options shared by ``run`` and ``sweep``."""
    parser.add_argument("--backend", choices=BACKEND_NAMES,
                        default=os.environ.get(BACKEND_ENV),
                        help="execution backend (default: $REPRO_BACKEND, else "
                             "'process' when --jobs/--workers > 1, else "
                             "'serial')")
    parser.add_argument("--workers", "-w", type=_positive_int, default=None,
                        help="process backend: pool size; distributed backend: "
                             "worker connections to wait for (default: --jobs)")
    parser.add_argument("--jobs", "-j", type=_positive_int,
                        default=int(os.environ.get("REPRO_JOBS", "1")),
                        help="worker processes per sweep "
                             "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--bind", default=None,
                        help=f"distributed backend: HOST:PORT to listen on "
                             f"(default: $REPRO_BIND or {default_bind()!r})")
    parser.add_argument("--start-timeout", type=float, default=60.0,
                        help="distributed backend: seconds to wait for workers "
                             "(default: 60)")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help=f"service backend: address of a running "
                             f"'repro serve' (default: $REPRO_SERVICE or "
                             f"{default_service_address()!r})")
    parser.add_argument("--cache-dir", default=None,
                        help=f"per-point result cache directory "
                             f"(default: $REPRO_CACHE_DIR or "
                             f"{default_cache_dir()!r})")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point; do not read or write "
                             "the cache")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of the rendered table")
    parser.add_argument("--out", default=None,
                        help="also write the output to this file")
    parser.add_argument("--stats", action="store_true",
                        help="print the merged stats counters (and, on the "
                             "distributed backend, a per-worker throughput "
                             "summary) after each sweep")


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """Workload/system/grid options shared by ``sweep`` and ``submit``."""
    parser.add_argument("workload", nargs="?", default=None,
                        help="registered workload name (see 'repro list'); "
                             "optional when --scenario declares one")
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="load the scenario from a TOML or JSON file; "
                             "explicit flags overlay the file's values "
                             "(--grid/--param/--set merge in, the rest "
                             "replace)")
    parser.add_argument("--system", "-s", default=None,
                        help="comma-separated system presets "
                             "(default: the scenario file's, else cpu; "
                             "see 'repro list')")
    parser.add_argument("--grid", "-g", action="append", default=[],
                        metavar="PARAM=V1,V2,...",
                        help="sweep axis; repeatable, swept as a cartesian "
                             "product in the given order")
    parser.add_argument("--param", "-p", action="append", default=[],
                        metavar="PARAM=VALUE",
                        help="fixed workload parameter applied to every "
                             "point; repeatable")
    parser.add_argument("--set", action="append", default=[],
                        dest="overrides", metavar="PATH=VALUE",
                        help="dotted-path configuration override, e.g. "
                             "mttop.count=4 or l2.total_size_bytes=8MiB; "
                             "repeatable, applied to every system whose "
                             "configuration has the path")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload input seed (default: each workload's "
                             "own default)")
    parser.add_argument("--name", default=None,
                        help="scenario name, used for the cache subdirectory "
                             "(default: sweep-<workload>)")


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    """The service address flag every service-client command takes."""
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help=f"address of a running 'repro serve' (default: "
                             f"$REPRO_SERVICE or "
                             f"{default_service_address()!r})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures and tables of Hechtman & Sorin "
                    "(ISPASS 2013) via the parallel sweep harness, or run "
                    "ad-hoc workload x system scenarios with 'repro sweep'.")
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser(
        "list", help="list the registered sweeps, workloads and systems")
    listing.add_argument("--json", action="store_true",
                         help="emit a machine-readable JSON object instead "
                              "of the plain text listing")

    run = sub.add_parser("run", help="run one or more registered sweeps")
    run.add_argument("sweeps", nargs="+",
                     help="sweep names (see 'repro list'), or 'all'")
    run.add_argument("--full", action="store_true",
                     help="use the larger sweep grids "
                          "(default honours REPRO_FULL_SWEEP)")
    _add_execution_options(run)

    sweep = sub.add_parser(
        "sweep", help="run an ad-hoc workload x system x grid scenario")
    _add_scenario_options(sweep)
    _add_execution_options(sweep)

    dse = sub.add_parser(
        "dse", help="explore a memory-hierarchy design space and render "
                    "its Pareto frontier")
    dse.add_argument("--space", required=True, metavar="FILE",
                     help="TOML or JSON shape-space declaration "
                          "(axes over dotted config paths, optional "
                          "[fidelity] ladder)")
    dse.add_argument("--strategy", choices=("grid", "random", "halving"),
                     default="grid",
                     help="search strategy (default: grid; halving needs "
                          "the space to declare a fidelity ladder)")
    dse.add_argument("--budget", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="admissibility ceiling, e.g. sram=4MiB or "
                          "area=50; repeatable or comma-separated")
    dse.add_argument("--objective", default="time",
                     help="result column to minimise: time (time_ms), "
                          "dram (dram_accesses), or any row column "
                          "(default: time)")
    dse.add_argument("--cost", choices=("sram", "area", "latency"),
                     default="sram",
                     help="cost metric to minimise on the frontier's "
                          "other axis (default: sram)")
    dse.add_argument("--samples", type=_positive_int, default=None,
                     help="random strategy: how many shapes to sample")
    dse.add_argument("--eta", type=_positive_int, default=2,
                     help="halving strategy: keep ceil(n/eta) shapes per "
                          "fidelity rung (default: 2)")
    dse.add_argument("--seed", type=int, default=0,
                     help="search seed (random sampling; default: 0). The "
                          "workload input seed lives in the space file.")
    dse.add_argument("--replay", metavar="TRACE", default=None,
                     help="evaluate every shape by cache-only replay of this "
                          "captured trace (swaps the space's workload for "
                          "cache_replay and drops its fidelity ladder)")
    dse.add_argument("--all", action="store_true",
                     help="also render the dominated (non-frontier) shapes")
    _add_execution_options(dse)

    bench = sub.add_parser(
        "bench", help="benchmark-trajectory utilities")
    bench_sub = bench.add_subparsers(dest="action", required=True)
    bench_history = bench_sub.add_parser(
        "history", help="compare each benchmark's latest recorded rates "
                        "against its previous run")
    bench_history.add_argument(
        "--path", default=os.path.join("benchmarks", "results",
                                       "trajectory.jsonl"),
        help="trajectory file written by the benchmark runner "
             "(default: benchmarks/results/trajectory.jsonl)")
    bench_history.add_argument("--json", action="store_true",
                               help="emit a machine-readable JSON object")

    worker = sub.add_parser(
        "worker", help="serve sweep points to a distributed coordinator")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="address of the coordinator "
                             "('repro run ... --backend distributed')")
    worker.add_argument("--retry", type=float, default=30.0, metavar="SECONDS",
                        help="keep retrying the connection this long while "
                             "the coordinator comes up (default: 30)")
    worker.add_argument("--jobs", "-j", type=_positive_int, default=None,
                        help="points this worker executes concurrently "
                             "(default: $REPRO_WORKER_JOBS, else the CPU "
                             "count); >1 runs points on a local process pool")

    serve = sub.add_parser(
        "serve", help="run the always-on sweep service (job queue + fleet)")
    serve.add_argument("--bind", default=None, metavar="HOST:PORT",
                       help=f"address to listen on for workers and clients "
                            f"(default: $REPRO_BIND or {default_bind()!r}; "
                            f"port 0 picks a free port)")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="times a point lost to a dying worker is requeued "
                            "before it settles as failed (default: 3)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the per-job/per-worker log lines")
    serve.add_argument("--cache-dir", default=None,
                       help=f"result store every successful point is recorded "
                            f"to, with its job id and submitter in the "
                            f"provenance (default: $REPRO_CACHE_DIR or "
                            f"{default_cache_dir()!r})")
    serve.add_argument("--no-cache", action="store_true",
                       help="do not record results to a store")

    submit = sub.add_parser(
        "submit", help="submit a job to a running 'repro serve' and return")
    submit.add_argument("--sweep", default=None, metavar="NAME",
                        help="submit a registered sweep (see 'repro list') "
                             "instead of an ad-hoc scenario")
    submit.add_argument("--full", action="store_true",
                        help="with --sweep: use the larger sweep grid")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority; higher runs first (default: 0)")
    submit.add_argument("--submitter", default=None,
                        help="fair-share identity (default: user@host)")
    _add_scenario_options(submit)
    _add_service_options(submit)

    status = sub.add_parser(
        "status", help="show the service's jobs, workers and queue state")
    status.add_argument("job", nargs="?", default=None,
                        help="show only this job (default: all jobs)")
    status.add_argument("--json", action="store_true",
                        help="emit the raw status reply as JSON")
    _add_service_options(status)

    result = sub.add_parser(
        "result", help="wait for a job and render its results")
    result.add_argument("job", help="job id, as printed by 'repro submit'")
    result.add_argument("--csv", action="store_true",
                        help="emit CSV instead of the rendered table")
    result.add_argument("--out", default=None,
                        help="also write the output to this file")
    _add_service_options(result)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job", help="job id, as printed by 'repro submit'")
    _add_service_options(cancel)

    cache = sub.add_parser(
        "cache", help="inspect, prune, sync or verify the result store")
    cache_sub = cache.add_subparsers(dest="action", required=True)

    def _store_dir_flag(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--cache-dir", default=None,
            help=f"store directory (default: $REPRO_CACHE_DIR or "
                 f"{default_cache_dir()!r})")

    cache_info_cmd = cache_sub.add_parser(
        "info", help="summarise the store's entries per sweep")
    cache_info_cmd.add_argument("sweeps", nargs="*",
                                help="limit to these sweeps (default: all)")
    cache_info_cmd.add_argument("--json", action="store_true",
                                help="emit a machine-readable JSON object "
                                     "(includes quarantine and orphaned tmp "
                                     "counts)")
    _store_dir_flag(cache_info_cmd)

    cache_clear_cmd = cache_sub.add_parser(
        "clear", help="delete cached entries")
    cache_clear_cmd.add_argument("sweeps", nargs="*",
                                 help="limit to these sweeps (default: all)")
    _store_dir_flag(cache_clear_cmd)

    cache_push = cache_sub.add_parser(
        "push", help="copy entries into another store (idempotent, by "
                     "content address)")
    cache_push.add_argument("dest", metavar="DEST",
                            help="destination store directory (e.g. a "
                                 "shared mount)")
    cache_push.add_argument("sweeps", nargs="*",
                            help="limit to these sweeps (default: all)")
    _store_dir_flag(cache_push)

    cache_pull = cache_sub.add_parser(
        "pull", help="copy entries from another store into this one")
    cache_pull.add_argument("src", metavar="SRC",
                            help="source store directory")
    cache_pull.add_argument("sweeps", nargs="*",
                            help="limit to these sweeps (default: all)")
    _store_dir_flag(cache_pull)

    cache_gc = cache_sub.add_parser(
        "gc", help="prune entries by sweep/age/version; always collects "
                   "unreferenced objects and stale tmp files")
    cache_gc.add_argument("sweeps", nargs="*",
                          help="prune only these sweeps' entries")
    cache_gc.add_argument("--max-age-days", type=float, default=None,
                          metavar="DAYS",
                          help="prune entries whose provenance is older "
                               "than this")
    cache_gc.add_argument("--version", default=None, metavar="X.Y.Z",
                          help="prune entries computed by this repro "
                               "release ('legacy' selects migrated entries)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed, remove nothing")
    _store_dir_flag(cache_gc)

    cache_verify = cache_sub.add_parser(
        "verify", help="re-hash every object against its content-address "
                       "name")
    _store_dir_flag(cache_verify)
    return parser


# --------------------------------------------------------------------------- #
# list
# --------------------------------------------------------------------------- #
def _spec_point_counts(name: str) -> "tuple[int, int]":
    spec = get_spec(name)
    return len(spec.build_points(full=False)), len(spec.build_points(full=True))


def _list(args: argparse.Namespace) -> int:
    from repro.systems import get_system, system_names
    from repro.workloads.registry import variants_for, workload_names

    names = spec_names()
    if args.json:
        counts = {name: _spec_point_counts(name) for name in names}
        payload = {
            "sweeps": [
                {"name": name, "title": get_spec(name).title,
                 "points": counts[name][0],
                 "points_full": counts[name][1]}
                for name in names],
            "workloads": [
                {"name": workload,
                 "systems": sorted(variants_for(workload))}
                for workload in workload_names()],
            "systems": [
                {"name": name, "variant": get_system(name).variant,
                 "description": get_system(name).description}
                for name in system_names()],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("sweeps:")
    for name in names:
        points, points_full = _spec_point_counts(name)
        print(f"  {name:12s}  {points:3d} points ({points_full} with --full)  "
              f"{get_spec(name).title}")
    print("workloads (for 'repro sweep'):")
    for workload in workload_names():
        print(f"  {workload:14s}  systems: "
              f"{', '.join(sorted(variants_for(workload)))}")
    print("systems:")
    for name in system_names():
        preset = get_system(name)
        print(f"  {name:12s}  {preset.description}")
    return 0


# --------------------------------------------------------------------------- #
# run / sweep
# --------------------------------------------------------------------------- #
def _make_backend(args: argparse.Namespace):
    workers = args.workers if args.workers is not None else args.jobs
    if workers < 1:
        raise ValueError(f"--jobs/--workers must be >= 1, got {workers}")
    name = args.backend or ("process" if workers > 1 else "serial")
    return create_backend(name, jobs=workers, bind=args.bind,
                          min_workers=workers,
                          start_timeout=args.start_timeout,
                          connect=getattr(args, "connect", None)), name


def _reset_worker_stats(backend) -> None:
    """Clear a distributed backend's per-worker stats before a sweep.

    A sweep served entirely from the disk cache never calls
    ``backend.run()``, which is what reassigns ``last_run_worker_stats`` —
    without this reset, ``--stats`` would attribute the *previous* sweep's
    worker throughput to the cached one.
    """
    if hasattr(backend, "last_run_worker_stats"):
        backend.last_run_worker_stats = []


def _print_run_stats(outcome, backend) -> None:
    print(outcome.stats.render())
    worker_stats = getattr(backend, "last_run_worker_stats", None)
    if worker_stats:
        print("per-worker throughput:")
        for entry in worker_stats:
            print(f"  {entry.worker} ({entry.slots} slot(s)): "
                  f"{entry.points} points in {entry.wall_s:.1f}s wall "
                  f"({entry.points_per_s:.2f} points/s, "
                  f"{entry.busy_s:.1f}s busy)")


def _emit(args: argparse.Namespace, results, render) -> str:
    """Render one sweep's ResultSet as a table or CSV, per the flags."""
    if args.csv:
        return results.to_csv(formatted=True)
    return render()


def _finish_outputs(args: argparse.Namespace, outputs: List[str]) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(outputs) + "\n")
    return 0


def _run(args: argparse.Namespace) -> int:
    from repro.api import ResultSet

    names = list(args.sweeps)
    if names == ["all"]:
        names = spec_names()
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    backend, backend_name = _make_backend(args)
    full = args.full or full_sweep_enabled()

    outputs: List[str] = []
    with backend:
        runner = SweepRunner(cache_dir=cache_dir, backend=backend)
        for name in names:
            spec = get_spec(name)
            started = time.monotonic()
            _reset_worker_stats(backend)
            outcome = runner.run_spec(spec, full=full)
            elapsed = time.monotonic() - started
            results = ResultSet.from_outcome(outcome)
            text = _emit(args, results, lambda: spec.render(outcome.result))
            outputs.append(text)
            print(text)
            fresh = outcome.points_total - outcome.points_from_cache
            print(f"[{name}] {outcome.points_total} points "
                  f"({fresh} simulated, {outcome.points_from_cache} cached) "
                  f"in {elapsed:.1f}s on the {backend_name} backend",
                  file=sys.stderr)
            if args.stats:
                _print_run_stats(outcome, backend)
            print()

    return _finish_outputs(args, outputs)


def _parse_pairs(pairs: List[str], flag: str, *,
                 split_values: bool) -> Dict[str, object]:
    # The same scalar rules ResultSet.from_csv uses, so a value typed on
    # the command line and one round-tripped through CSV parse identically.
    from repro.api import parse_scalar

    parsed: Dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise HarnessError(
                f"{flag} expects KEY=VALUE, got {pair!r}")
        if split_values:
            parsed[key] = tuple(parse_scalar(part)
                                for part in value.split(",") if part != "")
        else:
            parsed[key] = parse_scalar(value)
    return parsed


def _build_scenario(args: argparse.Namespace):
    """Assemble the :class:`~repro.api.Scenario` behind ``sweep``/``submit``."""
    from repro.api import Scenario

    systems = tuple(name for name in (args.system or "").split(",") if name)
    grid = _parse_pairs(args.grid, "--grid", split_values=True)
    params = _parse_pairs(args.param, "--param", split_values=False)
    # Override values stay as strings; apply_overrides coerces them to the
    # target field's type (so 8MiB, 0.5, true all work).
    overrides: Dict[str, object] = {}
    for pair in args.overrides:
        path, sep, value = pair.partition("=")
        if not sep or not path:
            raise HarnessError(f"--set expects PATH=VALUE, got {pair!r}")
        overrides[path] = value

    if args.scenario:
        from repro.scenario_io import scenario_from_file

        scenario = scenario_from_file(
            args.scenario, cli_systems=systems or None,
            cli_grid=grid or None, cli_params=params or None,
            cli_overrides=overrides or None, cli_seed=args.seed,
            cli_name=args.name, cli_workload=args.workload)
    else:
        if not args.workload:
            raise HarnessError(
                "repro sweep needs a workload name (or --scenario FILE)")
        scenario = Scenario(workload=args.workload,
                            systems=systems or ("cpu",), grid=grid,
                            params=params, overrides=overrides,
                            seed=args.seed, name=args.name)
    return scenario


def _scenario_title(scenario) -> str:
    """The table title ``sweep`` renders (and ``submit`` stashes in meta)."""
    shown = scenario.overrides
    return (f"{scenario.workload} on {', '.join(scenario.systems)}"
            + (f" [{', '.join(f'{k}={v}' for k, v in shown.items())}]"
               if shown else ""))


def _sweep(args: argparse.Namespace) -> int:
    from repro.api import ResultSet

    scenario = _build_scenario(args)
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    backend, backend_name = _make_backend(args)

    with backend:
        runner = SweepRunner(cache_dir=cache_dir, backend=backend)
        started = time.monotonic()
        _reset_worker_stats(backend)
        outcome = runner.run_points(scenario.points(),
                                    spec_name=scenario.name)
        elapsed = time.monotonic() - started
        results = ResultSet.from_outcome(outcome)
        title = _scenario_title(scenario)
        text = _emit(args, results, lambda: results.render(title=title))
        print(text)
        fresh = outcome.points_total - outcome.points_from_cache
        print(f"[{scenario.name}] {outcome.points_total} points "
              f"({fresh} simulated, {outcome.points_from_cache} cached) "
              f"in {elapsed:.1f}s on the {backend_name} backend",
              file=sys.stderr)
        if args.stats:
            _print_run_stats(outcome, backend)

    return _finish_outputs(args, [text])


# --------------------------------------------------------------------------- #
# dse
# --------------------------------------------------------------------------- #
#: CLI shorthand -> result-row / cost-metric column names.
_DSE_OBJECTIVES = {"time": "time_ms", "dram": "dram_accesses"}
_DSE_COSTS = {"sram": "sram_bytes", "area": "area_mm2",
              "latency": "latency_ns"}


def _dse(args: argparse.Namespace) -> int:
    from repro.dse.budget import Budget
    from repro.dse.search import Explorer, create_strategy
    from repro.dse.space import ShapeSpace, space_from_file

    space = space_from_file(args.space)
    if args.replay is not None:
        # Same axes, same base system, same budget semantics — but every
        # shape is scored by walking the captured trace through a bare
        # hierarchy instead of re-simulating the workload.  The fidelity
        # ladder is meaningless for a fixed trace, so it is dropped.
        space = ShapeSpace(workload="cache_replay", system=space.system,
                           axes=space.axes,
                           params={"trace": args.replay},
                           overrides=space.overrides, fidelity=None,
                           seed=space.seed, name=f"{space.name}-replay")
    budget = Budget.parse(args.budget)
    objective = _DSE_OBJECTIVES.get(args.objective, args.objective)
    cost = _DSE_COSTS[args.cost]
    strategy = create_strategy(args.strategy, samples=args.samples,
                               seed=args.seed, eta=args.eta)
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    backend, backend_name = _make_backend(args)

    started = time.monotonic()
    with backend:
        explorer = Explorer(space, budget=budget, objective=objective,
                            cost=cost, backend=backend, cache_dir=cache_dir)
        exploration = explorer.explore(strategy, include_dominated=args.all)
    elapsed = time.monotonic() - started

    results = exploration.result
    title = (f"{space.name}: {space.workload} Pareto frontier "
             f"({objective} vs {cost})")
    text = _emit(args, results, lambda: results.render(title=title))
    print(text)
    stats = exploration.stats
    admitted = stats.shapes_total - stats.shapes_pruned
    print(f"[{space.name}] {strategy.name} explored {admitted} of "
          f"{stats.shapes_total} shapes ({stats.shapes_pruned} pruned) — "
          f"{stats.points_simulated} simulated, "
          f"{stats.points_cached} cached, "
          f"{stats.points_cancelled} cancelled — in {elapsed:.1f}s on the "
          f"{backend_name} backend", file=sys.stderr)
    if args.stats:
        for name, value in stats.to_dict().items():
            print(f"  {name} = {value}")
        for pruned in exploration.pruned:
            print(f"  pruned {pruned.shape.shape_id}: {pruned.reason}")

    return _finish_outputs(args, [text])


# --------------------------------------------------------------------------- #
# bench
# --------------------------------------------------------------------------- #
#: Non-rate trajectory fields compared alongside the ``*_per_s`` rates.
_BENCH_EXTRA_METRICS = ("speedup",)


def _bench_records(path: str) -> "Dict[str, List[Dict[str, object]]]":
    """Trajectory records grouped by benchmark, in file (= time) order.

    Malformed lines are skipped — the trajectory file is append-only
    across many runs and releases, and one torn write must not make the
    whole history unreadable.  A missing file is an empty history, not
    an error: a fresh checkout simply has no prior record yet.
    """
    grouped: Dict[str, List[Dict[str, object]]] = {}
    if not os.path.exists(path):
        return grouped
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            benchmark = record.get("benchmark")
            if isinstance(benchmark, str) and benchmark:
                grouped.setdefault(benchmark, []).append(record)
    return grouped


def _bench_metrics(record: Dict[str, object]) -> "Dict[str, float]":
    """The comparable numbers of one record: ``*_per_s`` rates + extras."""
    metrics: Dict[str, float] = {}
    for name in sorted(record):
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if name.endswith("_per_s") or name in _BENCH_EXTRA_METRICS:
            metrics[name] = float(value)
    return metrics


def _bench_history(args: argparse.Namespace) -> int:
    grouped = _bench_records(args.path)
    if not grouped:
        # Nothing recorded yet (fresh checkout, or the benchmarks have
        # not run twice).  That is a clean "no prior record" report, not
        # a failure — CI runs this before the first trajectory exists.
        if args.json:
            print(json.dumps({"path": args.path, "benchmarks": []},
                             indent=2))
        else:
            print(f"{args.path}: no prior record")
        return 0

    report = []
    for benchmark in sorted(grouped):
        records = grouped[benchmark]
        latest, previous = records[-1], \
            (records[-2] if len(records) > 1 else None)
        latest_metrics = _bench_metrics(latest)
        previous_metrics = _bench_metrics(previous) if previous else {}
        metrics = []
        for name, value in latest_metrics.items():
            entry: Dict[str, object] = {"name": name, "latest": value}
            baseline = previous_metrics.get(name)
            if baseline is not None:
                entry["previous"] = baseline
                if baseline != 0:
                    entry["delta_pct"] = round(
                        (value - baseline) / baseline * 100.0, 2)
            metrics.append(entry)
        report.append({"benchmark": benchmark, "runs": len(records),
                       "created_at": latest.get("created_at"),
                       "git_sha": latest.get("git_sha"),
                       "metrics": metrics})

    if args.json:
        print(json.dumps({"path": args.path, "benchmarks": report},
                         indent=2))
        return 0
    for entry in report:
        header = f"{entry['benchmark']}: {entry['runs']} run(s)"
        if entry.get("created_at"):
            header += f", latest {entry['created_at']}"
        print(header)
        for metric in entry["metrics"]:
            line = f"  {metric['name']:32s} {metric['latest']:>14,.2f}"
            if "previous" in metric:
                line += f"  (was {metric['previous']:>14,.2f}"
                if "delta_pct" in metric:
                    line += f", {metric['delta_pct']:+.1f}%"
                line += ")"
            else:
                line += "  (no previous run)"
            print(line)
    return 0


# --------------------------------------------------------------------------- #
# serve / submit / status / result / cancel (the sweep service)
# --------------------------------------------------------------------------- #
def _serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_service

    cache_dir = None if args.no_cache \
        else (args.cache_dir or default_cache_dir())
    return run_service(args.bind or default_bind(),
                       max_retries=args.max_retries, quiet=args.quiet,
                       cache_dir=cache_dir)


def _submit(args: argparse.Namespace) -> int:
    import getpass
    import socket as socket_module

    from repro.api import JobSpec
    from repro.service.client import ServiceClient

    if args.sweep:
        spec = get_spec(args.sweep)
        points = spec.build_points(full=args.full or full_sweep_enabled())
        name = args.name or spec.name
        meta: Dict[str, object] = {"sweep": spec.name}
    else:
        scenario = _build_scenario(args)
        points = scenario.points()
        name = scenario.name
        meta = {"title": _scenario_title(scenario)}
    try:
        submitter = args.submitter or \
            f"{getpass.getuser()}@{socket_module.gethostname()}"
    except (KeyError, OSError):  # no passwd entry in minimal containers
        submitter = args.submitter or f"pid-{os.getpid()}"
    job = JobSpec.from_points(points, name=name, submitter=submitter,
                              priority=args.priority, meta=meta)
    with ServiceClient(args.connect) as client:
        job_id = client.submit(job)
    print(f"submitted {name} as {job_id}: {len(points)} point(s), "
          f"priority {args.priority}", file=sys.stderr)
    print(job_id)  # bare id on stdout, so scripts can capture it
    return 0


def _status(args: argparse.Namespace) -> int:
    from repro.api import JobStatus
    from repro.service.client import ServiceClient

    with ServiceClient(args.connect) as client:
        payload = client.status_payload(args.job)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    jobs = payload.get("jobs")
    statuses = [JobStatus.from_json(entry)
                for entry in (jobs if isinstance(jobs, list) else [])]
    if payload.get("draining"):
        print("service is draining: new submissions are refused")
    if not statuses:
        print("no jobs")
    else:
        width = max(len(status.job_id) for status in statuses)
        for status in statuses:
            line = (f"{status.job_id:{width}s}  {status.state.value:9s} "
                    f"{status.settled:4d}/{status.total:<4d} "
                    f"prio {status.priority:<3d} {status.name} "
                    f"(from {status.submitter})")
            if status.error:
                line += f"  [{status.error.splitlines()[0]}]"
            print(line)
    workers = payload.get("workers")
    for entry in (workers if isinstance(workers, list) else []):
        print(f"worker {entry.get('label')}: {entry.get('slots')} slot(s), "
              f"{entry.get('inflight')} in flight, "
              f"{entry.get('points_done')} done, "
              f"{entry.get('busy_s', 0.0):.1f}s busy")
    return 0


def _result(args: argparse.Namespace) -> int:
    from repro.api import ResultSet
    from repro.harness.spec import default_combine
    from repro.harness.wire import decode_result
    from repro.service.client import ServiceClient

    with ServiceClient(args.connect) as client:
        reply = client.result(args.job)
    state = str(reply.get("state"))
    entries = reply.get("points")
    entries = sorted(entries if isinstance(entries, list) else [],
                     key=lambda e: e.get("index", 0))
    failures = [entry for entry in entries if not entry.get("ok")]
    if failures or state != "done":
        for entry in failures:
            print(f"repro: point {entry.get('spec')}:{entry.get('point_id')} "
                  f"failed: {entry.get('error')}", file=sys.stderr)
        print(f"repro: job {args.job} {state}", file=sys.stderr)
        return 2
    groups: Dict[str, List[Dict[str, object]]] = {}
    for entry in entries:
        result = decode_result(str(entry.get("result", "")))
        groups.setdefault(str(entry.get("group") or "rows"),
                          []).extend(result.rows)
    combined = default_combine(groups)
    results = ResultSet.from_result(combined)
    meta = reply.get("meta")
    meta = meta if isinstance(meta, dict) else {}
    if meta.get("sweep"):
        # A registered sweep renders through its own spec, so `repro
        # result` of a submitted figure is byte-identical to `repro run`.
        spec = get_spec(str(meta["sweep"]))
        text = _emit(args, results, lambda: spec.render(combined))
    else:
        title = meta.get("title")
        text = _emit(args, results,
                     lambda: results.render(
                         title=str(title) if title else None))
    print(text)
    return _finish_outputs(args, [text])


def _cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient(args.connect) as client:
        status = client.cancel(args.job)
    print(f"{status.job_id}: {status.state.value} "
          f"({status.settled}/{status.total} points settled)")
    return 0


# --------------------------------------------------------------------------- #
# cache
# --------------------------------------------------------------------------- #
def _cache(args: argparse.Namespace) -> int:
    from repro.store import FileStore

    cache_dir = args.cache_dir or default_cache_dir()
    store = FileStore(cache_dir)

    if args.action == "verify":
        report = store.verify()
        if report.ok:
            print(f"cache {cache_dir}: {report.objects} object(s) verified")
            return 0
        for object_hash in report.mismatched:
            print(f"repro: object {object_hash} does not match its hash",
                  file=sys.stderr)
        for marker in report.dangling:
            print(f"repro: entry {marker} points at a missing object",
                  file=sys.stderr)
        print(f"cache {cache_dir}: {len(report.mismatched)} corrupt, "
              f"{len(report.dangling)} dangling of "
              f"{report.objects} object(s)")
        return 1

    if args.action in ("push", "pull"):
        other = FileStore(args.dest if args.action == "push" else args.src)
        specs = args.sweeps or None
        if args.action == "push":
            report = store.push(other, specs=specs)
            arrow = "->"
        else:
            report = store.pull(other, specs=specs)
            arrow = "<-"
        line = (f"cache {cache_dir} {arrow} {other.root}: "
                f"{report.entries_copied} entries copied, "
                f"{report.entries_skipped} up to date, "
                f"{report.objects_copied} object(s) transferred")
        if report.corrupt_skipped:
            line += f", {report.corrupt_skipped} corrupt skipped"
        print(line)
        return 0

    if args.action == "gc":
        report = store.gc(specs=args.sweeps or None,
                          max_age_days=args.max_age_days,
                          version=args.version, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"cache {cache_dir}: {verb} {report.entries_removed} "
              f"entries, {report.objects_removed} object(s) "
              f"({report.bytes_freed / 1024:.1f} KiB) and "
              f"{report.tmp_removed} tmp file(s)")
        return 0

    # info / clear
    store_info = store.info()
    infos = store_info.specs
    known = {info.spec for info in infos}
    missing = [name for name in args.sweeps if name not in known]
    if missing:
        print(f"repro: cache {cache_dir} has no entries for: "
              f"{', '.join(missing)}", file=sys.stderr)
    if args.sweeps:
        infos = [info for info in infos if info.spec in args.sweeps]
    if args.action == "info":
        if args.json:
            payload = {
                "root": store_info.root,
                "entries": sum(info.entries for info in infos),
                "objects": store_info.objects,
                "objects_bytes": store_info.objects_bytes,
                "quarantined": store_info.quarantined,
                "quarantined_bytes": store_info.quarantined_bytes,
                "orphan_tmp": store_info.orphan_tmp,
                "specs": [{"spec": info.spec, "entries": info.entries,
                           "bytes": info.bytes} for info in infos],
            }
            print(json.dumps(payload, indent=2))
            return 0
        if not infos:
            print(f"cache {cache_dir}: empty")
        else:
            total_entries = sum(info.entries for info in infos)
            total_bytes = sum(info.bytes for info in infos)
            width = max(len(info.spec) for info in infos)
            print(f"cache {cache_dir}:")
            for info in infos:
                print(f"  {info.spec:{width}s}  {info.entries:5d} entries  "
                      f"{info.bytes / 1024:8.1f} KiB")
            print(f"  {'total':{width}s}  {total_entries:5d} entries  "
                  f"{total_bytes / 1024:8.1f} KiB")
        if store_info.quarantined:
            print(f"  quarantine: {store_info.quarantined} file(s), "
                  f"{store_info.quarantined_bytes / 1024:.1f} KiB "
                  f"(under {os.path.join(cache_dir, 'quarantine')})")
        if store_info.orphan_tmp:
            print(f"  orphaned tmp files: {store_info.orphan_tmp} "
                  f"(an interrupted writer; 'repro cache gc' removes them)")
        return 0
    removed = store.clear(specs=args.sweeps or None) \
        if os.path.isdir(cache_dir) else 0
    print(f"cache {cache_dir}: removed {removed} entries")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro`` console script)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_request:
        # argparse already printed the usage error (or help); fold its exit
        # code into the return-code contract this function has with tests
        # and the console script.
        code = exit_request.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "list":
            return _list(args)
        if args.command == "worker":
            return run_worker(args.connect, retry_seconds=args.retry,
                              jobs=args.jobs)
        if args.command == "cache":
            return _cache(args)
        if args.command == "sweep":
            return _sweep(args)
        if args.command == "dse":
            return _dse(args)
        if args.command == "bench":
            return _bench_history(args)
        if args.command == "serve":
            return _serve(args)
        if args.command == "submit":
            return _submit(args)
        if args.command == "status":
            return _status(args)
        if args.command == "result":
            return _result(args)
        if args.command == "cancel":
            return _cancel(args)
        return _run(args)
    except (ReproError, ValueError, OSError) as error:
        # OSError covers ConnectionError plus socket setup failures such as
        # an already-bound coordinator port; ReproError covers the harness
        # plus the scenario / registry / override errors of repro.api.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
