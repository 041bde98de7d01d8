"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``profile MODEL``      — profile one iteration, print summary (optionally
                           save the trace or a Chrome-trace JSON);
* ``whatif MODEL``       — what-if report; ``--opt`` picks optimizations
                           from the registry (repeatable), default is every
                           applicable one;
* ``run SCENARIO.json``  — execute a declared scenario or scenario grid;
* ``sweep GRID.json``    — batch-execute a grid over the multiprocess
                           executor and a persistent result store
                           (``--jobs``, ``--store``, ``--resume``,
                           ``--force``, ``--start-method``, ``--remote``
                           for a read-through shared tier with
                           ``--remote-timeout``/``--remote-backoff``
                           transport knobs, ``--max-cell-retries`` for
                           worker-crash recovery);
* ``experiment NAME``    — regenerate one paper table/figure
                           (fig1, table1, fig5, fig6, fig7, fig8, fig9,
                           fig9b, fig10-resnet50, fig10-vgg19, sec52,
                           sec64, sec75); ``--store``/``--jobs``/
                           ``--force`` cache engine ground truth in a
                           sweep store;
* ``store ACTION DIR``   — manage a sweep store (``stats``, ``gc``,
                           ``prune``, ``verify``, and the shared-tier
                           actions ``serve``, ``push``, ``pull``);
* ``serve-predict``      — run the persistent prediction daemon: an LRU
                           pool of warm sessions answering scenario-JSON
                           ``POST /predict`` queries over HTTP, memoized
                           on a sweep store (``--workers``,
                           ``--max-sessions``, ``--auth-token``,
                           ``--store``/``--remote`` tiers);
* ``models``             — list available models;
* ``optimizations``      — list the optimization registry.
"""

import argparse
import inspect
import json
import sys

from repro.analysis.report import quick_report
from repro.analysis.session import WhatIfSession
from repro.common.errors import DaydreamError
from repro.models.registry import available_models
from repro.scenarios import (
    DEFAULT_MAX_CELL_RETRIES,
    DEFAULT_MAX_SESSIONS,
    DEFAULT_WORKERS,
    START_METHODS,
    ClusterShape,
    HTTPBackend,
    OptimizationPipeline,
    PredictServer,
    PredictService,
    ScenarioRunner,
    StoreServer,
    SweepStore,
    default_registry,
    store_salt,
    sync_retry_policy,
)
from repro.tracing.export import trace_to_chrome
from repro.tracing.trace import render_timeline


def cmd_models(_args) -> int:
    for name in available_models():
        print(name)
    return 0


def cmd_optimizations(_args) -> int:
    registry = default_registry()
    for spec in registry.specs():
        print(f"{spec.key:24s} {spec.summary}")
        for param in spec.params:
            print(f"{'':24s}   --opt '{spec.key}={{\"{param.name}\": ...}}'"
                  f"  ({param.kind}, default {param.default!r}: {param.doc})")
    return 0


def cmd_profile(args) -> int:
    session = WhatIfSession.profile(args.model, batch_size=args.batch_size)
    trace = session.trace
    print(f"{args.model}: {trace.duration_us / 1000:.2f} ms/iteration, "
          f"{len(trace)} events on {len(trace.threads())} threads")
    breakdown = session.breakdown()
    print(f"  cpu-only {breakdown.cpu_only_us / 1000:.1f} ms | "
          f"gpu-only {breakdown.gpu_only_us / 1000:.1f} ms | "
          f"parallel {breakdown.parallel_us / 1000:.1f} ms")
    print(render_timeline(trace, width=90))
    if args.save:
        trace.save(args.save)
        print(f"trace saved to {args.save}")
    if args.chrome:
        with open(args.chrome, "w") as f:
            f.write(trace_to_chrome(trace))
        print(f"chrome trace saved to {args.chrome} "
              "(load in chrome://tracing)")
    return 0


def _parse_opt_flag(value: str):
    """Parse one ``--opt`` value: a registry key or ``key={json params}``."""
    if "=" not in value:
        return value
    key, _, params = value.partition("=")
    try:
        parsed = json.loads(params)
    except json.JSONDecodeError as exc:
        raise DaydreamError(f"--opt {key}: bad params JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise DaydreamError(f"--opt {key}: params must be a JSON object")
    return {"name": key, "params": parsed}


def _parse_cluster_flag(shape: str, bandwidth: float) -> ClusterShape:
    """Parse ``--cluster MxG`` plus ``--bandwidth`` into a ClusterShape."""
    try:
        machines, _, gpus = shape.partition("x")
        return ClusterShape(machines=int(machines),
                            gpus_per_machine=int(gpus or "1"),
                            bandwidth_gbps=bandwidth)
    except ValueError:
        raise DaydreamError(
            f"--cluster wants the paper's MxG notation (e.g. 4x2), "
            f"got {shape!r}") from None


def cmd_whatif(args) -> int:
    registry = default_registry()
    session = WhatIfSession.profile(args.model, batch_size=args.batch_size)
    cluster = None
    if args.cluster:
        shape = _parse_cluster_flag(args.cluster, args.bandwidth)
        cluster = shape.build(default_gpu=session.config.gpu)
    if args.opt:
        # --opt flags compose one validated stack (a single flag is a
        # one-member stack: same path, same prerequisite diagnostics)
        entries = [_parse_opt_flag(v) for v in args.opt]
        optimizations = [OptimizationPipeline(entries, registry=registry)]
    else:
        optimizations = registry.whatif_defaults(session.trace.metadata)
    report = quick_report(session, optimizations, cluster=cluster)
    print(report.render())
    return 0


def cmd_run(args) -> int:
    runner = ScenarioRunner()
    outcomes = runner.run_file(args.scenario, parallel=args.jobs)
    result = runner.to_result(outcomes, experiment="scenario",
                              title=f"Scenarios from {args.scenario}")
    print(result.render())
    return 0


def _remote_tier(url, timeout_s: float, backoff_s: float,
                 auth_token=None):
    """Build the HTTP remote tier carrying the CLI's transport knobs.

    ``--remote-timeout`` caps each request; ``--remote-backoff`` seeds
    the escalating down-window an unreachable remote is parked behind;
    ``--auth-token`` is the Bearer token an admin-mode server requires
    on PUT/DELETE.
    """
    if url is None:
        return None
    return HTTPBackend(url, timeout_s=timeout_s, backoff_s=backoff_s,
                       auth_token=auth_token)


def cmd_sweep(args) -> int:
    import time

    if args.remote and not args.store:
        raise DaydreamError("--remote needs --store: the local store is "
                            "the write-back cache the remote tier reads "
                            "through into")
    remote = _remote_tier(args.remote, args.remote_timeout,
                          args.remote_backoff, args.auth_token)
    store = SweepStore(args.store, remote=remote) if args.store \
        else None
    # --no-resume and --force both mean "do not trust prior entries";
    # either way fresh rows are written back to the store
    force = args.force or not args.resume
    runner = ScenarioRunner()

    def progress(done, total, cell):
        tag = "cached" if cell.cached else "computed"
        print(f"  [{done}/{total}] {tag} {cell.scenario.label()}",
              file=sys.stderr)

    t0 = time.perf_counter()
    outcomes = runner.run_file(args.scenario, parallel=args.jobs,
                               store=store, force=force, progress=progress,
                               start_method=args.start_method,
                               max_cell_retries=args.max_cell_retries)
    elapsed = time.perf_counter() - t0
    result = runner.to_result(outcomes, experiment="sweep",
                              title=f"Sweep of {args.scenario}")
    print(result.render())
    hits = sum(1 for o in outcomes if o.cached)
    summary = (f"{len(outcomes)} cell(s) in {elapsed:.2f}s — "
               f"{hits} from store, {len(outcomes) - hits} computed")
    if store is not None:
        summary += f" (store: {store.root}, {len(store)} entries"
        if args.remote:
            summary += f", {store.stats.remote_hits} via remote"
        summary += ")"
    print(summary, file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import experiment_runners

    runners = experiment_runners()
    if args.name not in runners:
        print(f"unknown experiment {args.name!r}; "
              f"choose from {sorted(runners)}", file=sys.stderr)
        return 2
    runner = runners[args.name]
    if args.remote and not args.store:
        raise DaydreamError("--remote needs --store: the local store is "
                            "the write-back cache the remote tier reads "
                            "through into")
    # hand each experiment only the flags its runner understands, and say
    # so when a requested flag would be silently ignored
    offered = {
        "store": (SweepStore(args.store,
                             remote=_remote_tier(args.remote,
                                                 args.remote_timeout,
                                                 args.remote_backoff,
                                                 args.auth_token))
                  if args.store else None),
        "jobs": args.jobs,
        "force": args.force or None,
        "models": ([m.strip() for m in args.models.split(",") if m.strip()]
                   if args.models else None),
    }
    params = inspect.signature(runner).parameters
    kwargs = {}
    for name, value in offered.items():
        if value is None:
            continue
        if name in params:
            kwargs[name] = value
        else:
            print(f"note: experiment {args.name!r} does not take "
                  f"--{name.replace('_', '-')}; ignoring it",
                  file=sys.stderr)
    print(runner(**kwargs).render())
    if "store" in kwargs:
        store = kwargs["store"]
        print(f"store: {store.root} — {len(store)} entries, "
              f"{store.stats.hits} hit(s), {store.stats.writes} write(s) "
              "this run", file=sys.stderr)
    return 0


def cmd_store(args) -> int:
    store = SweepStore(args.dir)
    if args.action == "stats":
        verify = store.verify()
        payload = {
            "root": store.root,
            "entries": len(store),
            "bytes": store.total_bytes(),
            "salt": store_salt(store.registry),
            "live": len(verify.live),
            "stale": len(verify.stale),
            "corrupt": len(verify.corrupt),
        }
        if args.remote:
            # the hub's own GET /stats probe rides along (loud: a dead
            # hub fails the command rather than printing silence)
            payload["remote"] = HTTPBackend(args.remote).stats()
        print(json.dumps(payload, indent=2))
        return 0
    if args.action == "gc":
        report = store.gc(max_bytes=args.max_bytes)
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    if args.action == "prune":
        report = store.prune(keep_salt=args.salt)
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    if args.action == "verify":
        report = store.verify()
        print(json.dumps(report.as_dict(), indent=2))
        if not report.ok:
            print("store has untrustworthy entries; run "
                  "'repro store gc' to remove them", file=sys.stderr)
            return 1
        return 0
    if args.action == "serve":
        server = StoreServer(store.root, host=args.host, port=args.port,
                             read_only=args.read_only,
                             auth_token=args.auth_token)
        mode = "read-only" if args.read_only else (
            "admin-token" if args.auth_token else "read-write")
        span = (f"for {args.duration:g}s" if args.duration is not None
                else "until interrupted")
        print(f"serving {store.root} at {server.url}/ ({mode}) {span}",
              file=sys.stderr)
        try:
            server.serve(duration_s=args.duration)
        except KeyboardInterrupt:
            pass
        return 0
    if args.action in ("push", "pull"):
        remote = _remote_tier(args.remote, args.remote_timeout,
                              args.remote_backoff, args.auth_token)
        retry = sync_retry_policy(retries=args.retries)
        if args.action == "push":
            report = store.push(remote, force=args.force, retry=retry,
                                since=args.since)
        else:
            report = store.pull(remote, retry=retry, since=args.since)
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    raise AssertionError(f"unhandled store action {args.action!r}")


def cmd_serve_predict(args) -> int:
    if args.remote and not args.store:
        raise DaydreamError("--remote needs --store: the local store is "
                            "the write-back cache the remote tier reads "
                            "through into")
    remote = _remote_tier(args.remote, args.remote_timeout,
                          args.remote_backoff)
    store = SweepStore(args.store, remote=remote) if args.store else None
    service = PredictService(store=store, max_sessions=args.max_sessions,
                             workers=args.workers)
    server = PredictServer(service, host=args.host, port=args.port,
                           auth_token=args.auth_token)
    memo = f"memoized on {store.root}" if store is not None else "unmemoized"
    if args.remote:
        memo += f" + remote {args.remote}"
    gate = "token-gated" if args.auth_token else "open"
    span = (f"for {args.duration:g}s" if args.duration is not None
            else "until interrupted")
    print(f"predicting at {server.url}/predict ({gate}, {memo}, "
          f"{args.max_sessions} warm sessions, {args.workers} workers) "
          f"{span}", file=sys.stderr)
    try:
        server.serve(duration_s=args.duration)
    except KeyboardInterrupt:
        pass
    return 0


def _job_count(value: str) -> int:
    """argparse type for ``--jobs``: a worker count of at least 1."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {value!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 worker, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Daydream reproduction: what-if analysis for DNN training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list available models")
    sub.add_parser("optimizations",
                   help="list the optimization registry (keys + parameters)")

    profile = sub.add_parser("profile", help="profile one training iteration")
    profile.add_argument("model")
    profile.add_argument("--batch-size", type=int, default=None)
    profile.add_argument("--save", help="write the trace JSON here")
    profile.add_argument("--chrome", help="write a chrome://tracing JSON here")

    whatif = sub.add_parser("whatif", help="what-if report from the registry")
    whatif.add_argument("model")
    whatif.add_argument("--batch-size", type=int, default=None)
    whatif.add_argument(
        "--opt", action="append", default=None, metavar="NAME[=PARAMS]",
        help="registry optimization to evaluate; PARAMS is a JSON object, "
             "e.g. --opt 'gist={\"lossy\": true}'.  Repeated flags compose "
             "one ordered stack.  Default: every applicable registered "
             "optimization, compared individually")
    whatif.add_argument("--cluster", default=None, metavar="MxG",
                        help="target cluster for communication what-ifs, "
                             "e.g. 4x2")
    whatif.add_argument("--bandwidth", type=float, default=10.0,
                        help="network bandwidth in Gbps (with --cluster)")

    run = sub.add_parser("run", help="execute a scenario JSON file "
                                     "(single scenario or grid)")
    run.add_argument("scenario", help="path to the scenario/grid JSON")
    run.add_argument("--jobs", "--processes", dest="jobs", type=_job_count,
                     default=None, metavar="N",
                     help="worker processes for a grid (default: one per "
                          "CPU); --processes is an alias")

    sweep = sub.add_parser(
        "sweep", help="batch-execute a scenario grid over the process-pool "
                      "executor and a persistent result store")
    sweep.add_argument("scenario", help="path to the scenario/grid JSON")
    sweep.add_argument("--jobs", type=_job_count, default=None, metavar="N",
                       help="worker processes (default: one per CPU)")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="persistent result store directory; cells "
                            "already stored are served without simulation")
    sweep.add_argument("--resume", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="reuse results already in the store (default; "
                            "--no-resume recomputes but still writes back)")
    sweep.add_argument("--force", action="store_true",
                       help="recompute every cell, overwriting store entries")
    sweep.add_argument("--start-method", default=None,
                       choices=list(START_METHODS),
                       help="worker start method: fork inherits runtime "
                            "state, spawn rebuilds it from a pickled "
                            "manifest (macOS/Windows), serial disables "
                            "the pool; default picks automatically")
    sweep.add_argument("--remote", default=None, metavar="URL",
                       help="read-through remote store tier (a 'repro "
                            "store serve' URL); local misses consult it, "
                            "verified entries cache locally, and an "
                            "unreachable or corrupt remote is just a "
                            "miss.  Needs --store")
    sweep.add_argument("--max-cell-retries", type=int,
                       default=DEFAULT_MAX_CELL_RETRIES, metavar="N",
                       help="requeues one cell gets after its chunk "
                            "crashed a worker before it is quarantined "
                            "and re-run serially in the parent "
                            f"(default {DEFAULT_MAX_CELL_RETRIES})")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name")
    experiment.add_argument("--store", nargs="?", const=".sweep-store",
                            default=None, metavar="DIR",
                            help="cache engine ground truth (and, where "
                                 "supported, predictions) in this sweep "
                                 "store; bare --store uses ./.sweep-store")
    experiment.add_argument("--jobs", type=_job_count, default=None,
                            metavar="N",
                            help="fan measurements/predictions across N "
                                 "processes (experiments that support it)")
    experiment.add_argument("--force", action="store_true",
                            help="recompute cached measurements, "
                                 "overwriting store entries")
    experiment.add_argument("--models", default=None, metavar="A,B",
                            help="comma-separated model subset "
                                 "(experiments that take a model list)")
    experiment.add_argument("--remote", default=None, metavar="URL",
                            help="read-through remote tier for the sweep "
                                 "store: cached ground truth is served "
                                 "from the shared server when present "
                                 "(needs --store)")

    store = sub.add_parser(
        "store", help="manage a persistent sweep-result store")
    store_sub = store.add_subparsers(dest="action", required=True)
    stats = store_sub.add_parser(
        "stats", help="entry counts, byte totals and the active salt")
    stats.add_argument("--remote", default=None, metavar="URL",
                       help="also probe a store server's GET /stats "
                            "(entries, bytes, live leases, uptime)")
    gc = store_sub.add_parser(
        "gc", help="delete corrupt/stale entries, then evict "
                   "least-recently-served entries to a byte budget")
    gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="evict LRU entries until the store fits in N "
                         "bytes (default: only remove dead entries)")
    prune = store_sub.add_parser(
        "prune", help="drop every entry outside one salt generation")
    prune.add_argument("--salt", default=None, metavar="SALT",
                       help="generation to keep (default: the current "
                            "registry salt)")
    verify = store_sub.add_parser(
        "verify", help="audit every entry without mutating anything "
                       "(exit 1 if any entry is stale or corrupt)")
    serve = store_sub.add_parser(
        "serve", help="publish this store over HTTP so other hosts can "
                      "read through it (--remote) and push/pull")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; use "
                            "0.0.0.0 to serve other hosts)")
    serve.add_argument("--port", type=int, default=8231, metavar="N",
                       help="bind port (default 8231; 0 picks a free one, "
                            "printed on stderr)")
    serve.add_argument("--duration", type=float, default=None, metavar="S",
                       help="serve for S seconds then exit 0 (default: "
                            "serve until interrupted)")
    serve.add_argument("--auth-token", default=None, metavar="TOKEN",
                       help="admin mode: require this Bearer token "
                            "(constant-time compared) on PUT/DELETE; "
                            "reads and lease claims stay open")
    serve.add_argument("--read-only", action="store_true",
                       help="refuse PUT/DELETE (clients can read through "
                            "and pull, but not push)")
    push = store_sub.add_parser(
        "push", help="publish every live local entry to a remote store "
                     "server (only entries that verify under the current "
                     "salt travel)")
    push.add_argument("--force", action="store_true",
                      help="re-upload entries the server already lists "
                           "(repairs a corrupt remote copy left by an "
                           "interrupted transfer)")
    pull = store_sub.add_parser(
        "pull", help="replicate every trustworthy remote entry into this "
                     "store (corrupt or version-skewed entries are "
                     "rejected, never written)")
    for action in (push, pull):
        action.add_argument("--remote", required=True, metavar="URL",
                            help="base URL of a 'repro store serve' server")
        action.add_argument("--retries", type=int, default=2, metavar="N",
                            help="extra attempts per transfer operation "
                                 "after the first fails transiently "
                                 "(default 2); exhausting them fails "
                                 "loudly with the partial progress so far")
        action.add_argument("--since", type=float, default=None,
                            metavar="CLOCK",
                            help="override the journaled delta-sync clock "
                                 "(seconds since the epoch, as reported "
                                 "by the previous sync); 0 relists the "
                                 "remote in full — the repair path when "
                                 "hub state changed behind the journal's "
                                 "back")
    serve_predict = sub.add_parser(
        "serve-predict",
        help="run the persistent prediction daemon: warm what-if sessions "
             "answering scenario-JSON queries over HTTP, memoized on a "
             "sweep store")
    serve_predict.add_argument("--host", default="127.0.0.1",
                               help="bind address (default 127.0.0.1; use "
                                    "0.0.0.0 to serve other hosts)")
    serve_predict.add_argument("--port", type=int, default=8232, metavar="N",
                               help="bind port (default 8232; 0 picks a "
                                    "free one, printed on stderr)")
    serve_predict.add_argument("--workers", type=int,
                               default=DEFAULT_WORKERS, metavar="N",
                               help="concurrent simulations served at once "
                                    f"(default {DEFAULT_WORKERS}); extra "
                                    "requests queue")
    serve_predict.add_argument("--max-sessions", type=int,
                               default=DEFAULT_MAX_SESSIONS, metavar="N",
                               help="warm per-workload sessions, and "
                                    "cached model specs, kept in the LRU "
                                    f"pool (default {DEFAULT_MAX_SESSIONS})")
    serve_predict.add_argument("--auth-token", default=None, metavar="TOKEN",
                               help="require this Bearer token "
                                    "(constant-time compared) on POST "
                                    "/predict and /predict/batch; the GET "
                                    "/healthz and /stats probes stay open")
    serve_predict.add_argument("--store", default=None, metavar="DIR",
                               help="memoize answers in this sweep store "
                                    "(same canonical keys and salt as "
                                    "'repro sweep'); repeat queries cost "
                                    "one store read")
    serve_predict.add_argument("--remote", default=None, metavar="URL",
                               help="read-through remote store tier (a "
                                    "'repro store serve' URL) behind the "
                                    "local memo.  Needs --store")
    serve_predict.add_argument("--duration", type=float, default=None,
                               metavar="S",
                               help="serve for S seconds then exit 0 "
                                    "(default: serve until interrupted)")
    # every surface that opens an HTTP remote tier exposes its transport
    # knobs; the defaults match HTTPBackend's
    for surface in (sweep, experiment, push, pull, serve_predict):
        surface.add_argument("--remote-timeout", type=float, default=5.0,
                             metavar="S",
                             help="per-request timeout for the remote "
                                  "store tier, in seconds (default 5)")
        surface.add_argument("--remote-backoff", type=float, default=30.0,
                             metavar="S",
                             help="base down-window after the remote tier "
                                  "fails at the transport level; repeated "
                                  "failures escalate it exponentially and "
                                  "a success resets it (default 30)")
    # serve-predict's --auth-token (above) gates its own POST endpoints,
    # so only these surfaces take the remote-admin meaning of the flag
    for surface in (sweep, experiment, push, pull):
        surface.add_argument("--auth-token", default=None, metavar="TOKEN",
                             help="Bearer token for an admin-mode remote "
                                  "(required there for PUT/DELETE; "
                                  "reads work without it)")
    for action in (stats, gc, prune, verify, serve, push, pull):
        action.add_argument("dir", help="sweep-store directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": cmd_models,
        "optimizations": cmd_optimizations,
        "profile": cmd_profile,
        "whatif": cmd_whatif,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "experiment": cmd_experiment,
        "store": cmd_store,
        "serve-predict": cmd_serve_predict,
    }
    try:
        return handlers[args.command](args)
    except DaydreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
