"""Command-line entry point: ``python -m repro.cli <command>``.

The scenario-first interface runs any registered scenario by name:

.. code-block:: bash

    python -m repro.cli list-scenarios      # what can I run?
    python -m repro.cli run paper/fig4-module4 --samples 240
    python -m repro.cli run paper/fig6-cluster16
    python -m repro.cli run cluster-baseline-showdown --samples 120
    python -m repro.cli run module-failover --progress

Every run takes a control-period kernel: ``vector`` (the default,
numpy-batched) or ``scalar`` (the pure-Python reference). The output is
bit-identical (``--json`` emits only deterministic metrics, so the two
are byte-comparable):

.. code-block:: bash

    python -m repro.cli run paper/fig6-cluster16 --kernel scalar --json
    python -m repro.cli run paper/fig6-cluster16 --json

Long-horizon workloads (trace-file replay, flash crowds, Zipf-mix
request drift) pair with ``--window`` — a bounded recorder that keeps
the last N T_L0 steps in ring buffers and accumulates the summary
online, so month-long traces run in constant memory with the summary
bit-identical to the full recorder:

.. code-block:: bash

    python -m repro.cli run workloads/trace-replay
    python -m repro.cli run workloads/flashcrowd-module --samples 20000 --window 256
    python -m repro.cli run workloads/zipfmix-cluster16 --window 64

Trained-map artifacts — the offline-learned abstraction maps behind the
hierarchy are content-addressed deployment artifacts. Warm them once
(each map's training grid runs in lockstep, in one process), then every
run and sweep worker loads them instead of retraining, with
bit-identical results:

.. code-block:: bash

    python -m repro.cli train warm paper/fig6-cluster16 --map-cache out/maps
    python -m repro.cli train warm paper/fig6-cluster16 --map-cache out/maps --stats
    python -m repro.cli run paper/fig6-cluster16 --map-cache out/maps
    python -m repro.cli train list --map-cache out/maps
    python -m repro.cli train clear --map-cache out/maps

Running sweeps — whole families of scenarios (controller variants x
seeds x sizes) execute through the sweep subsystem, optionally on a
process pool, with results stored as JSONL and aggregated into tables:

.. code-block:: bash

    python -m repro.cli sweep list          # registered sweep campaigns
    python -m repro.cli sweep run module-showdown --workers 4 \
        --samples 120 --out out/showdown
    python -m repro.cli sweep run my_sweep.json --out out/mine
    python -m repro.cli sweep report out/showdown
    python -m repro.cli sweep report out/showdown --json

``sweep run`` resumes: re-invoking it on a half-finished ``--out``
directory executes only the missing runs. Serial (``--workers 1``) and
parallel executions produce byte-identical stores and reports.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.common.ascii_chart import line_chart, sparkline
from repro.scenario import get_scenario, list_scenarios, run_scenario
from repro.sim.observers import ProgressObserver
from repro.sim.results import ClusterRunResult, ModuleRunResult


def _render_module_result(result: ModuleRunResult) -> None:
    m = len(result.computer_names)
    print(
        line_chart(
            result.l1_arrivals, title="arrivals per control period", height=8
        )
    )
    print()
    print(
        line_chart(result.computers_on, title=f"computers on (of {m})", height=5)
    )
    print()
    print(result.summary())


def _render_cluster_result(result: ClusterRunResult) -> None:
    n = sum(len(m.computer_names) for m in result.module_results)
    print(
        line_chart(
            result.global_arrivals, title="global arrivals per period", height=8
        )
    )
    print()
    print(
        line_chart(
            result.total_computers_on, title=f"computers on (of {n})", height=6
        )
    )
    print()
    print("per-module gamma_i:")
    for i, name in enumerate(result.module_names):
        print(f"  {name}: {sparkline(result.gamma_history[:, i], width=60)}")
    print()
    print(result.summary())
    print(
        f"hierarchy path time: "
        f"{1e3 * result.hierarchy_path_seconds():.1f} ms/period"
    )


def _cmd_run(args: argparse.Namespace) -> None:
    scenario = get_scenario(args.scenario, samples=args.samples, seed=args.seed)
    overrides: dict = {}
    if args.kernel is not None:
        overrides["control.kernel"] = args.kernel
    if args.window is not None:
        overrides["control.window"] = args.window
    if args.map_cache is not None:
        overrides["control.map_cache"] = args.map_cache
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    observers: tuple = (
        (ProgressObserver(every=args.progress),) if args.progress else ()
    )
    recorder = None
    if args.decisions_out:
        from repro.sim.observers import DecisionRecorder

        recorder = DecisionRecorder()
        observers = (*observers, recorder)
    telemetry = None
    if args.metrics_out or args.trace_out:
        from repro.obs import JsonlSink, Telemetry, Tracer
        from repro.obs.registry import global_registry

        tracer = Tracer(
            sinks=(JsonlSink(args.trace_out),) if args.trace_out else ()
        )
        telemetry = Telemetry(registry=global_registry(), tracer=tracer)
    if args.stats:
        from repro.maps import reset_map_stats

        reset_map_stats()
    result = run_scenario(scenario, observers=observers, telemetry=telemetry)
    if args.stats:
        # To stderr: stdout must stay byte-comparable across kernels
        # for the --json cmp gates.
        import json as json_module

        from repro.maps import map_stats

        print(
            json_module.dumps(map_stats().to_dict(), sort_keys=True),
            file=sys.stderr,
        )
    if telemetry is not None:
        telemetry.close()
        if args.metrics_out:
            from repro.obs.exposition import render_prometheus

            with open(args.metrics_out, "w") as handle:
                handle.write(render_prometheus(telemetry.registry))
    if recorder is not None:
        with open(args.decisions_out, "w") as handle:
            for line in recorder.lines():
                handle.write(line + "\n")
    if args.json:
        # Only the deterministic metrics: scalar and vector runs of the
        # same scenario must print byte-identical JSON (the CI gate
        # `cmp`s them), and wall-clock controller time never could. The
        # payload and rendering live in repro.common.schema so the live
        # service's --summary-out stays byte-compatible.
        from repro.common.schema import dump_json, run_payload

        payload = run_payload(
            scenario.name or args.scenario, result.summary()
        )
        print(dump_json(payload))
        return
    print(f"=== {scenario.name or args.scenario} ===")
    if scenario.description:
        print(scenario.description)
        print()
    if isinstance(result, ClusterRunResult):
        _render_cluster_result(result)
    else:
        _render_module_result(result)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServeConfig, run_service

    config = ServeConfig(
        scenario=args.scenario,
        samples=args.samples,
        seed=args.seed,
        plant=args.plant,
        feed_host=args.feed_host,
        feed_port=args.feed_port,
        feed_file=args.feed_file,
        control_host=args.host,
        control_port=args.control_port,
        tick_seconds=args.tick,
        deadline_seconds=args.deadline,
        override_ttl_seconds=args.override_ttl,
        shed_on_hold=args.shed_on_hold,
        audit_log=args.audit_log,
        summary_out=args.summary_out,
        decisions_out=args.decisions_out,
        map_cache=args.map_cache,
        http_host=args.http_host,
        http_port=args.http_port,
    )
    return run_service(config)


def _cmd_ctl(args: argparse.Namespace) -> None:
    from repro.common.schema import dump_json
    from repro.service import send_command

    if args.ctl_command == "status":
        response = send_command(
            {"cmd": "status"}, host=args.host, port=args.control_port
        )
        print(dump_json(response["status"]))
    elif args.ctl_command == "override":
        command: dict = {"cmd": "override", "module": args.module}
        if not args.clear:
            if args.on is None:
                from repro.common.errors import ConfigurationError

                raise ConfigurationError(
                    "override needs --on N (machines to pin) or --clear"
                )
            command["on"] = args.on
            if args.ttl is not None:
                command["ttl"] = args.ttl
        response = send_command(
            command, host=args.host, port=args.control_port
        )
        print(dump_json(response["overrides"]))
    elif args.ctl_command == "shed":
        command = {"cmd": "shed"}
        if args.clear:
            command["fraction"] = None
        else:
            if args.fraction is None:
                from repro.common.errors import ConfigurationError

                raise ConfigurationError(
                    "shed needs --fraction F (load share to drop) or --clear"
                )
            command["fraction"] = args.fraction
            if args.ttl is not None:
                command["ttl"] = args.ttl
        response = send_command(
            command, host=args.host, port=args.control_port
        )
        print(dump_json(response["shed"]))
    elif args.ctl_command == "metrics":
        response = send_command(
            {"cmd": "metrics"}, host=args.host, port=args.control_port
        )
        print(response["metrics"], end="")
    else:  # history
        response = send_command(
            {"cmd": "history", "limit": args.limit},
            host=args.host,
            port=args.control_port,
        )
        import json

        for record in response["history"]:
            print(json.dumps(record, sort_keys=True))


def _cmd_feed(args: argparse.Namespace) -> None:
    from repro.service import send_observations
    from repro.service.daemon import feed_lines, resolve_service_scenario, ServeConfig

    scenario = resolve_service_scenario(
        ServeConfig(
            scenario=args.scenario, samples=args.samples, seed=args.seed
        )
    )
    sent = send_observations(
        feed_lines(scenario),
        host=args.host,
        port=args.port,
        connect_timeout=args.connect_timeout,
    )
    print(
        f"fed {sent - 1} observations (+ end marker) to "
        f"{args.host}:{args.port}",
        file=sys.stderr,
    )


def _one_line(text: str) -> str:
    """Collapse a description onto a single line."""
    return " ".join(text.split())


def _cmd_list_scenarios(args: argparse.Namespace) -> None:
    rows = list_scenarios()  # sorted by name
    width = max(len(row.name) for row in rows)
    for row in rows:
        print(f"{row.name:<{width}}  {_one_line(row.description)}")


def _load_sweep(spec: str):
    """A registered sweep name, or a path to a SweepSpec JSON file."""
    import os

    from repro.common.errors import ConfigurationError
    from repro.sweep import SweepSpec, get_sweep

    if spec.endswith(".json") or os.path.isfile(spec):
        if not os.path.isfile(spec):
            raise ConfigurationError(f"sweep spec file not found: {spec}")
        with open(spec) as handle:
            return SweepSpec.from_json(handle.read())
    return get_sweep(spec)


def _cmd_sweep_run(args: argparse.Namespace) -> None:
    from repro.sweep import run_sweep, write_report

    sweep = _load_sweep(args.sweep)
    group_by = _group_by(args)
    if group_by:
        # Fail a typo'd --group-by in milliseconds, not after the
        # campaign's full compute.
        from repro.common.errors import ConfigurationError

        unknown = [f for f in group_by if f not in sweep.axis_fields]
        if unknown:
            raise ConfigurationError(
                f"group-by fields {unknown} not among the swept keys: "
                f"{', '.join(sweep.axis_fields)}"
            )
    total = sweep.size()
    progress = {"done": 0}

    def on_start(pending: int, total_runs: int, workers: int) -> None:
        # Count already-stored runs so a resumed campaign ends at
        # [total/total], not at [pending/total].
        progress["done"] = total_runs - pending
        if pending:
            print(
                f"running {pending} of {total_runs} runs on {workers} "
                f"worker{'' if workers == 1 else 's'}",
                file=sys.stderr,
            )
        if progress["done"]:
            print(
                f"resuming: {progress['done']} of {total_runs} runs already "
                "stored",
                file=sys.stderr,
            )

    def on_run(point, metrics) -> None:
        progress["done"] += 1
        knobs = " ".join(f"{k}={v}" for k, v in sorted(point.overrides.items()))
        print(
            f"[{progress['done']:>{len(str(total))}}/{total}] {point.run_id}  "
            f"{knobs}  mean r = {metrics['mean_response']:.3f} s",
            file=sys.stderr,
        )

    report = run_sweep(
        sweep,
        args.out,
        workers=args.workers,
        samples=args.samples,
        on_run=on_run,
        on_start=on_start,
    )
    print(report, file=sys.stderr)
    print(write_report(args.out, group_by=group_by))


def _group_by(args: argparse.Namespace) -> "tuple[str, ...] | None":
    if getattr(args, "group_by", None) is None:
        return None
    return tuple(field for field in args.group_by.split(",") if field)


def _cmd_sweep_report(args: argparse.Namespace) -> None:
    from repro.sweep import (
        aggregate_rows,
        render_table,
        report_payload,
        ResultStore,
    )

    store = ResultStore(args.dir)
    groups = aggregate_rows(store.rows(), group_by=_group_by(args))
    if args.json:
        import json

        payload = report_payload(groups, sweep_name=store.header().get("name", ""))
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_table(groups))


def _cmd_sweep_list(args: argparse.Namespace) -> None:
    from repro.sweep import list_sweeps

    rows = list_sweeps()
    if not rows:
        print("(no sweeps registered)")
        return
    width = max(len(row.name) for row in rows)
    for row in rows:
        print(f"{row.name:<{width}}  [{row.runs} runs]  {_one_line(row.description)}")


def _cmd_train_warm(args: argparse.Namespace) -> None:
    import json

    from repro.common.errors import ConfigurationError
    from repro.maps import MapCache, map_stats, reset_map_stats
    from repro.maps.cache import env_cache_dir
    from repro.scenario import warm_scenario

    scenario = get_scenario(args.scenario, seed=args.seed)
    directory = (
        args.map_cache or scenario.control.map_cache or env_cache_dir()
    )
    if directory is None:
        # Runs resolve --map-cache > control.map_cache > $REPRO_MAP_CACHE
        # and nothing else, so warming an unreferenced default directory
        # would be a silent no-op — refuse instead.
        raise ConfigurationError(
            "no cache directory to warm: pass --map-cache DIR, set the "
            "scenario's control.map_cache, or export REPRO_MAP_CACHE"
        )
    cache = MapCache(directory)
    reset_map_stats()
    artifacts = warm_scenario(scenario, map_cache=cache)
    for artifact in artifacts:
        print(
            f"{artifact.kind:<8}  {artifact.digest[:16]}  {artifact.source}",
            file=sys.stderr,
        )
    if not artifacts:
        print(
            f"{scenario.name or args.scenario}: no maps to train "
            "(baseline policies use none)",
            file=sys.stderr,
        )
    stats = map_stats().to_dict()
    if args.stats:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(
            f"trainings: {stats['trainings']} "
            f"(behavior {stats['behavior_trainings']} / "
            f"module {stats['module_trainings']}) | "
            f"cache hits: {stats['cache_hits']} | "
            f"cache dir: {cache.directory}"
        )


def _cmd_train_list(args: argparse.Namespace) -> None:
    from repro.maps import MapCache

    cache = MapCache(args.map_cache)
    entries = cache.entries()
    if not entries:
        print(f"(no artifacts in {cache.directory})")
        return
    for entry in entries:
        print(
            f"{entry.kind:<8}  {entry.digest[:16]}  "
            f"{entry.size_bytes:>9} B  {entry.description}"
        )
    print(f"{len(entries)} artifact(s) in {cache.directory}")


def _cmd_train_clear(args: argparse.Namespace) -> None:
    from repro.maps import MapCache

    cache = MapCache(args.map_cache)
    removed = cache.clear()
    print(f"removed {removed} artifact(s) from {cache.directory}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduce and extend the ICDCS'06 LLC experiments."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run a registered scenario by name"
    )
    run.add_argument("scenario", help="scenario name (see list-scenarios)")
    run.add_argument(
        "--samples", type=int, default=None,
        help="override the run length in control periods",
    )
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--stats", action="store_true",
        help="emit the map training/cache counters as JSON to stderr "
        "after the run (stdout stays byte-comparable)",
    )
    run.add_argument(
        "--kernel", choices=("scalar", "vector"), default=None,
        help="control-period kernel (default vector: numpy-batched hot "
        "loops; scalar: the pure-Python reference; output bit-identical)",
    )
    run.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="bound recorder memory to the last N T_L0 steps (ring "
        "buffers + online aggregates; the summary stays bit-identical "
        "to the full recorder)",
    )
    run.add_argument(
        "--map-cache", default=None, metavar="DIR",
        help="load/store trained abstraction maps in this directory "
        "(content-addressed; warm runs skip training, bit-identical "
        "results)",
    )
    run.add_argument(
        "--progress", type=int, nargs="?", const=30, default=0,
        metavar="N", help="report progress every N control periods",
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit the run summary as JSON to stdout (no charts)",
    )
    run.add_argument(
        "--decisions-out", default=None, metavar="FILE",
        help="write every L2/L1 decision as deterministic JSONL "
        "(byte-comparable with `repro serve --decisions-out`)",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the run's metrics registry in Prometheus text "
        "exposition format (does not change the run's results)",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write decision spans (l2-solve / l1-lookahead / l0-bank) "
        "as JSONL (does not change the run's results)",
    )

    subparsers.add_parser(
        "list-scenarios", help="list the registered scenarios"
    )

    serve = subparsers.add_parser(
        "serve",
        help="run a scenario as a live autonomic service "
        "(control socket + optional observation feed)",
    )
    serve.add_argument("scenario", help="scenario name (see list-scenarios)")
    serve.add_argument(
        "--samples", type=int, default=None,
        help="override the run length in control periods",
    )
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument(
        "--plant", choices=("simulated", "replay"), default="simulated",
        help="simulated: the scenario's own workload drives the run; "
        "replay: an external observation feed does",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="control-server bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--control-port", type=int, default=7700, metavar="PORT",
        help="control-server port for `repro ctl` (default 7700)",
    )
    serve.add_argument(
        "--feed-host", default="127.0.0.1",
        help="feed-socket bind address (replay plant; default 127.0.0.1)",
    )
    serve.add_argument(
        "--feed-port", type=int, default=7701, metavar="PORT",
        help="feed-socket port for `repro feed` (replay plant; default 7701)",
    )
    serve.add_argument(
        "--feed-file", default=None, metavar="FILE",
        help="tail observations from this newline-JSON file instead of "
        "a socket (replay plant)",
    )
    serve.add_argument(
        "--tick", type=float, default=None, metavar="SECONDS",
        help="wall seconds per T_L0 step (default: the scenario's "
        "service.tick_seconds; 0 = free-running)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-period decision deadline budget; an overrun holds the "
        "previous allocation and is audited",
    )
    serve.add_argument(
        "--override-ttl", type=float, default=None, metavar="SECONDS",
        help="default expiry for operator overrides issued without --ttl",
    )
    serve.add_argument(
        "--audit-log", default=None, metavar="FILE",
        help="append every command/decision audit record to this JSONL "
        "file (flushed per record)",
    )
    serve.add_argument(
        "--summary-out", default=None, metavar="FILE",
        help="on a completed horizon, write the summary JSON "
        "(byte-identical to `repro run --json`)",
    )
    serve.add_argument(
        "--decisions-out", default=None, metavar="FILE",
        help="write every L2/L1 decision as deterministic JSONL "
        "(byte-comparable with `repro run --decisions-out`)",
    )
    serve.add_argument(
        "--map-cache", default=None, metavar="DIR",
        help="load/store trained abstraction maps in this directory",
    )
    serve.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="also serve GET /metrics (Prometheus text), /status (JSON) "
        "and /healthz on this port (0 = ephemeral; default: disabled)",
    )
    serve.add_argument(
        "--http-host", default="127.0.0.1",
        help="HTTP listener bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--shed-on-hold", type=float, default=None, metavar="FRACTION",
        help="automatically shed this fraction of incoming load after a "
        "period with a deadline-held decision (released after the next "
        "clean period)",
    )

    ctl = subparsers.add_parser(
        "ctl", help="operate a running `repro serve` daemon"
    )
    ctl_sub = ctl.add_subparsers(dest="ctl_command", required=True)
    ctl_status = ctl_sub.add_parser(
        "status", help="print the live status snapshot as JSON"
    )
    ctl_override = ctl_sub.add_parser(
        "override",
        help="pin a module's machines-on count (expires after --ttl)",
    )
    ctl_override.add_argument(
        "--module", type=int, default=0, metavar="I",
        help="module index (default 0; module plants have only 0)",
    )
    ctl_override.add_argument(
        "--on", type=int, default=None, metavar="N",
        help="pin the module's first N available machines",
    )
    ctl_override.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="override lifetime (default: the scenario's "
        "service.override_ttl_seconds)",
    )
    ctl_override.add_argument(
        "--clear", action="store_true",
        help="release the module's override instead of setting one",
    )
    ctl_shed = ctl_sub.add_parser(
        "shed",
        help="drop a fraction of incoming load (audited; see "
        "repro_shed_total)",
    )
    ctl_shed.add_argument(
        "--fraction", type=float, default=None, metavar="F",
        help="fraction of incoming load to drop, in (0, 1]",
    )
    ctl_shed.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="directive lifetime (default: until cleared)",
    )
    ctl_shed.add_argument(
        "--clear", action="store_true",
        help="stop shedding instead of setting a fraction",
    )
    ctl_metrics = ctl_sub.add_parser(
        "metrics",
        help="print the daemon's metrics in Prometheus text format",
    )
    ctl_history = ctl_sub.add_parser(
        "history", help="print recent audit records as JSONL"
    )
    ctl_history.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="number of most-recent records (default 20)",
    )
    for sub in (ctl_status, ctl_override, ctl_shed, ctl_metrics, ctl_history):
        sub.add_argument(
            "--host", default="127.0.0.1",
            help="control-server address (default 127.0.0.1)",
        )
        sub.add_argument(
            "--control-port", type=int, default=7700, metavar="PORT",
            help="control-server port (default 7700)",
        )

    feed = subparsers.add_parser(
        "feed",
        help="stream a scenario's workload to a `repro serve --plant "
        "replay` daemon as newline-JSON observations",
    )
    feed.add_argument("scenario", help="scenario name (see list-scenarios)")
    feed.add_argument(
        "--samples", type=int, default=None,
        help="override the run length in control periods",
    )
    feed.add_argument("--seed", type=int, default=None)
    feed.add_argument(
        "--host", default="127.0.0.1",
        help="feed-socket address (default 127.0.0.1)",
    )
    feed.add_argument(
        "--port", type=int, default=7701, metavar="PORT",
        help="feed-socket port (default 7701)",
    )
    feed.add_argument(
        "--connect-timeout", type=float, default=120.0, metavar="SECONDS",
        help="how long to retry the connection (the daemon may still be "
        "training maps; default 120)",
    )

    train = subparsers.add_parser(
        "train",
        help="warm, inspect, or clear the trained-map artifact cache",
    )
    train_sub = train.add_subparsers(dest="train_command", required=True)

    train_warm = train_sub.add_parser(
        "warm",
        help="train every map a scenario needs into the cache "
        "(no-op when already cached)",
    )
    train_warm.add_argument(
        "scenario", help="scenario name (see list-scenarios)"
    )
    train_warm.add_argument("--seed", type=int, default=None)
    train_warm.add_argument(
        "--map-cache", default=None, metavar="DIR",
        help="cache directory (default: the scenario's control.map_cache, "
        "then $REPRO_MAP_CACHE; refuses when neither names one, since "
        "runs resolve the same chain)",
    )
    train_warm.add_argument(
        "--stats", action="store_true",
        help="emit the training/cache counters as JSON to stdout",
    )

    for name, help_text in (
        ("list", "list the cached trained-map artifacts"),
        ("clear", "delete every cached trained-map artifact"),
    ):
        sub = train_sub.add_parser(name, help=help_text)
        sub.add_argument(
            "--map-cache", default=None, metavar="DIR",
            help="cache directory (default: $REPRO_MAP_CACHE, then "
            "~/.cache/repro-maps)",
        )

    sweep = subparsers.add_parser(
        "sweep", help="run and aggregate families of scenarios"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", help="execute a sweep (resumes a half-finished store)"
    )
    sweep_run.add_argument(
        "sweep", help="registered sweep name (see `sweep list`) or spec.json path"
    )
    sweep_run.add_argument(
        "--out", required=True, metavar="DIR",
        help="result store directory (runs.jsonl + reports)",
    )
    sweep_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool width; 1 runs serially "
        "(default: min(cpu count, run count))",
    )
    sweep_run.add_argument(
        "--samples", type=int, default=None,
        help="override the base scenario's run length before expansion",
    )
    sweep_run.add_argument(
        "--group-by", default=None, metavar="FIELDS",
        help="comma-separated axis fields for the report "
        "(default: every swept field except seed)",
    )

    sweep_report = sweep_sub.add_parser(
        "report", help="aggregate a result store into a table"
    )
    sweep_report.add_argument("dir", help="result store directory")
    sweep_report.add_argument(
        "--json", action="store_true", help="emit the aggregate as JSON"
    )
    sweep_report.add_argument(
        "--group-by", default=None, metavar="FIELDS",
        help="comma-separated axis fields "
        "(default: every swept field except seed)",
    )

    sweep_sub.add_parser("list", help="list the registered sweeps")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.common.errors import ConfigurationError, ControlError

    args = build_parser().parse_args(argv)
    code = 0
    try:
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "list-scenarios":
            _cmd_list_scenarios(args)
        elif args.command == "serve":
            code = _cmd_serve(args)
        elif args.command == "ctl":
            _cmd_ctl(args)
        elif args.command == "feed":
            _cmd_feed(args)
        elif args.command == "train":
            handler = {
                "warm": _cmd_train_warm,
                "list": _cmd_train_list,
                "clear": _cmd_train_clear,
            }[args.train_command]
            handler(args)
        elif args.command == "sweep":
            handler = {
                "run": _cmd_sweep_run,
                "report": _cmd_sweep_report,
                "list": _cmd_sweep_list,
            }[args.sweep_command]
            handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`repro ... | head`). Point stdout
        # at devnull so the interpreter's exit-time flush cannot raise
        # again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigurationError, ControlError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
