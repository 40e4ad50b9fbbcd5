"""Command-line interface: ``fmossim``.

Subcommands::

    fmossim simulate NETLIST --set a=1 --set clk=0 [--show out ...]
        Logic-simulate a netlist for a sequence of input settings.

    fmossim faultsim NETLIST --observe OUT [--faults stuck|all] [--limit N]
                             [--backend serial|concurrent|batch|sharded]
                             [--no-drop] [--detect-policy hard|any]
                             [--clock process|perf]
                             [--jobs N|auto] [--inner-backend NAME]
                             [--locality dynamic|static|compiled]
                             [--no-collapse] [--no-trim]
                             [--no-static-prune]
                             [--no-lint] [--profile N]
        Fault simulation (strategy selected from the backend registry)
        with randomly ordered input settings or a pattern file (one
        "name=value name=value ..." line per setting, blank line
        between patterns, '#' lines ignored).  --profile N wraps the
        run in cProfile and prints the top N cumulative entries to
        stderr.

    fmossim lint NETLIST [--json]
        Run the netlist lints (exit 1 if any error-severity finding).
        --json prints the findings as structured JSON instead of text.
        ``validate`` is kept as an alias.

    fmossim experiment {fig1,fig2,fig3,scaling} [--rows R --cols C ...]
        Reproduce one of the paper's experiments and print the figure.

    fmossim serve [--host H] [--port P] [--workers N|auto]
                  [--cache-size N]
        Run the fault-simulation service: an asyncio TCP job server
        over persistent warm-state workers (see repro.service).
        Stops gracefully on SIGTERM/SIGINT.

    fmossim submit NETLIST --observe OUT [faultsim options]
                           [--host H] [--port P] [--no-stream]
        Submit a fault-simulation job to a running service and stream
        its per-pattern results as they land.  Takes the same fault /
        pattern / policy / backend options as faultsim.

Netlists use the text format of :mod:`repro.netlist.sim_format`.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .core.backends import SimPolicy, available_backends, run_backend
from .core.faults import (
    node_stuck_universe,
    sample_faults,
    transistor_stuck_universe,
)
from .errors import ReproError
from .harness import experiments
from .netlist import sim_format, validate
from .patterns.clocking import Phase, TestPattern
from .switchlevel.kernel import LOCALITIES
from .switchlevel.simulator import Simulator


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmossim",
        description=(
            "Concurrent switch-level fault simulator "
            "(FMOSSIM reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"fmossim {__version__}"
    )
    commands = parser.add_subparsers(required=True)

    simulate = commands.add_parser(
        "simulate", help="logic-simulate a netlist"
    )
    simulate.add_argument("netlist")
    simulate.add_argument(
        "--set",
        dest="settings",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="input setting; repeat for a sequence (applied in order)",
    )
    simulate.add_argument(
        "--show",
        action="append",
        default=[],
        metavar="NODE",
        help="nodes to print after each setting (default: all)",
    )
    simulate.add_argument(
        "--locality",
        choices=LOCALITIES,
        default="dynamic",
        help="settle locality: dynamic vicinities (the paper's "
        "algorithm), static DC-connected components, or compiled "
        "channel-connected components with the solve cache "
        "(default: dynamic)",
    )
    _add_lint_option(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    faultsim = commands.add_parser(
        "faultsim", help="concurrent fault simulation of a netlist"
    )
    faultsim.add_argument("netlist")
    faultsim.add_argument(
        "--observe", action="append", required=True, metavar="NODE"
    )
    faultsim.add_argument(
        "--patterns",
        help="pattern file: one 'a=1 b=0' line per input setting, "
        "blank lines separate patterns",
    )
    faultsim.add_argument(
        "--faults",
        choices=["stuck", "transistor", "all"],
        default="stuck",
        help="fault universe (default: node stuck-at faults)",
    )
    faultsim.add_argument(
        "--limit", type=int, default=None,
        help="randomly sample at most this many faults",
    )
    faultsim.add_argument("--seed", type=int, default=0)
    faultsim.add_argument(
        "--backend",
        choices=available_backends(),
        default="concurrent",
        help="fault-simulation strategy (default: concurrent)",
    )
    faultsim.add_argument(
        "--profile",
        type=int,
        default=None,
        metavar="N",
        help="profile the run with cProfile and print the top N "
        "cumulative entries to stderr",
    )
    _add_policy_arguments(faultsim)
    add_backend_option_arguments(faultsim)
    _add_lint_option(faultsim)
    faultsim.set_defaults(handler=cmd_faultsim)

    serve = commands.add_parser(
        "serve",
        help="run the fault-simulation service (asyncio job server "
        "over persistent warm-state workers)",
    )
    serve.add_argument(
        "--host", default=None,
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 7455; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=_jobs_argument, default=None, metavar="N|auto",
        help="persistent worker processes; 'auto' asks the OS for the "
        "CPUs actually available (default: cpu count)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=None, metavar="N",
        help="circuits each worker keeps warm (default: 4)",
    )
    serve.set_defaults(handler=cmd_serve)

    submit = commands.add_parser(
        "submit",
        help="submit a fault-simulation job to a running service "
        "and stream its results",
    )
    submit.add_argument("netlist")
    submit.add_argument(
        "--observe", action="append", required=True, metavar="NODE"
    )
    submit.add_argument(
        "--patterns",
        help="pattern file: one 'a=1 b=0' line per input setting, "
        "blank lines separate patterns",
    )
    submit.add_argument(
        "--faults",
        choices=["stuck", "transistor", "all"],
        default="stuck",
        help="fault universe (default: node stuck-at faults)",
    )
    submit.add_argument(
        "--limit", type=int, default=None,
        help="randomly sample at most this many faults",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--backend",
        choices=available_backends(),
        default="concurrent",
        help="fault-simulation strategy (default: concurrent)",
    )
    submit.add_argument(
        "--host", default=None,
        help="service host (default: 127.0.0.1)",
    )
    submit.add_argument(
        "--port", type=int, default=None,
        help="service port (default: 7455)",
    )
    submit.add_argument(
        "--no-stream",
        action="store_true",
        help="suppress the per-pattern result stream; print only the "
        "final summary",
    )
    _add_policy_arguments(submit)
    add_backend_option_arguments(submit)
    submit.set_defaults(handler=cmd_submit)

    lint_help = {
        "lint": "run netlist lints (exit 1 on errors)",
        "validate": "run netlist lints (alias of lint)",
    }
    for name, help_text in lint_help.items():
        lint_cmd = commands.add_parser(name, help=help_text)
        lint_cmd.add_argument("netlist")
        lint_cmd.add_argument(
            "--json",
            action="store_true",
            dest="as_json",
            help="print findings as structured JSON",
        )
        lint_cmd.set_defaults(handler=cmd_lint)

    experiment = commands.add_parser(
        "experiment", help="reproduce a paper experiment"
    )
    experiment.add_argument(
        "which", choices=["fig1", "fig2", "fig3", "scaling"]
    )
    experiment.add_argument("--rows", type=int, default=4)
    experiment.add_argument("--cols", type=int, default=4)
    experiment.add_argument("--faults", type=int, default=None)
    experiment.add_argument(
        "--seed", type=int, default=experiments.DEFAULT_SEED
    )
    experiment.add_argument(
        "--backend",
        choices=available_backends(),
        default="concurrent",
        help="fault-simulation strategy (default: concurrent)",
    )
    add_backend_option_arguments(experiment)
    experiment.set_defaults(handler=cmd_experiment)
    return parser


def _add_policy_arguments(subparser) -> None:
    """SimPolicy knobs: every registry strategy honors these."""
    subparser.add_argument(
        "--no-drop",
        action="store_true",
        help="keep simulating detected faults to the end of the "
        "sequence (disable the paper's fault dropping)",
    )
    subparser.add_argument(
        "--detect-policy",
        choices=["hard", "any"],
        default="hard",
        help="detection rule: 'hard' needs definite differing values, "
        "'any' counts X-vs-definite differences too (default: hard)",
    )
    subparser.add_argument(
        "--clock",
        choices=["process", "perf"],
        default="process",
        help="timing source: 'process' CPU seconds (as the paper "
        "measured) or 'perf' wall clock (default: process)",
    )


def add_backend_option_arguments(subparser) -> None:
    """Backend-constructor options, forwarded through the registry."""
    subparser.add_argument(
        "--jobs",
        type=_jobs_argument,
        default=None,
        metavar="N|auto",
        help="sharded backend: worker processes; 'auto' asks the OS "
        "for the CPUs actually available to this process",
    )
    subparser.add_argument(
        "--inner-backend",
        choices=[n for n in available_backends() if n != "sharded"],
        default=None,
        help="sharded backend: strategy run inside each shard",
    )
    subparser.add_argument(
        "--locality",
        choices=LOCALITIES,
        default=None,
        help="settle locality (serial/concurrent/batch, forwarded to "
        "sharded inner backends): dynamic vicinities, static "
        "DC-connected components, or compiled channel-connected "
        "components with the solve cache (default: dynamic)",
    )
    subparser.add_argument(
        "--no-collapse",
        action="store_true",
        help="simulate every fault individually instead of one "
        "representative per structural equivalence class",
    )
    subparser.add_argument(
        "--no-trim",
        action="store_true",
        help="serial/concurrent: disable checkpoint/warm-start and "
        "clean-component redundancy trimming (ablation baseline)",
    )
    subparser.add_argument(
        "--no-static-prune",
        action="store_true",
        help="simulate faults the static testability analysis proved "
        "unexcitable or unobservable instead of pruning them up front",
    )


def _jobs_argument(text: str):
    """``--jobs``/``--workers`` value: an integer or the word 'auto'
    (resolved against the CPUs available via
    :func:`repro.core.shard.resolve_jobs`)."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def _add_lint_option(subparser) -> None:
    subparser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the automatic netlist lints (warnings to stderr, "
        "errors fatal)",
    )


def backend_options_from_args(args) -> dict:
    """Collect explicitly given backend options; the registry rejects
    combinations the selected backend does not accept."""
    options = {}
    if args.jobs is not None:
        options["jobs"] = args.jobs
    if args.inner_backend is not None:
        options["inner_backend"] = args.inner_backend
    if args.locality is not None:
        options["locality"] = args.locality
    if args.no_collapse:
        options["collapse"] = False
    if args.no_trim:
        options["trim"] = False
    if args.no_static_prune:
        options["static_prune"] = False
    return options


def _lint_netlist(net, skip: bool) -> None:
    """The faultsim/simulate pre-flight: warn on stderr, die on errors."""
    if skip:
        return
    findings = validate.validate(net)
    for lint in findings:
        if lint.severity == validate.WARNING:
            print(f"lint: {lint}", file=sys.stderr)
    errors = [lint for lint in findings if lint.severity == validate.ERROR]
    if errors:
        raise ReproError(
            "netlist failed lint (use --no-lint to run anyway):\n"
            + "\n".join(f"  {lint}" for lint in errors)
        )


def _parse_assignment(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    if not name or value not in ("0", "1", "x", "X"):
        raise ReproError(
            f"bad assignment {text!r}; expected NAME=0|1|X"
        )
    return name, {"0": 0, "1": 1, "x": 2, "X": 2}[value]


def cmd_simulate(args) -> int:
    net = sim_format.load_path(args.netlist)
    _lint_netlist(net, args.no_lint)
    sim = Simulator(net, locality=args.locality)
    show = args.show or sorted(
        name for name in net.node_index if name not in ("vdd", "gnd")
    )
    if not args.settings:
        print("no --set given; initial (settled) state:")
    for text in args.settings:
        name, value = _parse_assignment(text)
        sim.apply({name: value})
        values = " ".join(f"{node}={sim.get(node)}" for node in show)
        print(f"after {text}: {values}")
    if not args.settings:
        values = " ".join(f"{node}={sim.get(node)}" for node in show)
        print(values)
    return 0


def _load_patterns(path: str) -> list[TestPattern]:
    patterns: list[TestPattern] = []
    phases: list[Phase] = []
    with open(path, "r", encoding="utf-8") as stream:
        for raw in stream:
            line = raw.strip()
            if line.startswith("#"):
                continue
            if not line:
                if phases:
                    patterns.append(
                        TestPattern(f"p{len(patterns)}", tuple(phases))
                    )
                    phases = []
                continue
            setting = dict(
                _parse_assignment(token) for token in line.split()
            )
            phases.append(Phase(setting))
    if phases:
        patterns.append(TestPattern(f"p{len(patterns)}", tuple(phases)))
    if not patterns:
        raise ReproError(
            f"pattern file {path!r} defines no patterns "
            "(only blank/comment lines)"
        )
    return patterns


def _build_workload(args, net):
    """The shared faultsim/submit workload: faults, patterns, policy."""
    if args.faults == "stuck":
        faults = node_stuck_universe(net)
    elif args.faults == "transistor":
        faults = transistor_stuck_universe(net)
    else:
        faults = node_stuck_universe(net) + transistor_stuck_universe(net)
    if args.limit is not None and args.limit < len(faults):
        faults = sample_faults(faults, args.limit, seed=args.seed)
    if args.patterns:
        patterns = _load_patterns(args.patterns)
    else:
        from .patterns.random_patterns import random_patterns

        patterns = random_patterns(net, 20, seed=args.seed)
    policy = SimPolicy(
        detection_policy=args.detect_policy,
        drop_on_detect=not args.no_drop,
        clock=args.clock,
    )
    return faults, patterns, policy


def _print_report(report, faults, clock: str) -> None:
    clock_label = "CPU" if clock == "process" else "wall"
    print(
        f"{report.detected}/{report.n_faults} faults detected "
        f"({report.coverage:.1%}) over {report.n_patterns} patterns "
        f"in {report.total_seconds:.2f}s {clock_label} "
        f"({report.backend} backend)"
    )
    if report.collapse is not None:
        stats = report.collapse
        print(
            f"  collapsed {stats['faults']}→{stats['representatives']} "
            f"simulated circuits ({stats['classes']} equivalence classes)"
        )
    if report.static_pruned is not None:
        stats = report.static_pruned
        print(
            f"  statically pruned {stats['pruned']}/{stats['faults']} "
            f"faults ({stats['unexcitable']} unexcitable, "
            f"{stats['unobservable']} unobservable)"
        )
    if report.trim is not None:
        counters = ", ".join(
            f"{value} {key.replace('_', ' ')}"
            for key, value in sorted(report.trim.items())
        )
        if counters:
            print(f"  trimmed: {counters}")
    if report.shard_stats is not None:
        stats = report.shard_stats
        trace = (
            "good trace shipped" if stats["trace_shipped"]
            else "per-shard good circuit"
        )
        print(
            f"  shards: {stats['jobs']} job(s), {stats['blocks']} "
            f"block(s), imbalance {stats['imbalance_ratio']:.2f}, "
            f"{trace}"
        )
    if report.solve_cache is not None:
        cache = report.solve_cache
        print(
            f"  solve cache: {cache['hits']} hits / "
            f"{cache['misses']} misses ({cache['hit_rate']:.1%})"
        )
    for detection in report.log.detections:
        print(f"  {detection}")
    undetected = (
        set(range(1, len(faults) + 1)) - report.log.detected_circuits()
    )
    for cid in sorted(undetected):
        print(f"  undetected: {faults[cid - 1].describe()}")


def cmd_faultsim(args) -> int:
    net = sim_format.load_path(args.netlist)
    _lint_netlist(net, args.no_lint)
    faults, patterns, policy = _build_workload(args, net)
    run = lambda: run_backend(  # noqa: E731 - one invocation, two modes
        args.backend, net, faults, args.observe, patterns, policy,
        **backend_options_from_args(args),
    )
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        report = profiler.runcall(run)
        pstats.Stats(profiler, stream=sys.stderr).sort_stats(
            "cumulative"
        ).print_stats(args.profile)
    else:
        report = run()
    _print_report(report, faults, args.clock)
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .service.server import FaultSimServer

    kwargs = {}
    if args.host is not None:
        kwargs["host"] = args.host
    if args.workers is not None:
        from .core.shard import resolve_jobs

        kwargs["workers"] = resolve_jobs(args.workers)
    if args.cache_size is not None:
        kwargs["cache_size"] = args.cache_size
    if args.port is not None:
        kwargs["port"] = args.port
    else:
        from .service.protocol import DEFAULT_PORT

        kwargs["port"] = DEFAULT_PORT
    server = FaultSimServer(**kwargs)

    def ready(srv) -> None:
        host, port = srv.address
        print(
            f"fault-sim service listening on {host}:{port} "
            f"({srv.pool.workers} worker(s), "
            f"cache {srv.pool.cache_size} circuit(s)/worker)",
            flush=True,
        )

    asyncio.run(server.serve(ready=ready))
    print("fault-sim service stopped", flush=True)
    return 0


def cmd_submit(args) -> int:
    from .service.client import ServiceClient
    from .service.protocol import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        CancelledFrame,
        DoneFrame,
        JobSpec,
        PatternFrame,
        StartedFrame,
    )

    # The raw file text travels on the wire: the service's circuit
    # fingerprint is the content hash, so resubmitting the same file
    # must hash identically (no parse/dump round trip).
    with open(args.netlist, "r", encoding="utf-8") as stream:
        netlist_text = stream.read()
    net = sim_format.loads(netlist_text)
    faults, patterns, policy = _build_workload(args, net)
    job = JobSpec(
        netlist=netlist_text,
        observed=tuple(args.observe),
        faults=tuple(faults),
        patterns=tuple(patterns),
        policy=policy,
        backend=args.backend,
        options=backend_options_from_args(args),
    )
    client = ServiceClient(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
    )
    stream_frames = not args.no_stream
    handle = client.submit(job, stream=stream_frames)
    print(f"submitted {handle.job_id}", flush=True)
    result = None
    for frame in handle:
        if isinstance(frame, StartedFrame):
            cache_state = "warm" if frame.warm else "cold"
            print(
                f"started on worker {frame.worker} "
                f"({cache_state} circuit cache)",
                flush=True,
            )
        elif isinstance(frame, PatternFrame) and stream_frames:
            record = frame.record
            print(
                f"  pattern {record.index} [{record.label}]: "
                f"{record.detections} detected, "
                f"{record.live_after} live, {record.seconds:.3f}s",
                flush=True,
            )
        elif isinstance(frame, CancelledFrame):
            print(
                f"cancelled after {frame.patterns_completed} pattern(s)",
                file=sys.stderr,
            )
            return 1
        elif isinstance(frame, DoneFrame):
            result = frame
    if result is None:
        print("job ended without a result", file=sys.stderr)
        return 1
    _print_report(result.report, faults, policy.clock)
    timings = result.timings
    print(
        "  service: queue {q:.3f}s | compile {c:.3f}s | "
        "simulate {s:.3f}s | total {t:.3f}s".format(
            q=timings.get("queue_seconds", 0.0),
            c=timings.get("compile_seconds", 0.0),
            s=timings.get("simulate_seconds", 0.0),
            t=timings.get("total_seconds", 0.0),
        )
    )
    return 0


def cmd_lint(args) -> int:
    import json

    net = sim_format.load_path(args.netlist)
    findings = validate.validate(net)
    errors = [lint for lint in findings if lint.severity == validate.ERROR]
    if args.as_json:
        print(
            json.dumps(
                {
                    "netlist": args.netlist,
                    "errors": len(errors),
                    "warnings": len(findings) - len(errors),
                    "findings": [lint.to_json() for lint in findings],
                },
                indent=2,
            )
        )
    else:
        for lint in findings:
            print(lint)
        if not findings:
            print("clean: no findings")
    return 1 if errors else 0


def cmd_experiment(args) -> int:
    backend_options = backend_options_from_args(args)
    if args.which == "fig1":
        result = experiments.run_fig1(
            args.rows, args.cols, n_faults=args.faults, seed=args.seed,
            backend=args.backend, backend_options=backend_options,
        )
    elif args.which == "fig2":
        result = experiments.run_fig2(
            args.rows, args.cols, n_faults=args.faults, seed=args.seed,
            backend=args.backend, backend_options=backend_options,
        )
    elif args.which == "fig3":
        result = experiments.run_fig3(
            args.rows, args.cols, seed=args.seed, backend=args.backend,
            backend_options=backend_options,
        )
    else:
        result = experiments.run_scaling(
            small=(args.rows // 2 or 2, args.cols),
            large=(args.rows, args.cols),
            n_faults=args.faults,
            seed=args.seed,
            backend=args.backend,
            backend_options=backend_options,
        )
    print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
