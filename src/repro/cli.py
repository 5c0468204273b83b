"""Command-line interface: regenerate any paper experiment.

Examples::

    python -m repro table1                 # utilization comparison
    python -m repro table2 --scenario 690t_multi
    python -m repro fig7
    python -m repro optimize --network googlenet --part 690t --dtype fixed16
    python -m repro validate               # simulator vs model
    python -m repro hls --network alexnet --part 485t
    python -m repro dse sweep --networks alexnet squeezenet --parts 485t 690t
    python -m repro dse frontier --store dse_results.jsonl
    python -m repro serve --network alexnet,googlenet --rate 2000 --part VX485T
    python -m repro dse rank --store dse_results.jsonl --rate 1500 --p99-ms 80
    python -m repro fleet simulate --network alexnet --replicas 4 --rate 20000
    python -m repro fleet plan --network alexnet --rate 30000 --p99-ms 60
    python -m repro dse cost --store dse_results.jsonl --rate 20000 --p99-ms 80
    python -m repro serve --network alexnet --emit-timeseries --trace-out t.json
    python -m repro report runs/fleet.json --out report.md

Shared flags are defined once (:func:`_flag_table`) and composed by
name groups (``DESIGN``, ``RUN``, ...).  :func:`main` dispatches through
``_COMMANDS`` and owns the one error boundary: bad input on any command
exits with ``repro <command> [<sub>]: error: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.datatypes import DataType
from .fpga.parts import budget_for
from .networks import available_networks, get_network
from .opt import OptimizationError, optimize_multi_clp, optimize_single_clp

__all__ = ["main", "build_parser"]

DESIGN = ("--networks", "--part", "--dtype", "--max-clps", "--frequency-mhz",
          "--bandwidth-gbps", "--calibrate", "--load")
RUN = ("--queue-depth", "--policy", "--seed", "--engine")
TRAFFIC = ("--rate", "--rates", "--priorities", "--process", "--burstiness",
           "--burst-period-ms", "--duration-ms", "--drain", "--save")
SLO = ("--p99-ms", "--max-drop-rate", "--min-throughput")
RANKING = ("--store", "--rate", "--duration-ms", "--seed", "--queue-depth",
           "--policy")
OBS = ("--emit-timeseries", "--timeseries-window-ms", "--trace-out",
       "--report")
OVERLOAD = ("--queue-policy", "--admission", "--admission-burst",
            "--deadline-admission", "--deadline-ms", "--retries",
            "--retry-backoff-ms", "--retry-cap-ms", "--retry-jitter",
            "--hedge-ms", "--brownout-p99-ms", "--brownout-window-ms")
DETECTOR = ("--detector", "--probe-interval-ms", "--probe-timeout-ms",
            "--outlier-error-rate", "--outlier-p99-factor",
            "--ejection-window-ms", "--request-timeout-ms", "--max-failovers")


def _flag_table() -> dict:
    """Every shared flag, once: ``{flag: add_argument keywords}``.

    ``flags`` lists extra option strings.  The overload, detector and
    observability flags all default off, leaving a run bit-identical to
    a plain invocation; turning any on forces the reference event engine
    under ``--engine auto``.
    """
    from .fleet import DETECTOR_MODES
    from .fleet.balancer import BALANCER_NAMES
    from .fleet.device import CALIBRATION_MODES
    from .scenario import SCENARIO_NAMES
    from .serve import ARRIVAL_KINDS, DROP_POLICIES, JITTER_MODES, QUEUE_POLICIES
    from .sim.fastpath import ENGINES

    def ms(help: str, default: Optional[float] = None) -> dict:
        return dict(type=float, default=default, metavar="MS", help=help)

    return {
        # design
        "--networks": dict(
            flags=("--networks", "--network"), nargs="+", default=["alexnet"],
            metavar="NET", help="tenant networks (space- or comma-separated; "
            "several networks build one joint design)"),
        "--network": dict(default="alexnet", choices=available_networks()),
        "--part": dict(default="485t", help="FPGA part (e.g. 485t, 690t)"),
        "--dtype": dict(default="float32", help="datatype (float32, fixed16)"),
        "--max-clps": dict(type=int, default=6),
        "--frequency-mhz": dict(type=float, default=100.0),
        "--bandwidth-gbps": dict(type=float, default=None),
        "--calibrate": dict(
            default="model", choices=CALIBRATION_MODES,
            help="epoch length from the analytic model or from the "
            "cycle-level system simulator"),
        "--load": dict(metavar="FILE", default=None,
                       help="use a saved design JSON instead of optimizing"),
        "--single": dict(action="store_true",
                         help="Single-CLP baseline instead of Multi-CLP"),
        # run
        "--queue-depth": dict(type=int, default=64),
        "--policy": dict(default="drop-tail", choices=DROP_POLICIES),
        "--seed": dict(type=int, default=0),
        "--engine": dict(
            default="auto", choices=ENGINES,
            help="epoch-batched fast path or reference event loop "
            "(bit-identical results; auto picks fast unless a scenario, "
            "overload control, an active detector or observation needs the "
            "event loop)"),
        "--balancer": dict(default="round-robin", choices=BALANCER_NAMES),
        "--scenario": dict(
            default=None, metavar="NAME", choices=SCENARIO_NAMES,
            help="failure/surge drill from the scenario library "
            "(see `repro scenario list`)"),
        "--replicas": dict(type=int, default=2),
        "--max-replicas": dict(type=int, default=64),
        # traffic
        "--rate": dict(type=float, default=1000.0,
                       help="request rate per tenant, req/s"),
        "--rates": dict(nargs="+", type=float, default=None, metavar="RPS",
                        help="per-tenant rates (overrides --rate; one per "
                        "network)"),
        "--priorities": dict(
            nargs="+", type=int, default=None, metavar="P",
            help="per-tenant priority classes (one per network; higher is "
            "more important — brownout sheds lowest first)"),
        "--process": dict(default="poisson", choices=ARRIVAL_KINDS),
        "--burstiness": dict(type=float, default=4.0,
                             help="burst rate multiplier for --process bursty"),
        "--burst-period-ms": dict(
            type=float, default=5.0,
            help="mean on+off burst cycle for --process bursty"),
        "--duration-ms": dict(
            type=float, default=100.0,
            help="traffic window; floored at 3 pipeline latencies unless "
            "--drain is given"),
        "--drain": dict(action="store_true", help="stop arrivals at the "
                        "horizon but serve out the queues"),
        "--save": dict(metavar="FILE", default=None,
                       help="write the design or run record to a JSON file"),
        "--json": dict(action="store_true",
                       help="emit JSON on stdout (a fleet run's timeseries "
                       "only with --emit-timeseries)"),
        # SLO
        "--p99-ms": dict(type=float, default=None,
                         help="tail-latency SLO; unset disables the clause"),
        "--max-drop-rate": dict(type=float, default=0.0,
                                help="shed budget (drops, losses, late)"),
        "--min-throughput": dict(type=float, default=None, metavar="RPS"),
        # DSE ranking
        "--store": dict(default="dse_results.jsonl",
                        help="JSONL result store (resumable cache)"),
        # observability
        "--emit-timeseries": dict(
            action="store_true", help="sample windowed telemetry (queue "
            "depth, utilization, p99, drops, ...) onto the result"),
        "--timeseries-window-ms": ms(
            "telemetry window width (implies --emit-timeseries; default: "
            "horizon split into 60 windows)"),
        "--trace-out": dict(
            metavar="FILE", default=None, help="write the request-lifecycle "
            "or scaling trace: Chrome trace_event JSON, or JSONL if FILE "
            "ends in .jsonl"),
        "--report": dict(metavar="FILE", default=None,
                         help="render a one-page Markdown report of the run"),
        # overload control (--retries 0 means unlimited attempts)
        "--queue-policy": dict(
            default="fifo", choices=QUEUE_POLICIES,
            help="queue discipline: fifo, edf (earliest deadline first), or "
            "priority (fresh work before retries)"),
        "--admission": dict(
            type=float, default=None, metavar="RPS",
            help="per-tenant token-bucket admission rate (req/s); arrivals "
            "beyond the bucket are rejected at enqueue"),
        "--admission-burst": dict(
            type=float, default=8.0, metavar="TOKENS",
            help="token-bucket burst size for --admission"),
        "--deadline-admission": dict(
            action="store_true", help="reject at enqueue when the estimated "
            "queue wait already exceeds the tenant's deadline"),
        "--deadline-ms": ms("request deadline; enables expiry shedding under "
                            "edf/priority queues and deadline admission"),
        "--retries": dict(
            type=int, default=None, metavar="N",
            help="closed-loop clients: retry rejected/dropped/lost requests "
            "up to N attempts (0 = unlimited)"),
        "--retry-backoff-ms": ms("base backoff between attempts", 0.1),
        "--retry-cap-ms": ms("backoff ceiling (default: 32x base)"),
        "--retry-jitter": dict(default="decorrelated", choices=JITTER_MODES,
                               help="backoff jitter mode"),
        "--hedge-ms": ms("send a hedged duplicate if no response within MS"),
        "--brownout-p99-ms": ms(
            "brownout controller: shed lowest-priority traffic to keep the "
            "protected class's windowed p99 under MS"),
        "--brownout-window-ms": ms("brownout control-loop window", 2.0),
        # failure detection
        "--detector": dict(
            default=None, choices=DETECTOR_MODES,
            help="how the fleet learns replica health: oracle (instant, "
            "perfect) or probe (health checks + outlier ejection, with real "
            "detection latency)"),
        "--probe-interval-ms": ms("health-probe period (default: 4 epochs)"),
        "--probe-timeout-ms": ms("probe deadline; slow/delayed boards fail "
                                 "probes (default: 2 epochs)"),
        "--outlier-error-rate": dict(
            type=float, default=None, metavar="RATE",
            help="eject replicas whose windowed error rate reaches RATE "
            "(probe mode; default 0.5)"),
        "--outlier-p99-factor": dict(
            type=float, default=None, metavar="X",
            help="eject replicas whose windowed p99 exceeds X times the "
            "fleet median (probe mode; default 3.0)"),
        "--ejection-window-ms": ms("outlier-evaluation window (default: 8 "
                                   "epochs)"),
        "--request-timeout-ms": ms("pull back requests older than MS and "
                                   "fail them over to another replica"),
        "--max-failovers": dict(
            type=int, default=None, metavar="N",
            help="failover attempts per request before it counts timed-out "
            "(default 1)"),
    }


def _add(parser, title: str, names, **defaults):
    """Add the named shared flags as one ``--help`` group, and return it.

    ``defaults`` overrides a flag's shared default for this subcommand.
    """
    group = parser.add_argument_group(title)
    for name in names:
        kwargs = dict(_flag_table()[name])
        group.add_argument(*kwargs.pop("flags", (name,)), **kwargs)
    parser.set_defaults(**defaults)
    return group


def _overload_spec(args: argparse.Namespace):
    """Build an :class:`OverloadSpec` from the shared flags, or ``None``.

    Returns ``None`` whenever every overload flag is at its default, so
    plain invocations take the bit-exact fast path untouched.
    """
    from .serve import AdmissionPolicy, BrownoutPolicy, OverloadSpec, RetryPolicy

    admission = None
    if args.admission is not None or args.deadline_admission:
        admission = AdmissionPolicy(
            rate_rps=args.admission,
            burst=args.admission_burst,
            deadline_admission=args.deadline_admission,
        )
    retry = None
    if args.retries is not None or args.hedge_ms is not None:
        retry = RetryPolicy(
            max_attempts=args.retries if args.retries is not None else 3,
            base_ms=args.retry_backoff_ms,
            cap_ms=args.retry_cap_ms,
            jitter=args.retry_jitter,
            hedge_ms=args.hedge_ms,
        )
    brownout = None
    if args.brownout_p99_ms is not None:
        brownout = BrownoutPolicy(
            p99_ms=args.brownout_p99_ms,
            window_ms=args.brownout_window_ms,
        )
    spec = OverloadSpec(
        queue_policy=args.queue_policy,
        admission=admission,
        retry=retry,
        brownout=brownout,
        deadline_ms=args.deadline_ms,
    )
    return spec if spec.active else None


def _detector_spec(args: argparse.Namespace):
    """Build a :class:`DetectorSpec` from the shared flags, or ``None``.

    Returns ``None`` whenever every detector flag is at its default, so
    plain invocations keep the bit-exact fast path.  A timeout or
    outlier flag without ``--detector`` implies the obvious mode
    (``oracle`` for a bare timeout, ``probe`` for outlier tuning).
    """
    from .fleet import DetectorSpec

    tuning = {
        "probe_interval_ms": args.probe_interval_ms,
        "probe_timeout_ms": args.probe_timeout_ms,
        "outlier_error_rate": args.outlier_error_rate,
        "outlier_p99_factor": args.outlier_p99_factor,
        "ejection_window_ms": args.ejection_window_ms,
        "request_timeout_ms": args.request_timeout_ms,
        "max_failovers": args.max_failovers,
    }
    provided = {k: v for k, v in tuning.items() if v is not None}
    mode = args.detector
    if mode is None:
        if not provided:
            return None
        probe_only = set(provided) - {"request_timeout_ms", "max_failovers"}
        mode = "probe" if probe_only else "oracle"
    return DetectorSpec(mode=mode, **provided)


def _slo_spec(args: argparse.Namespace, **clauses):
    """The :class:`SLOSpec` of the ``--p99-ms``/drop/throughput flags."""
    from .serve import SLOSpec

    return SLOSpec(
        p99_ms=args.p99_ms,
        max_drop_rate=args.max_drop_rate,
        min_throughput_rps=args.min_throughput,
        **clauses,
    )


def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    from .dse.point import METRIC_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-CLP CNN accelerator resource partitioning "
        "(ISCA 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for table in ("table1", "table3", "table5", "table8", "table9"):
        sub.add_parser(table, help=f"regenerate {table}")
    for table, default in (("table2", "485t_single"), ("table4", "485t_multi"),
                           ("table6", "485t_single"), ("table7", "690t_multi")):
        p = sub.add_parser(table, help=f"regenerate {table}")
        p.add_argument("--scenario", default=default)
    sub.add_parser("fig6", help="BRAM vs bandwidth tradeoff curves")
    p7 = sub.add_parser("fig7", help="throughput vs DSP budget sweep")
    p7.add_argument("--max-dsp", type=int, default=10000)

    opt = sub.add_parser("optimize", help="optimize a custom scenario")
    _add(opt, "design", ("--network", "--part", "--dtype", "--single",
                         "--max-clps", "--bandwidth-gbps", "--frequency-mhz",
                         "--save"))
    opt.add_argument("--ordering", default="auto")

    gantt = sub.add_parser("gantt", help="epoch schedule of a design")
    _add(gantt, "design", ("--network", "--part", "--dtype", "--load"))

    joint = sub.add_parser(
        "joint", help="jointly optimize one accelerator for several CNNs"
    )
    joint.add_argument("networks", nargs="+", choices=available_networks())
    _add(joint, "design", ("--part", "--dtype"), part="690t", dtype="fixed16")

    latency = sub.add_parser(
        "latency", help="latency/throughput frontier (adjacent assignment)"
    )
    _add(latency, "design", ("--network", "--part", "--dtype", "--max-clps"))

    sub.add_parser("validate", help="simulators vs analytic models")

    serve = sub.add_parser(
        "serve",
        help="simulate multi-tenant traffic over an optimized design",
        description="Event-driven, seeded load test of a Multi-CLP design "
        "(Section 4.1 epoch pipeline; Section 4.3 joint multi-CNN serving). "
        "With several networks, one joint accelerator serves them all; each "
        "network is a tenant with its own arrival stream and FIFO queue.",
    )
    _add(serve, "design", DESIGN)
    _add(serve, "run", RUN)
    _add(serve, "traffic", TRAFFIC)
    _add(serve, "observability", OBS)
    _add(serve, "overload control", OVERLOAD)

    fleet = sub.add_parser(
        "fleet",
        help="multi-FPGA cluster simulation and capacity planning",
        description="Scale-out layer over `repro serve`: N replicas of an "
        "optimized design share the arrival streams through a pluggable "
        "load balancer; a capacity planner binary-searches the minimum "
        "fleet meeting an SLO, and a reactive autoscaler steps between "
        "traffic windows.",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def fleet_parser(name: str, help: str) -> argparse.ArgumentParser:
        p = fleet_sub.add_parser(name, help=help)
        _add(p, "design", DESIGN)
        _add(p, "run", RUN + ("--balancer", "--scenario"))
        _add(p, "overload control", OVERLOAD)
        _add(p, "failure detection", DETECTOR)
        return p

    fsim = fleet_parser("simulate", "simulate traffic over a replicated fleet")
    _add(fsim, "traffic", ("--replicas",) + TRAFFIC + ("--json",))
    _add(fsim, "observability", OBS)

    fplan = fleet_parser("plan", "minimum replicas meeting an SLO at a target rate")
    planning = _add(fplan, "planning", ("--rate", "--duration-ms", "--max-replicas"))
    planning.add_argument("--redundancy", type=int, default=0, metavar="N",
                          help="plan N+k: force this many extra replicas down "
                          "over the worst window of every probe")
    _add(fplan, "SLO", SLO).add_argument(
        "--min-goodput", type=float, default=None, metavar="RPS",
        help="floor on deadline-aware goodput (completions minus late ones), "
        "req/s")

    fauto = fleet_parser(
        "autoscale", "step a reactive autoscaler across traffic windows"
    )
    scaling = _add(fauto, "scaling", ("--max-replicas",), max_replicas=16)
    scaling.add_argument("--rates", nargs="+", type=float, required=True,
                         metavar="RPS", help="per-window offered rate "
                         "schedule, req/s per tenant")
    scaling.add_argument("--window-ms", type=float, default=50.0)
    scaling.add_argument("--min-replicas", type=int, default=1)
    scaling.add_argument("--step", type=int, default=1)
    scaling.add_argument("--p99-high-ms", type=float, default=None,
                         help="scale up when observed p99 exceeds this")
    scaling.add_argument("--queue-high", type=float, default=8.0,
                         help="scale up when mean queue/replica exceeds this")
    scaling.add_argument("--p99-low-ms", type=float, default=None)
    scaling.add_argument("--queue-low", type=float, default=1.0,
                         help="scale down when mean queue/replica is below "
                         "this")
    scaling.add_argument("--initial-replicas", type=int, default=None)
    _add(fauto, "observability", ("--trace-out", "--report"))

    scen = sub.add_parser(
        "scenario",
        help="failure/surge scenario library",
        description="Named, seeded, horizon-relative drills (rack loss, "
        "flash crowd, rolling reboot, ...) usable as --scenario NAME on "
        "`repro fleet simulate|plan|autoscale` and `repro dse resilience`.",
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    _add(scen_sub.add_parser("list", help="list the named scenarios"),
         "output", ("--json",))
    sdesc = scen_sub.add_parser("describe", help="describe one scenario")
    sdesc.add_argument("name", metavar="NAME")
    _add(sdesc, "output", ("--json",))

    rep = sub.add_parser(
        "report",
        help="render a Markdown report over saved runs",
        description="One-page Markdown summary of saved run records: "
        "run table, cross-run aggregates, SLO attainment, resilience, "
        "overload control and time-series sparklines.",
    )
    rep.add_argument("path", metavar="PATH",
                     help="a serve/fleet run JSON (from --save), a "
                     "directory of them, or a DSE store .jsonl")
    rep.add_argument("--out", metavar="FILE", default=None,
                     help="write the report to FILE instead of stdout")
    _add(rep, "SLO", SLO)

    hls = sub.add_parser("hls", help="emit HLS C++ for an optimized design")
    _add(hls, "design", ("--network", "--part", "--dtype", "--single"))

    nets = sub.add_parser("networks", help="describe the network zoo")
    nets.add_argument("--network", default=None)

    dse = sub.add_parser(
        "dse", help="design-space exploration: parallel cached sweeps"
    )
    dse_sub = dse.add_subparsers(dest="dse_command", required=True)

    sweep = dse_sub.add_parser(
        "sweep", help="solve a cross-product of design points"
    )
    sweep.add_argument("--networks", nargs="+", default=["alexnet"],
                       choices=available_networks())
    sweep.add_argument("--parts", nargs="+", default=None,
                       help="FPGA parts (default 485t 690t unless --budgets)")
    sweep.add_argument("--budgets", nargs="+", default=[], metavar="DSP:BRAM",
                       help="synthetic budgets, e.g. 1000:800")
    sweep.add_argument("--dtypes", nargs="+", default=["float32"])
    sweep.add_argument("--bandwidths", nargs="+", type=float, default=[],
                       metavar="GBPS",
                       help="bandwidth caps; unconstrained if omitted")
    sweep.add_argument("--modes", nargs="+", default=["multi"],
                       choices=["single", "multi"])
    sweep.add_argument("--max-clps", nargs="+", type=int, default=[6])
    sweep.add_argument("--orderings", nargs="+", default=["auto"])
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CPU count)")
    sweep.add_argument("--quiet", action="store_true",
                       help="summary line only, no result table")
    _add(sweep, "store", ("--store", "--frequency-mhz"))

    frontier = dse_sub.add_parser(
        "frontier", help="Pareto frontier of a result store"
    )
    _add(frontier, "store", ("--store",))
    frontier.add_argument("--maximize", nargs="+", default=["throughput"],
                          choices=METRIC_NAMES)
    frontier.add_argument("--minimize", nargs="+", default=["dsp"],
                          choices=METRIC_NAMES)

    _add(dse_sub.add_parser("status", help="describe a result store"),
         "store", ("--store",))

    rank = dse_sub.add_parser(
        "rank", help="rank stored designs by SLO attainment under traffic"
    )
    _add(rank, "ranking", RANKING + ("--process",), duration_ms=200.0)
    _add(rank, "SLO", SLO)

    cost = dse_sub.add_parser(
        "cost",
        help="rank stored designs by fleet cost to serve an SLO",
        description="Capacity-plan every solved sweep point (minimum "
        "replicas meeting the SLO at the target rate) and rank by "
        "boards-needed x relative board cost — the provisioning view of "
        "a sweep, as opposed to `rank`'s per-board SLO attainment.",
    )
    _add(cost, "ranking", RANKING + ("--balancer", "--max-replicas"),
         balancer="least-outstanding", max_replicas=32)
    _add(cost, "SLO", SLO)

    resil = dse_sub.add_parser(
        "resilience",
        help="rank stored designs by SLO attainment through a failure drill",
        description="Run every solved sweep point as a fixed-size fleet "
        "under a named scenario and rank by in-incident tail latency and "
        "lost requests — which design degrades least when boards die or "
        "traffic spikes.  Keep --max-drop-rate above the scenario's "
        "intrinsic loss floor (in-flight work on failed boards is always "
        "lost).",
    )
    ranking = _add(resil, "ranking", RANKING + ("--balancer", "--replicas"),
                   balancer="least-outstanding", replicas=4)
    ranking.add_argument("--scenario", default="rack-loss", metavar="NAME",
                         help="drill from the scenario library")
    _add(resil, "SLO", SLO, max_drop_rate=0.1)
    return parser


def _cmd_tables(args: argparse.Namespace) -> str:
    from . import analysis

    command = args.command
    if command in ("table2", "table4", "table6", "table7"):
        return getattr(analysis, command)(args.scenario).format()
    return getattr(analysis, command)().format()


def _cmd_fig6(args: argparse.Namespace) -> str:
    from .analysis import figure6, paper_data

    curves = figure6()
    blocks = [curve.format() for curve in curves]
    blocks.append("Paper reference points (BRAM, GB/s):")
    blocks.extend(
        f"  {name}: {point}" for name, point in paper_data.FIGURE6_POINTS.items()
    )
    return "\n\n".join(blocks)


def _cmd_fig7(args: argparse.Namespace) -> str:
    from .analysis import figure7
    from .analysis.figures import DEFAULT_DSP_SWEEP

    sweep = tuple(d for d in DEFAULT_DSP_SWEEP if d <= args.max_dsp)
    return figure7(dsp_sweep=sweep).format()


def _budget(args: argparse.Namespace):
    return budget_for(
        args.part,
        bandwidth_gbps=args.bandwidth_gbps,
        frequency_mhz=args.frequency_mhz,
    )


def _cmd_optimize(args: argparse.Namespace) -> str:
    network = get_network(args.network)
    dtype = DataType.from_name(args.dtype)
    budget = _budget(args)
    if args.single:
        design, report = optimize_single_clp(
            network, budget, dtype, ordering=args.ordering, return_report=True
        )
    else:
        design, report = optimize_multi_clp(
            network, budget, dtype, max_clps=args.max_clps,
            ordering=args.ordering, return_report=True,
        )
    lines = [design.describe()]
    lines.append(
        f"throughput @{budget.frequency_mhz:.0f}MHz: "
        f"{design.throughput(budget.frequency_mhz):.1f} img/s"
    )
    lines.append(
        f"required bandwidth: "
        f"{design.required_bandwidth_gbps(budget.frequency_mhz):.2f} GB/s"
    )
    lines.append(
        f"optimizer: target={report.target:.3f}, "
        f"{report.iterations} iterations, "
        f"{report.candidates_evaluated} candidates"
    )
    if args.save:
        from .core.serialize import dump_design

        dump_design(design, args.save)
        lines.append(f"design written to {args.save}")
    return "\n".join(lines)


def _cmd_gantt(args: argparse.Namespace) -> str:
    from .analysis.visualize import schedule_gantt

    if args.load:
        from .core.serialize import load_design

        design = load_design(args.load)
    else:
        network = get_network(args.network)
        dtype = DataType.from_name(args.dtype)
        design = optimize_multi_clp(network, budget_for(args.part), dtype)
    return schedule_gantt(design)


def _cmd_joint(args: argparse.Namespace) -> str:
    from .opt import optimize_joint

    networks = [get_network(name) for name in args.networks]
    dtype = DataType.from_name(args.dtype)
    joint = optimize_joint(networks, budget_for(args.part), dtype)
    lines = [joint.describe()]
    for name, rate in joint.throughput_per_network(100.0).items():
        lines.append(f"  {name}: {rate:.1f} img/s @100MHz")
    return "\n".join(lines)


def _cmd_latency(args: argparse.Namespace) -> str:
    from .analysis.report import render_table
    from .opt import latency_throughput_frontier

    network = get_network(args.network)
    dtype = DataType.from_name(args.dtype)
    frontier = latency_throughput_frontier(
        network, budget_for(args.part), dtype, max_clps=args.max_clps
    )
    rows = [
        (cap, f"{latency / 1e6:.2f}M", f"{epoch / 1e3:.0f}k")
        for cap, latency, epoch in frontier
    ]
    return render_table(
        ["CLPs", "latency (cycles)", "epoch (cycles)"],
        rows,
        title=f"Latency/throughput frontier: {network.name} on {args.part}",
    )


def _cmd_validate(args: argparse.Namespace) -> str:
    from .analysis.tables import design_for
    from .sim import simulate_clp, simulate_system

    lines = ["Simulator vs analytic model validation", ""]
    design = design_for("alexnet", "485t", "float32", single=False)
    sys_res = simulate_system(design)
    lines.append(
        f"AlexNet 485T Multi-CLP, unlimited bandwidth: "
        f"sim epoch {sys_res.epoch_cycles:.0f} vs model "
        f"{design.epoch_cycles} "
        f"({sys_res.epoch_cycles / design.epoch_cycles:.4f}x)"
    )
    need = design.required_bandwidth_bytes_per_cycle()
    capped = simulate_system(design, bytes_per_cycle=need * 1.2)
    lines.append(
        f"  at 1.2x modelled bandwidth: sim epoch {capped.epoch_cycles:.0f} "
        f"({capped.epoch_cycles / design.epoch_cycles:.4f}x of model)"
    )
    for clp_index, clp in enumerate(design.clps):
        res = simulate_clp(clp, pipeline_depth=12)
        delta = res.total_cycles - clp.total_cycles
        lines.append(
            f"  CLP{clp_index} RTL-style sim (depth 12): +{delta:.0f} cycles "
            f"({delta / clp.total_cycles:.2%} of model)"
        )
    return "\n".join(lines)


def _serving_design(args: argparse.Namespace):
    """(budget, design, tenant names) from the design flags.

    Shared by ``repro serve`` and the ``repro fleet`` subcommands: one
    network optimizes a Multi-CLP design, several build a joint
    accelerator serving them all, and ``--load`` replays a pinned JSON.
    """
    names = [name for entry in args.networks for name in entry.split(",")
             if name]
    if not names:
        raise ValueError("no networks given")
    budget = _budget(args)
    dtype = DataType.from_name(args.dtype)
    if args.load:
        from .core.serialize import load_design

        design = load_design(args.load)
        return budget, design, [design.network.name]
    if len(names) > 1:
        from .opt import optimize_joint

        networks = [get_network(name) for name in names]
        design = optimize_joint(networks, budget, dtype, max_clps=args.max_clps)
        return budget, design, [network.name for network in networks]
    network = get_network(names[0])
    design = optimize_multi_clp(network, budget, dtype, max_clps=args.max_clps)
    return budget, design, [network.name]


def _traffic(args: argparse.Namespace, budget, design, tenant_names):
    """(tenants, window cycles, ObsSpec, TraceRecorder) from the traffic flags.

    The window is ``--duration-ms``, floored at 3 pipeline latencies
    unless ``--drain`` serves the queues out anyway.
    """
    from .serve import TenantSpec, floor_window_cycles, make_arrival_process
    from .serve.arrivals import rate_per_cycle

    cycles_per_second = budget.cycles_per_second
    count = len(tenant_names)
    rates = args.rates if args.rates is not None else [args.rate] * count
    if len(rates) != count:
        raise ValueError(f"{count} tenants but {len(rates)} rates")
    priorities = args.priorities if args.priorities is not None else [0] * count
    if len(priorities) != count:
        raise ValueError(f"{count} tenants but {len(priorities)} priorities")
    tenants = [
        TenantSpec(
            name=name,
            process=make_arrival_process(
                args.process,
                rate_per_cycle(rate, cycles_per_second),
                burstiness=args.burstiness,
                period_cycles=args.burst_period_ms * 1e-3 * cycles_per_second,
            ),
            priority=priority,
        )
        for name, rate, priority in zip(tenant_names, rates, priorities)
    ]
    duration_cycles = args.duration_ms * 1e-3 * cycles_per_second
    if not args.drain:
        duration_cycles = floor_window_cycles(
            duration_cycles, design, budget.bytes_per_cycle()
        )
    want_timeseries = (
        args.emit_timeseries or args.timeseries_window_ms is not None
    )
    if not want_timeseries and args.trace_out is None:
        return tenants, duration_cycles, None, None
    from .obs import ObsSpec, TraceRecorder

    trace = TraceRecorder() if args.trace_out else None
    window_cycles = (
        args.timeseries_window_ms * 1e-3 * cycles_per_second
        if args.timeseries_window_ms is not None
        else None
    )
    obs = ObsSpec(
        timeseries=want_timeseries, window_cycles=window_cycles, trace=trace
    )
    return tenants, duration_cycles, obs, trace


def _write_trace(trace, path: str, frequency_mhz: float) -> None:
    if path.endswith(".jsonl"):
        trace.write_jsonl(path, frequency_mhz=frequency_mhz)
    else:
        trace.write_chrome(path, frequency_mhz=frequency_mhz)


def _save_outputs(args: argparse.Namespace, result, trace, dump, label, source):
    """Write the ``--save``/``--trace-out``/``--report`` files of a run.

    Returns one "... written to FILE" line per file, in that order.
    """
    lines = []
    if args.save:
        dump(result, args.save)
        lines.append(f"{label} result written to {args.save}")
    if trace is not None:
        _write_trace(trace, args.trace_out, args.frequency_mhz)
        lines.append(f"trace written to {args.trace_out}")
    if args.report:
        from .analysis.report import render_run_report

        with open(args.report, "w") as handle:
            handle.write(render_run_report([result], [source]))
        lines.append(f"report written to {args.report}")
    return lines


def _cmd_serve(args: argparse.Namespace) -> str:
    from .core.serialize import dump_serve_result
    from .serve import simulate_traffic

    budget, design, tenant_names = _serving_design(args)
    tenants, duration_cycles, obs, trace = _traffic(
        args, budget, design, tenant_names
    )
    result = simulate_traffic(
        design,
        tenants,
        duration_cycles=duration_cycles,
        frequency_mhz=args.frequency_mhz,
        seed=args.seed,
        queue_depth=args.queue_depth,
        policy=args.policy,
        bytes_per_cycle=budget.bytes_per_cycle(),
        calibrate=args.calibrate,
        drain=args.drain,
        engine=args.engine,
        obs=obs,
        overload=_overload_spec(args),
    )
    source = f"serve:{result.design_label}"
    written = _save_outputs(args, result, trace, dump_serve_result, "serve", source)
    return "\n".join([result.format()] + written)


def _fleet_device(args: argparse.Namespace):
    """(budget, one-board DeviceSpec, tenant names) for the fleet commands."""
    from .fleet import DeviceSpec

    budget, design, tenant_names = _serving_design(args)
    device = DeviceSpec(
        design=design,
        part=args.part,
        bytes_per_cycle=budget.bytes_per_cycle(),
        calibrate=args.calibrate,
    )
    return budget, device, tenant_names


def _fleet_run(args: argparse.Namespace) -> dict:
    """Keywords every fleet entry point takes from the run flags."""
    return dict(
        seed=args.seed,
        balancer=args.balancer,
        queue_depth=args.queue_depth,
        frequency_mhz=args.frequency_mhz,
        scenario=args.scenario,
        engine=args.engine,
        overload=_overload_spec(args),
        detector=_detector_spec(args),
    )


def _cmd_fleet_simulate(args: argparse.Namespace) -> str:
    from .core.serialize import dump_fleet_result, fleet_result_to_dict
    from .fleet import simulate_fleet

    budget, device, tenant_names = _fleet_device(args)
    if args.replicas < 1:
        raise ValueError("--replicas must be at least 1")
    tenants, duration_cycles, obs, trace = _traffic(
        args, budget, device.design, tenant_names
    )
    result = simulate_fleet(
        device.replicated(args.replicas),
        tenants,
        duration_cycles=duration_cycles,
        policy=args.policy,
        drain=args.drain,
        obs=obs,
        **_fleet_run(args),
    )
    source = f"fleet:{args.balancer}x{args.replicas}"
    written = _save_outputs(args, result, trace, dump_fleet_result, "fleet", source)
    if args.json:
        # Pure JSON on stdout; the files above are still written, silently.
        import json

        return json.dumps(fleet_result_to_dict(result), indent=2)
    return "\n".join([result.format()] + written)


def _cmd_fleet_plan(args: argparse.Namespace) -> str:
    from .fleet import plan_capacity

    _, device, _ = _fleet_device(args)
    plan = plan_capacity(
        device,
        args.rate,
        _slo_spec(
            args, deadline_ms=args.deadline_ms, min_goodput_rps=args.min_goodput
        ),
        max_replicas=args.max_replicas,
        duration_ms=args.duration_ms,
        policy=args.policy,
        redundancy=args.redundancy,
        **_fleet_run(args),
    )
    lines = [plan.format()]
    if plan.meets and plan.result is not None:
        lines += ["", plan.result.format()]
    return "\n".join(lines)


def _cmd_fleet_autoscale(args: argparse.Namespace) -> str:
    from .fleet import AutoscalerPolicy, autoscale

    _, device, _ = _fleet_device(args)
    policy = AutoscalerPolicy(
        min_replicas=args.min_replicas,
        max_replicas=args.max_replicas,
        step=args.step,
        p99_high_ms=args.p99_high_ms,
        queue_high=args.queue_high,
        p99_low_ms=args.p99_low_ms,
        queue_low=args.queue_low,
    )
    from .obs import TraceRecorder

    recorder = TraceRecorder() if args.trace_out else None
    trace = autoscale(
        device,
        args.rates,
        policy,
        window_ms=args.window_ms,
        initial_replicas=args.initial_replicas,
        drop_policy=args.policy,
        trace=recorder,
        **_fleet_run(args),
    )
    lines = [trace.format()]
    if recorder is not None:
        _write_trace(recorder, args.trace_out, args.frequency_mhz)
        lines.append(f"trace written to {args.trace_out}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(_autoscale_report(trace))
        lines.append(f"report written to {args.report}")
    return "\n".join(lines)


def _autoscale_report(trace) -> str:
    """Markdown view of an autoscale trace: text summary + sparklines."""
    from .analysis.report import format_sig, sparkline

    timeseries = trace.to_timeseries()
    lines = [
        "# Autoscale report",
        "",
        "```text",
        trace.format(),
        "```",
        "",
        "## Window series",
        "",
        "```text",
    ]
    width = max(len(name) for name in timeseries.names())
    for name in timeseries.names():
        values = list(timeseries.get(name))
        present = [v for v in values if v is not None]
        if not present:
            stats = "(no samples)"
        elif min(present) == max(present):
            stats = f"= {format_sig(min(present))} (constant)"
        else:
            stats = f"{format_sig(min(present))} .. {format_sig(max(present))}"
        lines.append(f"{name.ljust(width)}  {sparkline(values)}  {stats}")
    lines += ["```", ""]
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> str:
    from .analysis.report import render_report

    from .serve import SLOSpec

    slo = _slo_spec(args)
    text = render_report(args.path, slo=None if slo == SLOSpec() else slo)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        return f"report written to {args.out}"
    return text


def _cmd_scenario_list(args: argparse.Namespace) -> str:
    from .scenario import SCENARIO_NAMES, get_scenario

    if args.json:
        import json

        return json.dumps(list(SCENARIO_NAMES))
    width = max(len(name) for name in SCENARIO_NAMES)
    lines = ["Scenario library (use with --scenario NAME):", ""]
    for name in SCENARIO_NAMES:
        lines.append(f"  {name:<{width}}  {get_scenario(name).description}")
    return "\n".join(lines)


def _cmd_scenario_describe(args: argparse.Namespace) -> str:
    from .scenario import describe_scenario, get_scenario

    spec = get_scenario(args.name)
    if args.json:
        import json

        from .core.serialize import scenario_spec_to_dict

        return json.dumps(scenario_spec_to_dict(spec), indent=2)
    return describe_scenario(spec)


def _cmd_hls(args: argparse.Namespace) -> str:
    from .hls import generate_system

    network = get_network(args.network)
    dtype = DataType.from_name(args.dtype)
    budget = budget_for(args.part)
    optimize = optimize_single_clp if args.single else optimize_multi_clp
    design = optimize(network, budget, dtype)
    return generate_system(design)


def _parse_budget(text: str) -> tuple:
    try:
        dsp, bram = text.split(":")
        return (int(dsp), int(bram))
    except ValueError:
        raise ValueError(
            f"bad synthetic budget {text!r}; expected DSP:BRAM, e.g. 1000:800"
        ) from None


def _cmd_dse_sweep(args: argparse.Namespace) -> str:
    from .dse import ResultStore, SweepSpec, run_sweep, summary_table

    if args.parts is not None:
        parts = tuple(args.parts)
    else:
        parts = () if args.budgets else ("485t", "690t")
    spec = SweepSpec(
        networks=tuple(args.networks),
        parts=parts,
        budgets=tuple(_parse_budget(b) for b in args.budgets),
        dtypes=tuple(args.dtypes),
        bandwidths_gbps=tuple(args.bandwidths) or (None,),
        frequencies_mhz=(args.frequency_mhz,),
        modes=tuple(args.modes),
        max_clps=tuple(args.max_clps),
        orderings=tuple(args.orderings),
    )
    store = ResultStore(args.store)
    outcome = run_sweep(spec, store=store, workers=args.workers)
    lines = []
    if not args.quiet:
        lines.append(summary_table(outcome.results))
        lines.append("")
    lines.append(f"sweep: {outcome.format()}")
    lines.append(f"store: {args.store} ({len(store)} points on disk)")
    return "\n".join(lines)


def _cmd_dse_status(args: argparse.Namespace) -> str:
    from .dse import ResultStore

    return ResultStore(args.store).describe()


def _over_store(command):
    """Run a DSE read command on the solved points of ``--store``."""

    def run(args: argparse.Namespace) -> str:
        from .dse import ResultStore

        results = ResultStore(args.store).results()
        if not results:
            return f"store {args.store} is empty; run `repro dse sweep` first"
        return command(args, results)

    return run


def _ranking(args: argparse.Namespace) -> dict:
    """Keywords every DSE ranking takes from the ranking flags."""
    return dict(
        duration_ms=args.duration_ms,
        seed=args.seed,
        queue_depth=args.queue_depth,
        policy=args.policy,
    )


@_over_store
def _cmd_dse_frontier(args: argparse.Namespace, results) -> str:
    from .dse import frontier_table

    return frontier_table(
        results, maximize=args.maximize, minimize=args.minimize
    )


@_over_store
def _cmd_dse_rank(args: argparse.Namespace, results) -> str:
    from .dse import rank_by_traffic, traffic_rank_table

    slo = _slo_spec(args)
    rankings = rank_by_traffic(
        results, args.rate, slo, process=args.process, **_ranking(args)
    )
    return traffic_rank_table(rankings, rate_rps=args.rate, slo=slo)


@_over_store
def _cmd_dse_cost(args: argparse.Namespace, results) -> str:
    from .dse import cost_to_serve_table, rank_by_cost_to_serve

    slo = _slo_spec(args)
    rankings = rank_by_cost_to_serve(
        results,
        args.rate,
        slo,
        max_replicas=args.max_replicas,
        balancer=args.balancer,
        **_ranking(args),
    )
    return cost_to_serve_table(rankings, rate_rps=args.rate, slo=slo)


@_over_store
def _cmd_dse_resilience(args: argparse.Namespace, results) -> str:
    from .dse import rank_by_resilience, resilience_rank_table

    slo = _slo_spec(args)
    rankings = rank_by_resilience(
        results,
        args.rate,
        slo,
        scenario=args.scenario,
        replicas=args.replicas,
        balancer=args.balancer,
        **_ranking(args),
    )
    return resilience_rank_table(
        rankings, rate_rps=args.rate, slo=slo, scenario=args.scenario
    )


def _cmd_networks(args: argparse.Namespace) -> str:
    if args.network:
        return get_network(args.network).describe()
    return "\n\n".join(
        get_network(name).describe() for name in available_networks()
    )


#: Command path (``"serve"``, ``"fleet plan"``, ...) -> its handler.
_COMMANDS = {
    **{f"table{n}": _cmd_tables for n in range(1, 10)},
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "optimize": _cmd_optimize,
    "gantt": _cmd_gantt,
    "joint": _cmd_joint,
    "latency": _cmd_latency,
    "validate": _cmd_validate,
    "serve": _cmd_serve,
    "fleet simulate": _cmd_fleet_simulate,
    "fleet plan": _cmd_fleet_plan,
    "fleet autoscale": _cmd_fleet_autoscale,
    "scenario list": _cmd_scenario_list,
    "scenario describe": _cmd_scenario_describe,
    "report": _cmd_report,
    "hls": _cmd_hls,
    "networks": _cmd_networks,
    "dse sweep": _cmd_dse_sweep,
    "dse frontier": _cmd_dse_frontier,
    "dse status": _cmd_dse_status,
    "dse rank": _cmd_dse_rank,
    "dse cost": _cmd_dse_cost,
    "dse resilience": _cmd_dse_resilience,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    sub = getattr(args, f"{args.command}_command", None)
    path = f"{args.command} {sub}" if sub else args.command
    try:
        output = _COMMANDS[path](args)
    except (ValueError, KeyError, OSError, OptimizationError) as exc:
        raise SystemExit(f"repro {path}: error: {exc}") from None
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
