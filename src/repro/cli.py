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
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.datatypes import DataType
from .fpga.parts import budget_for
from .networks import available_networks, get_network
from .opt import optimize_multi_clp, optimize_single_clp

__all__ = ["main", "build_parser"]


def _add_obs_args(p) -> None:
    """Observability flags shared by ``serve`` and ``fleet simulate``.

    All of them default off, leaving the run bit-identical to a plain
    invocation; turning any on forces the reference event engine under
    ``--engine auto`` (the fast path cannot observe per-event state).
    """
    p.add_argument("--emit-timeseries", action="store_true",
                   help="sample windowed telemetry (queue depth, "
                   "utilization, p99, drops, ...) onto the result")
    p.add_argument("--timeseries-window-ms", type=float, default=None,
                   metavar="MS",
                   help="telemetry window width (implies --emit-timeseries; "
                   "default: horizon split into 60 windows)")
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write the request-lifecycle trace: Chrome "
                   "trace_event JSON, or JSONL if FILE ends in .jsonl")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="render a one-page Markdown report of the run")


def _add_overload_args(p) -> None:
    """Overload-control flags shared by ``serve`` and the fleet commands.

    All default off; any active flag forces the reference event engine
    under ``--engine auto`` (the fast path has no per-request client
    state).  ``--retries 0`` means *unlimited* attempts — the naive
    client that powers retry-storm demonstrations.
    """
    from .serve import JITTER_MODES, QUEUE_POLICIES

    p.add_argument("--queue-policy", default="fifo",
                   choices=list(QUEUE_POLICIES),
                   help="queue discipline: fifo, edf (earliest deadline "
                   "first), or priority (fresh work before retries)")
    p.add_argument("--admission", type=float, default=None, metavar="RPS",
                   help="per-tenant token-bucket admission rate (req/s); "
                   "arrivals beyond the bucket are rejected at enqueue")
    p.add_argument("--admission-burst", type=float, default=8.0,
                   metavar="TOKENS",
                   help="token-bucket burst size for --admission")
    p.add_argument("--deadline-admission", action="store_true",
                   help="reject at enqueue when the estimated queue wait "
                   "already exceeds the tenant's deadline")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="request deadline; enables expiry shedding under "
                   "edf/priority queues and deadline admission")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="closed-loop clients: retry rejected/dropped/lost "
                   "requests up to N attempts (0 = unlimited)")
    p.add_argument("--retry-backoff-ms", type=float, default=0.1,
                   metavar="MS", help="base backoff between attempts")
    p.add_argument("--retry-cap-ms", type=float, default=None, metavar="MS",
                   help="backoff ceiling (default: 32x base)")
    p.add_argument("--retry-jitter", default="decorrelated",
                   choices=list(JITTER_MODES),
                   help="backoff jitter mode")
    p.add_argument("--hedge-ms", type=float, default=None, metavar="MS",
                   help="send a hedged duplicate if no response within MS")
    p.add_argument("--brownout-p99-ms", type=float, default=None,
                   metavar="MS",
                   help="brownout controller: shed lowest-priority traffic "
                   "to keep the protected class's windowed p99 under MS")
    p.add_argument("--brownout-window-ms", type=float, default=2.0,
                   metavar="MS", help="brownout control-loop window")


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


def _add_detector_args(p) -> None:
    """Failure-detection flags shared by the fleet commands.

    All default off (oracle health, no timeouts) — bit-exact with the
    pre-detector engine.  ``--detector probe`` or ``--request-timeout-ms``
    forces the reference event engine under ``--engine auto``.
    """
    from .fleet import DETECTOR_MODES

    p.add_argument("--detector", default=None, choices=list(DETECTOR_MODES),
                   help="how the fleet learns replica health: oracle "
                   "(instant, perfect) or probe (health checks + outlier "
                   "ejection, with real detection latency)")
    p.add_argument("--probe-interval-ms", type=float, default=None,
                   metavar="MS",
                   help="health-probe period (default: 4 epochs)")
    p.add_argument("--probe-timeout-ms", type=float, default=None,
                   metavar="MS",
                   help="probe deadline; slow/delayed boards fail probes "
                   "(default: 2 epochs)")
    p.add_argument("--outlier-error-rate", type=float, default=None,
                   metavar="RATE",
                   help="eject replicas whose windowed error rate reaches "
                   "RATE (probe mode; default 0.5)")
    p.add_argument("--outlier-p99-factor", type=float, default=None,
                   metavar="X",
                   help="eject replicas whose windowed p99 exceeds X times "
                   "the fleet median (probe mode; default 3.0)")
    p.add_argument("--ejection-window-ms", type=float, default=None,
                   metavar="MS",
                   help="outlier-evaluation window (default: 8 epochs)")
    p.add_argument("--request-timeout-ms", type=float, default=None,
                   metavar="MS",
                   help="pull back requests older than MS and fail them "
                   "over to another replica")
    p.add_argument("--max-failovers", type=int, default=None, metavar="N",
                   help="failover attempts per request before it counts "
                   "timed-out (default 1)")


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


def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    from .scenario import SCENARIO_NAMES
    from .serve import ARRIVAL_KINDS, DROP_POLICIES
    from .sim.fastpath import ENGINES

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
    opt.add_argument("--network", default="alexnet", choices=available_networks())
    opt.add_argument("--part", default="485t")
    opt.add_argument("--dtype", default="float32")
    opt.add_argument("--single", action="store_true")
    opt.add_argument("--max-clps", type=int, default=6)
    opt.add_argument("--bandwidth-gbps", type=float, default=None)
    opt.add_argument("--frequency-mhz", type=float, default=100.0)
    opt.add_argument("--ordering", default="auto")
    opt.add_argument("--save", metavar="FILE", default=None,
                     help="write the design to a JSON file")

    gantt = sub.add_parser("gantt", help="epoch schedule of a design")
    gantt.add_argument("--network", default="alexnet", choices=available_networks())
    gantt.add_argument("--part", default="485t")
    gantt.add_argument("--dtype", default="float32")
    gantt.add_argument("--load", metavar="FILE", default=None,
                       help="render a saved design instead of optimizing")

    joint = sub.add_parser(
        "joint", help="jointly optimize one accelerator for several CNNs"
    )
    joint.add_argument("networks", nargs="+", choices=available_networks())
    joint.add_argument("--part", default="690t")
    joint.add_argument("--dtype", default="fixed16")

    latency = sub.add_parser(
        "latency", help="latency/throughput frontier (adjacent assignment)"
    )
    latency.add_argument("--network", default="alexnet",
                         choices=available_networks())
    latency.add_argument("--part", default="485t")
    latency.add_argument("--dtype", default="float32")
    latency.add_argument("--max-clps", type=int, default=6)

    sub.add_parser("validate", help="simulators vs analytic models")

    serve = sub.add_parser(
        "serve",
        help="simulate multi-tenant traffic over an optimized design",
        description="Event-driven, seeded load test of a Multi-CLP design "
        "(Section 4.1 epoch pipeline; Section 4.3 joint multi-CNN serving). "
        "With several networks, one joint accelerator serves them all; each "
        "network is a tenant with its own arrival stream and FIFO queue.",
    )
    serve.add_argument("--networks", "--network", dest="networks", nargs="+",
                       default=["alexnet"], metavar="NET",
                       help="tenant networks (space- or comma-separated)")
    serve.add_argument("--part", default="485t")
    serve.add_argument("--dtype", default="float32")
    serve.add_argument("--rate", type=float, default=1000.0,
                       help="request rate per tenant, req/s")
    serve.add_argument("--rates", nargs="+", type=float, default=None,
                       metavar="RPS",
                       help="per-tenant rates (overrides --rate; one per network)")
    serve.add_argument("--priorities", nargs="+", type=int, default=None,
                       metavar="P",
                       help="per-tenant priority classes (one per network; "
                       "higher is more important — brownout sheds lowest "
                       "first)")
    serve.add_argument("--process", default="poisson",
                       choices=list(ARRIVAL_KINDS))
    serve.add_argument("--burstiness", type=float, default=4.0,
                       help="burst rate multiplier for --process bursty")
    serve.add_argument("--burst-period-ms", type=float, default=5.0,
                       help="mean on+off burst cycle for --process bursty")
    serve.add_argument("--duration-ms", type=float, default=100.0,
                       help="traffic window; floored at 3 pipeline latencies "
                       "unless --drain is given")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--policy", default="drop-tail",
                       choices=list(DROP_POLICIES))
    serve.add_argument("--frequency-mhz", type=float, default=100.0)
    serve.add_argument("--bandwidth-gbps", type=float, default=None)
    serve.add_argument("--max-clps", type=int, default=6)
    serve.add_argument("--calibrate", default="model",
                       choices=["model", "simulate"],
                       help="epoch length from the analytic model or from the "
                       "cycle-level system simulator")
    serve.add_argument("--drain", action="store_true",
                       help="stop arrivals at the horizon but serve out the queues")
    serve.add_argument("--engine", default="auto",
                       choices=list(ENGINES),
                       help="epoch-batched fast path or reference event loop "
                       "(bit-identical results; auto picks fast)")
    serve.add_argument("--load", metavar="FILE", default=None,
                       help="serve a saved design JSON instead of optimizing")
    serve.add_argument("--save", metavar="FILE", default=None,
                       help="write the ServeResult to a JSON file")
    _add_obs_args(serve)
    _add_overload_args(serve)

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
    from .fleet.balancer import BALANCER_NAMES

    def add_fleet_design_args(p) -> None:
        p.add_argument("--networks", "--network", dest="networks", nargs="+",
                       default=["alexnet"], metavar="NET",
                       help="tenant networks (space- or comma-separated; "
                       "several networks build one joint design per replica)")
        p.add_argument("--part", default="485t")
        p.add_argument("--dtype", default="float32")
        p.add_argument("--max-clps", type=int, default=6)
        p.add_argument("--frequency-mhz", type=float, default=100.0)
        p.add_argument("--bandwidth-gbps", type=float, default=None)
        p.add_argument("--calibrate", default="model",
                       choices=["model", "simulate"])
        p.add_argument("--load", metavar="FILE", default=None,
                       help="replicate a saved design JSON instead of "
                       "optimizing")
        p.add_argument("--balancer", default="round-robin",
                       choices=list(BALANCER_NAMES))
        p.add_argument("--queue-depth", type=int, default=64)
        p.add_argument("--policy", default="drop-tail",
                       choices=list(DROP_POLICIES))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--scenario", default=None, metavar="NAME",
                       choices=list(SCENARIO_NAMES),
                       help="failure/surge drill from the scenario library "
                       "(see `repro scenario list`)")
        p.add_argument("--engine", default="auto",
                       choices=list(ENGINES),
                       help="epoch-batched fast path or reference event loop "
                       "(bit-identical results; auto picks fast for "
                       "scenario-free runs)")
        _add_overload_args(p)
        _add_detector_args(p)

    fsim = fleet_sub.add_parser(
        "simulate", help="simulate traffic over a replicated fleet"
    )
    add_fleet_design_args(fsim)
    fsim.add_argument("--replicas", type=int, default=2)
    fsim.add_argument("--rate", type=float, default=1000.0,
                      help="request rate per tenant, req/s")
    fsim.add_argument("--rates", nargs="+", type=float, default=None,
                      metavar="RPS",
                      help="per-tenant rates (overrides --rate)")
    fsim.add_argument("--priorities", nargs="+", type=int, default=None,
                      metavar="P",
                      help="per-tenant priority classes (one per network; "
                      "higher is more important — brownout sheds lowest "
                      "first)")
    fsim.add_argument("--process", default="poisson",
                      choices=list(ARRIVAL_KINDS))
    fsim.add_argument("--burstiness", type=float, default=4.0)
    fsim.add_argument("--burst-period-ms", type=float, default=5.0)
    fsim.add_argument("--duration-ms", type=float, default=100.0,
                      help="traffic window; floored at 3 pipeline latencies "
                      "unless --drain is given")
    fsim.add_argument("--drain", action="store_true",
                      help="stop arrivals at the horizon but serve out queues")
    fsim.add_argument("--save", metavar="FILE", default=None,
                      help="write the FleetResult to a JSON file")
    fsim.add_argument("--json", action="store_true",
                      help="emit the FleetResult record as JSON on stdout "
                      "(timeseries included only with --emit-timeseries)")
    _add_obs_args(fsim)

    fplan = fleet_sub.add_parser(
        "plan", help="minimum replicas meeting an SLO at a target rate"
    )
    add_fleet_design_args(fplan)
    fplan.add_argument("--rate", type=float, default=1000.0,
                       help="offered rate per tenant, req/s")
    fplan.add_argument("--p99-ms", type=float, default=None,
                       help="tail-latency SLO; unset disables the clause")
    fplan.add_argument("--max-drop-rate", type=float, default=0.0)
    fplan.add_argument("--min-throughput", type=float, default=None,
                       metavar="RPS")
    fplan.add_argument("--min-goodput", type=float, default=None,
                       metavar="RPS",
                       help="floor on deadline-aware goodput (completions "
                       "minus late ones), req/s")
    fplan.add_argument("--max-replicas", type=int, default=64)
    fplan.add_argument("--duration-ms", type=float, default=100.0)
    fplan.add_argument("--redundancy", type=int, default=0, metavar="N",
                       help="plan N+k: force this many extra replicas down "
                       "over the worst window of every probe")

    fauto = fleet_sub.add_parser(
        "autoscale", help="step a reactive autoscaler across traffic windows"
    )
    add_fleet_design_args(fauto)
    fauto.add_argument("--rates", nargs="+", type=float, required=True,
                       metavar="RPS",
                       help="per-window offered rate schedule, req/s per tenant")
    fauto.add_argument("--window-ms", type=float, default=50.0)
    fauto.add_argument("--min-replicas", type=int, default=1)
    fauto.add_argument("--max-replicas", type=int, default=16)
    fauto.add_argument("--step", type=int, default=1)
    fauto.add_argument("--p99-high-ms", type=float, default=None,
                       help="scale up when observed p99 exceeds this")
    fauto.add_argument("--queue-high", type=float, default=8.0,
                       help="scale up when mean queue/replica exceeds this")
    fauto.add_argument("--p99-low-ms", type=float, default=None)
    fauto.add_argument("--queue-low", type=float, default=1.0,
                       help="scale down when mean queue/replica is below this")
    fauto.add_argument("--initial-replicas", type=int, default=None)
    fauto.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the scaling decisions as a Chrome "
                       "trace_event JSON (or JSONL if FILE ends in .jsonl)")
    fauto.add_argument("--report", metavar="FILE", default=None,
                       help="render a Markdown report of the autoscale trace")

    scen = sub.add_parser(
        "scenario",
        help="failure/surge scenario library",
        description="Named, seeded, horizon-relative drills (rack loss, "
        "flash crowd, rolling reboot, ...) usable as --scenario NAME on "
        "`repro fleet simulate|plan|autoscale` and `repro dse resilience`.",
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    slist = scen_sub.add_parser("list", help="list the named scenarios")
    slist.add_argument("--json", action="store_true",
                       help="machine-readable output")
    sdesc = scen_sub.add_parser("describe", help="describe one scenario")
    sdesc.add_argument("name", metavar="NAME")
    sdesc.add_argument("--json", action="store_true",
                       help="emit the scenario spec as JSON")

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
    rep.add_argument("--p99-ms", type=float, default=None,
                     help="score SLO attainment against this tail SLO")
    rep.add_argument("--max-drop-rate", type=float, default=0.0)
    rep.add_argument("--min-throughput", type=float, default=None,
                     metavar="RPS")

    hls = sub.add_parser("hls", help="emit HLS C++ for an optimized design")
    hls.add_argument("--network", default="alexnet", choices=available_networks())
    hls.add_argument("--part", default="485t")
    hls.add_argument("--dtype", default="float32")
    hls.add_argument("--single", action="store_true")

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
    sweep.add_argument("--frequency-mhz", type=float, default=100.0)
    sweep.add_argument("--modes", nargs="+", default=["multi"],
                       choices=["single", "multi"])
    sweep.add_argument("--max-clps", nargs="+", type=int, default=[6])
    sweep.add_argument("--orderings", nargs="+", default=["auto"])
    sweep.add_argument("--store", default="dse_results.jsonl",
                       help="JSONL result store (resumable cache)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CPU count)")
    sweep.add_argument("--quiet", action="store_true",
                       help="summary line only, no result table")

    frontier = dse_sub.add_parser(
        "frontier", help="Pareto frontier of a result store"
    )
    from .dse.point import METRIC_NAMES

    frontier.add_argument("--store", default="dse_results.jsonl")
    frontier.add_argument("--maximize", nargs="+", default=["throughput"],
                          choices=METRIC_NAMES)
    frontier.add_argument("--minimize", nargs="+", default=["dsp"],
                          choices=METRIC_NAMES)

    status = dse_sub.add_parser("status", help="describe a result store")
    status.add_argument("--store", default="dse_results.jsonl")

    rank = dse_sub.add_parser(
        "rank", help="rank stored designs by SLO attainment under traffic"
    )
    rank.add_argument("--store", default="dse_results.jsonl")
    rank.add_argument("--rate", type=float, default=1000.0,
                      help="request rate, req/s")
    rank.add_argument("--p99-ms", type=float, default=None,
                      help="tail-latency SLO; unset disables the clause")
    rank.add_argument("--max-drop-rate", type=float, default=0.0)
    rank.add_argument("--min-throughput", type=float, default=None,
                      metavar="RPS")
    rank.add_argument("--duration-ms", type=float, default=200.0)
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--process", default="poisson",
                      choices=list(ARRIVAL_KINDS))
    rank.add_argument("--queue-depth", type=int, default=64)
    rank.add_argument("--policy", default="drop-tail",
                      choices=list(DROP_POLICIES))

    cost = dse_sub.add_parser(
        "cost",
        help="rank stored designs by fleet cost to serve an SLO",
        description="Capacity-plan every solved sweep point (minimum "
        "replicas meeting the SLO at the target rate) and rank by "
        "boards-needed x relative board cost — the provisioning view of "
        "a sweep, as opposed to `rank`'s per-board SLO attainment.",
    )
    cost.add_argument("--store", default="dse_results.jsonl")
    cost.add_argument("--rate", type=float, default=1000.0,
                      help="offered rate per tenant, req/s")
    cost.add_argument("--p99-ms", type=float, default=None)
    cost.add_argument("--max-drop-rate", type=float, default=0.0)
    cost.add_argument("--min-throughput", type=float, default=None,
                      metavar="RPS")
    cost.add_argument("--max-replicas", type=int, default=32)
    cost.add_argument("--duration-ms", type=float, default=100.0)
    cost.add_argument("--seed", type=int, default=0)
    cost.add_argument("--balancer", default="least-outstanding",
                      choices=list(BALANCER_NAMES))
    cost.add_argument("--queue-depth", type=int, default=64)
    cost.add_argument("--policy", default="drop-tail",
                      choices=list(DROP_POLICIES))

    resil = dse_sub.add_parser(
        "resilience",
        help="rank stored designs by SLO attainment through a failure drill",
        description="Run every solved sweep point as a fixed-size fleet "
        "under a named scenario and rank by in-incident tail latency and "
        "lost requests — which design degrades least when boards die or "
        "traffic spikes.",
    )
    resil.add_argument("--store", default="dse_results.jsonl")
    resil.add_argument("--rate", type=float, default=1000.0,
                       help="offered rate per tenant, req/s")
    resil.add_argument("--scenario", default="rack-loss", metavar="NAME",
                       help="drill from the scenario library")
    resil.add_argument("--replicas", type=int, default=4)
    resil.add_argument("--p99-ms", type=float, default=None)
    resil.add_argument("--max-drop-rate", type=float, default=0.1,
                       help="shed budget; keep above the scenario's "
                       "intrinsic loss floor (in-flight work on failed "
                       "boards is always lost)")
    resil.add_argument("--min-throughput", type=float, default=None,
                       metavar="RPS")
    resil.add_argument("--duration-ms", type=float, default=100.0)
    resil.add_argument("--seed", type=int, default=0)
    resil.add_argument("--balancer", default="least-outstanding",
                       choices=list(BALANCER_NAMES))
    resil.add_argument("--queue-depth", type=int, default=64)
    resil.add_argument("--policy", default="drop-tail",
                       choices=list(DROP_POLICIES))
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


def _cmd_optimize(args: argparse.Namespace) -> str:
    network = get_network(args.network)
    dtype = DataType.from_name(args.dtype)
    budget = budget_for(
        args.part,
        bandwidth_gbps=args.bandwidth_gbps,
        frequency_mhz=args.frequency_mhz,
    )
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


def _split_network_names(entries: List[str]) -> List[str]:
    names = [name for entry in entries for name in entry.split(",") if name]
    if not names:
        raise ValueError("no networks given")
    return names


def _serving_design(args: argparse.Namespace, names: List[str], budget, dtype):
    """(design, tenant names) from ``--load`` or by optimizing ``names``.

    Shared by ``repro serve`` and the ``repro fleet`` subcommands: one
    network optimizes a Multi-CLP design, several build a joint
    accelerator serving them all, and ``--load`` replays a pinned JSON.
    """
    if args.load:
        from .core.serialize import load_design

        design = load_design(args.load)
        return design, [design.network.name]
    if len(names) > 1:
        from .opt import optimize_joint

        networks = [get_network(name) for name in names]
        design = optimize_joint(networks, budget, dtype, max_clps=args.max_clps)
        return design, [network.name for network in networks]
    network = get_network(names[0])
    design = optimize_multi_clp(network, budget, dtype, max_clps=args.max_clps)
    return design, [network.name]


def _tenant_specs(args: argparse.Namespace, tenant_names, cycles_per_second):
    """Per-tenant arrival streams from the shared traffic arguments."""
    from .serve import TenantSpec, make_arrival_process

    rates = args.rates if args.rates is not None else [args.rate] * len(
        tenant_names
    )
    if len(rates) != len(tenant_names):
        raise ValueError(f"{len(tenant_names)} tenants but {len(rates)} rates")
    priorities = getattr(args, "priorities", None)
    if priorities is None:
        priorities = [0] * len(tenant_names)
    if len(priorities) != len(tenant_names):
        raise ValueError(
            f"{len(tenant_names)} tenants but {len(priorities)} priorities"
        )
    return [
        TenantSpec(
            name=name,
            process=make_arrival_process(
                args.process,
                rate / cycles_per_second,
                burstiness=args.burstiness,
                period_cycles=args.burst_period_ms * 1e-3 * cycles_per_second,
            ),
            priority=priority,
        )
        for name, rate, priority in zip(tenant_names, rates, priorities)
    ]


def _traffic_window_cycles(args: argparse.Namespace, design, budget) -> float:
    """``--duration-ms`` in cycles, floored for non-drained windows.

    A window shorter than the pipeline can never complete a request
    (every latency is >= depth * epoch); floor it at a few pipeline
    latencies so the default invocation reports real percentiles.
    """
    from .serve import pipeline_latency_cycles

    duration_cycles = args.duration_ms * 1e-3 * budget.cycles_per_second
    if not args.drain:
        duration_cycles = max(
            duration_cycles,
            3.0 * pipeline_latency_cycles(design, budget.bytes_per_cycle()),
        )
    return duration_cycles


def _obs_spec(args: argparse.Namespace, cycles_per_second: float):
    """(ObsSpec, TraceRecorder) from the shared obs flags, or (None, None)."""
    want_timeseries = (
        args.emit_timeseries or args.timeseries_window_ms is not None
    )
    if not want_timeseries and args.trace_out is None:
        return None, None
    from .obs import ObsSpec, TraceRecorder

    trace = TraceRecorder() if args.trace_out else None
    window_cycles = (
        args.timeseries_window_ms * 1e-3 * cycles_per_second
        if args.timeseries_window_ms is not None
        else None
    )
    spec = ObsSpec(
        timeseries=want_timeseries, window_cycles=window_cycles, trace=trace
    )
    return spec, trace


def _write_trace(trace, path: str, frequency_mhz: float) -> None:
    if path.endswith(".jsonl"):
        trace.write_jsonl(path, frequency_mhz=frequency_mhz)
    else:
        trace.write_chrome(path, frequency_mhz=frequency_mhz)


def _write_run_report(result, source: str, path: str) -> None:
    from .analysis.report import render_run_report

    with open(path, "w") as handle:
        handle.write(render_run_report([result], [source]))


def _cmd_serve(args: argparse.Namespace) -> str:
    from .serve import simulate_traffic

    from .opt import OptimizationError

    try:
        names = _split_network_names(args.networks)
        budget = budget_for(
            args.part,
            bandwidth_gbps=args.bandwidth_gbps,
            frequency_mhz=args.frequency_mhz,
        )
        dtype = DataType.from_name(args.dtype)
        design, tenant_names = _serving_design(args, names, budget, dtype)
        tenants = _tenant_specs(args, tenant_names, budget.cycles_per_second)
        duration_cycles = _traffic_window_cycles(args, design, budget)
        obs, trace = _obs_spec(args, budget.cycles_per_second)
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
    except (ValueError, OptimizationError) as exc:
        raise SystemExit(f"repro serve: error: {exc}") from None
    lines = [result.format()]
    if args.save:
        from .core.serialize import dump_serve_result

        dump_serve_result(result, args.save)
        lines.append(f"serve result written to {args.save}")
    if trace is not None:
        _write_trace(trace, args.trace_out, args.frequency_mhz)
        lines.append(f"trace written to {args.trace_out}")
    if args.report:
        _write_run_report(result, f"serve:{result.design_label}", args.report)
        lines.append(f"report written to {args.report}")
    return "\n".join(lines)


def _cmd_fleet(args: argparse.Namespace) -> str:
    from .opt import OptimizationError
    from .serve import SLOSpec
    from .fleet import (
        AutoscalerPolicy,
        DeviceSpec,
        autoscale,
        plan_capacity,
        simulate_fleet,
    )

    try:
        names = _split_network_names(args.networks)
        budget = budget_for(
            args.part,
            bandwidth_gbps=args.bandwidth_gbps,
            frequency_mhz=args.frequency_mhz,
        )
        dtype = DataType.from_name(args.dtype)
        design, tenant_names = _serving_design(args, names, budget, dtype)
        device = DeviceSpec(
            design=design,
            part=args.part,
            bytes_per_cycle=budget.bytes_per_cycle(),
            calibrate=args.calibrate,
        )

        if args.fleet_command == "simulate":
            if args.replicas < 1:
                raise ValueError("--replicas must be at least 1")
            tenants = _tenant_specs(
                args, tenant_names, budget.cycles_per_second
            )
            duration_cycles = _traffic_window_cycles(args, design, budget)
            obs, trace = _obs_spec(args, budget.cycles_per_second)
            result = simulate_fleet(
                device.replicated(args.replicas),
                tenants,
                duration_cycles=duration_cycles,
                balancer=args.balancer,
                frequency_mhz=args.frequency_mhz,
                seed=args.seed,
                queue_depth=args.queue_depth,
                policy=args.policy,
                drain=args.drain,
                scenario=args.scenario,
                engine=args.engine,
                obs=obs,
                overload=_overload_spec(args),
                detector=_detector_spec(args),
            )
            if args.save:
                from .core.serialize import dump_fleet_result

                dump_fleet_result(result, args.save)
            if trace is not None:
                _write_trace(trace, args.trace_out, args.frequency_mhz)
            if args.report:
                _write_run_report(
                    result,
                    f"fleet:{args.balancer}x{args.replicas}",
                    args.report,
                )
            if args.json:
                # Pure JSON on stdout; --save/--trace-out/--report still
                # write their files, silently.
                import json as _json

                from .core.serialize import fleet_result_to_dict

                return _json.dumps(fleet_result_to_dict(result), indent=2)
            lines = [result.format()]
            if args.save:
                lines.append(f"fleet result written to {args.save}")
            if trace is not None:
                lines.append(f"trace written to {args.trace_out}")
            if args.report:
                lines.append(f"report written to {args.report}")
            return "\n".join(lines)

        if args.fleet_command == "plan":
            slo = SLOSpec(
                p99_ms=args.p99_ms,
                max_drop_rate=args.max_drop_rate,
                min_throughput_rps=args.min_throughput,
                deadline_ms=args.deadline_ms,
                min_goodput_rps=args.min_goodput,
            )
            plan = plan_capacity(
                device,
                args.rate,
                slo,
                max_replicas=args.max_replicas,
                duration_ms=args.duration_ms,
                seed=args.seed,
                balancer=args.balancer,
                queue_depth=args.queue_depth,
                policy=args.policy,
                frequency_mhz=args.frequency_mhz,
                scenario=args.scenario,
                redundancy=args.redundancy,
                engine=args.engine,
                overload=_overload_spec(args),
                detector=_detector_spec(args),
            )
            lines = [plan.format()]
            if plan.meets and plan.result is not None:
                lines.append("")
                lines.append(plan.result.format())
            return "\n".join(lines)

        # autoscale
        policy = AutoscalerPolicy(
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            step=args.step,
            p99_high_ms=args.p99_high_ms,
            queue_high=args.queue_high,
            p99_low_ms=args.p99_low_ms,
            queue_low=args.queue_low,
        )
        recorder = None
        if args.trace_out:
            from .obs import TraceRecorder

            recorder = TraceRecorder()
        trace = autoscale(
            device,
            args.rates,
            policy,
            window_ms=args.window_ms,
            initial_replicas=args.initial_replicas,
            seed=args.seed,
            balancer=args.balancer,
            queue_depth=args.queue_depth,
            drop_policy=args.policy,
            frequency_mhz=args.frequency_mhz,
            scenario=args.scenario,
            engine=args.engine,
            trace=recorder,
            overload=_overload_spec(args),
            detector=_detector_spec(args),
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
    except (ValueError, OptimizationError) as exc:
        raise SystemExit(
            f"repro fleet {args.fleet_command}: error: {exc}"
        ) from None


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

    slo = None
    if (
        args.p99_ms is not None
        or args.max_drop_rate
        or args.min_throughput is not None
    ):
        slo = SLOSpec(
            p99_ms=args.p99_ms,
            max_drop_rate=args.max_drop_rate,
            min_throughput_rps=args.min_throughput,
        )
    try:
        text = render_report(args.path, slo=slo)
    except (ValueError, OSError, KeyError) as exc:
        raise SystemExit(f"repro report: error: {exc}") from None
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        return f"report written to {args.out}"
    return text


def _cmd_scenario(args: argparse.Namespace) -> str:
    import json as _json

    from .core.serialize import scenario_spec_to_dict
    from .scenario import SCENARIO_NAMES, describe_scenario, get_scenario

    if args.scenario_command == "list":
        if args.json:
            return _json.dumps(list(SCENARIO_NAMES))
        width = max(len(name) for name in SCENARIO_NAMES)
        lines = ["Scenario library (use with --scenario NAME):", ""]
        for name in SCENARIO_NAMES:
            spec = get_scenario(name)
            lines.append(f"  {name:<{width}}  {spec.description}")
        return "\n".join(lines)

    # describe
    try:
        spec = get_scenario(args.name)
    except KeyError as exc:
        raise SystemExit(f"repro scenario describe: error: {exc}") from None
    if args.json:
        return _json.dumps(scenario_spec_to_dict(spec), indent=2)
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
        raise SystemExit(
            f"bad synthetic budget {text!r}; expected DSP:BRAM, e.g. 1000:800"
        ) from None


def _cmd_dse(args: argparse.Namespace) -> str:
    from .dse import ResultStore, SweepSpec, frontier_table, run_sweep, summary_table

    if args.dse_command == "status":
        return ResultStore(args.store).describe()
    if args.dse_command == "frontier":
        results = ResultStore(args.store).results()
        if not results:
            return f"store {args.store} is empty; run `repro dse sweep` first"
        return frontier_table(
            results, maximize=args.maximize, minimize=args.minimize
        )
    if args.dse_command == "rank":
        from .dse import rank_by_traffic, traffic_rank_table
        from .serve import SLOSpec

        results = ResultStore(args.store).results()
        if not results:
            return f"store {args.store} is empty; run `repro dse sweep` first"
        slo = SLOSpec(
            p99_ms=args.p99_ms,
            max_drop_rate=args.max_drop_rate,
            min_throughput_rps=args.min_throughput,
        )
        rankings = rank_by_traffic(
            results,
            rate_rps=args.rate,
            slo=slo,
            duration_ms=args.duration_ms,
            seed=args.seed,
            process=args.process,
            queue_depth=args.queue_depth,
            policy=args.policy,
        )
        return traffic_rank_table(rankings, rate_rps=args.rate, slo=slo)
    if args.dse_command == "cost":
        from .dse import cost_to_serve_table, rank_by_cost_to_serve
        from .serve import SLOSpec

        results = ResultStore(args.store).results()
        if not results:
            return f"store {args.store} is empty; run `repro dse sweep` first"
        slo = SLOSpec(
            p99_ms=args.p99_ms,
            max_drop_rate=args.max_drop_rate,
            min_throughput_rps=args.min_throughput,
        )
        rankings = rank_by_cost_to_serve(
            results,
            rate_rps=args.rate,
            slo=slo,
            max_replicas=args.max_replicas,
            duration_ms=args.duration_ms,
            seed=args.seed,
            balancer=args.balancer,
            queue_depth=args.queue_depth,
            policy=args.policy,
        )
        return cost_to_serve_table(rankings, rate_rps=args.rate, slo=slo)
    if args.dse_command == "resilience":
        from .dse import rank_by_resilience, resilience_rank_table
        from .serve import SLOSpec

        results = ResultStore(args.store).results()
        if not results:
            return f"store {args.store} is empty; run `repro dse sweep` first"
        slo = SLOSpec(
            p99_ms=args.p99_ms,
            max_drop_rate=args.max_drop_rate,
            min_throughput_rps=args.min_throughput,
        )
        try:
            rankings = rank_by_resilience(
                results,
                rate_rps=args.rate,
                slo=slo,
                scenario=args.scenario,
                replicas=args.replicas,
                duration_ms=args.duration_ms,
                seed=args.seed,
                balancer=args.balancer,
                queue_depth=args.queue_depth,
                policy=args.policy,
            )
        except KeyError as exc:
            raise SystemExit(f"repro dse resilience: error: {exc}") from None
        return resilience_rank_table(
            rankings, rate_rps=args.rate, slo=slo, scenario=args.scenario
        )

    if args.parts is not None:
        parts = tuple(args.parts)
    else:
        parts = () if args.budgets else ("485t", "690t")
    try:
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
    except ValueError as exc:
        raise SystemExit(f"repro dse sweep: error: {exc}") from None
    lines = []
    if not args.quiet:
        lines.append(summary_table(outcome.results))
        lines.append("")
    lines.append(f"sweep: {outcome.format()}")
    lines.append(f"store: {args.store} ({len(store)} points on disk)")
    return "\n".join(lines)


def _cmd_networks(args: argparse.Namespace) -> str:
    if args.network:
        return get_network(args.network).describe()
    return "\n\n".join(
        get_network(name).describe() for name in available_networks()
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command.startswith("table"):
        output = _cmd_tables(args)
    elif command == "fig6":
        output = _cmd_fig6(args)
    elif command == "fig7":
        output = _cmd_fig7(args)
    elif command == "optimize":
        output = _cmd_optimize(args)
    elif command == "gantt":
        output = _cmd_gantt(args)
    elif command == "joint":
        output = _cmd_joint(args)
    elif command == "latency":
        output = _cmd_latency(args)
    elif command == "validate":
        output = _cmd_validate(args)
    elif command == "serve":
        output = _cmd_serve(args)
    elif command == "scenario":
        output = _cmd_scenario(args)
    elif command == "report":
        output = _cmd_report(args)
    elif command == "fleet":
        output = _cmd_fleet(args)
    elif command == "hls":
        output = _cmd_hls(args)
    elif command == "networks":
        output = _cmd_networks(args)
    elif command == "dse":
        output = _cmd_dse(args)
    else:  # pragma: no cover - argparse guards this
        raise SystemExit(f"unknown command {command}")
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
