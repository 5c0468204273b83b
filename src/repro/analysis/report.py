"""Rendering helpers and the run-report harness.

Two layers:

* Plain-text primitives (:func:`render_table`, :func:`ascii_plot`,
  :func:`sparkline`) used by every ``format()`` method in the repo.
* The Markdown report harness: :func:`render_run_report` reduces one or
  many serve/fleet run records to a one-page summary — run table,
  cross-run/seed aggregates, SLO attainment, resilience, overload and
  time-series sparklines — and
  :func:`render_report` dispatches ``repro report``'s argument (a run
  JSON, a directory of them, or a DSE result store).
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

__all__ = [
    "render_table",
    "format_ratio",
    "format_sig",
    "ascii_plot",
    "sparkline",
    "markdown_table",
    "load_run",
    "render_run_report",
    "render_store_report",
    "render_report",
]


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table: headers, a rule, then the rows."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_sig(value: float) -> str:
    """Float cell formatting that keeps small rates visible.

    A flat ``%.2f`` rounds sub-0.01 magnitudes to ``0.00`` — a 0.4%
    drop rate rendered as zero.  Values at or above 0.1 (and exact
    zeros) keep the familiar two decimals; smaller magnitudes switch to
    three significant digits.
    """
    if math.isnan(value) or math.isinf(value):
        return str(value)
    if value == 0 or abs(value) >= 0.1:
        return f"{value:.2f}"
    return f"{value:.3g}"


def _cell(value: object) -> str:
    if isinstance(value, float):
        return format_sig(value)
    return str(value)


def format_ratio(ours: float, paper: float) -> str:
    """'ours (paper, ratio)' comparison cell."""
    if paper == 0:
        return f"{ours:.2f} (paper 0)"
    return f"{ours:.2f} vs {paper:.2f} ({ours / paper:.2f}x)"


def ascii_plot(
    points: Sequence[tuple],
    width: int = 68,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    marker: str = "*",
) -> str:
    """Minimal scatter plot for terminal benchmark output.

    Degenerate axes are explicit: a constant-y (or single-point) series
    renders on a midline with a ``(constant)`` annotation instead of a
    zero-width ``lo .. hi`` range, and likewise for constant x.
    """
    if not points:
        return "(no points)"
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    constant_x = x_hi == x_lo
    constant_y = y_hi == y_lo
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    mid_row = height // 2
    mid_col = width // 2
    if constant_y:
        grid[mid_row] = ["-"] * width
    for x, y in zip(xs, ys):
        if constant_x:
            col = mid_col
        else:
            col = int((x - x_lo) / x_span * (width - 1))
        if constant_y:
            row = mid_row
        else:
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = marker
    if constant_y:
        lines = [f"{y_label} ({y_lo:.2f}, constant)"]
    else:
        lines = [f"{y_label} ({y_lo:.2f} .. {y_hi:.2f})"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    if constant_x:
        lines.append(f" {x_label} ({x_lo:.0f}, constant)")
    else:
        lines.append(f" {x_label} ({x_lo:.0f} .. {x_hi:.0f})")
    return "\n".join(lines)


#: Eight block heights; a middle dash marks constant series, a dot gaps.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[Optional[float]],
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-line block-character plot; ``None`` values render as gaps."""
    present = [v for v in values if v is not None]
    if not present:
        return "·" * len(values)
    low = min(present) if lo is None else lo
    high = max(present) if hi is None else hi
    if high == low:
        return "".join("·" if v is None else "▄" for v in values)
    span = high - low
    chars = []
    for value in values:
        if value is None:
            chars.append("·")
            continue
        level = (value - low) / span
        chars.append(_SPARK_BLOCKS[min(7, max(0, int(level * 8)))])
    return "".join(chars)


def markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
    return "\n".join(lines)


# --------------------------------------------------------------------- loading


def load_run(path: str) -> Union["ServeResult", "FleetResult"]:
    """Load a run JSON, sniffing serve vs fleet records by shape."""
    from ..core.serialize import fleet_result_from_dict, serve_result_from_dict

    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a run record")
    if "balancer" in data and "replicas" in data:
        return fleet_result_from_dict(data)
    if "design_label" in data:
        return serve_result_from_dict(data)
    raise ValueError(
        f"{path} is neither a serve nor a fleet run record "
        "(missing 'design_label' / 'balancer')"
    )


def _run_kind(result: Any) -> str:
    return "fleet" if hasattr(result, "balancer") else "serve"


def _run_label(result: Any) -> str:
    if _run_kind(result) == "fleet":
        return f"{result.balancer} x{result.num_replicas}"
    return result.design_label


def _worst_p99_ms(result: Any) -> Optional[float]:
    worst = None
    for tenant in result.tenants:
        if tenant.latency is None:
            continue
        p99 = result.cycles_to_ms(tenant.latency.p99)
        worst = p99 if worst is None else max(worst, p99)
    return worst


def _goodput_rps(result: Any) -> float:
    return sum(
        result.rate_to_rps(t.completed_rate_per_cycle(result.horizon_cycles))
        for t in result.tenants
    )


def _shed_rate(result: Any) -> float:
    arrivals = sum(t.arrivals for t in result.tenants)
    shed = sum(
        t.drops + t.lost + t.rejected + t.expired + t.timed_out
        for t in result.tenants
    )
    return shed / arrivals if arrivals else 0.0


# ------------------------------------------------------------------- sections


def _runs_section(results: Sequence[Any], sources: Sequence[str]) -> str:
    # Overload columns appear only when some run produced the class —
    # the same conditional-column rule the fleet table uses for `lost`,
    # keeping overload-free reports byte-identical to older ones.
    show_rejected = any(
        sum(t.rejected for t in r.tenants) > 0 for r in results
    )
    show_expired = any(
        sum(t.expired for t in r.tenants) > 0 for r in results
    )
    rows = []
    for result, source in zip(results, sources):
        p99 = _worst_p99_ms(result)
        row = [
            os.path.basename(source),
            _run_kind(result),
            _run_label(result),
            result.seed,
            f"{result.cycles_to_ms(result.horizon_cycles):.1f}",
            sum(t.arrivals for t in result.tenants),
            sum(t.completions for t in result.tenants),
            f"{_goodput_rps(result):.1f}",
            "-" if p99 is None else f"{p99:.2f}",
            f"{_shed_rate(result):.2%}",
        ]
        if show_rejected:
            row.append(sum(t.rejected for t in result.tenants))
        if show_expired:
            row.append(sum(t.expired for t in result.tenants))
        rows.append(tuple(row))
    headers = [
        "run", "kind", "label", "seed", "horizon ms", "arrivals",
        "done", "goodput r/s", "worst p99 ms", "shed",
    ]
    if show_rejected:
        headers.append("rejected")
    if show_expired:
        headers.append("expired")
    table = markdown_table(tuple(headers), rows)
    return f"## Runs\n\n{table}"


def _aggregate_section(results: Sequence[Any]) -> Optional[str]:
    """Cross-run/seed aggregates, grouped by run label."""
    if len(results) < 2:
        return None
    groups: Dict[str, List[Any]] = {}
    for result in results:
        groups.setdefault(_run_label(result), []).append(result)
    rows = []
    for label in sorted(groups):
        members = groups[label]
        goodputs = [_goodput_rps(r) for r in members]
        p99s = [p for p in (_worst_p99_ms(r) for r in members) if p is not None]
        sheds = [_shed_rate(r) for r in members]
        seeds = sorted({r.seed for r in members})
        rows.append(
            (
                label,
                len(members),
                ",".join(str(s) for s in seeds[:6])
                + ("…" if len(seeds) > 6 else ""),
                f"{sum(goodputs) / len(goodputs):.1f}",
                f"{min(goodputs):.1f}",
                f"{max(goodputs):.1f}",
                "-" if not p99s else f"{sum(p99s) / len(p99s):.2f}",
                "-" if not p99s else f"{max(p99s):.2f}",
                f"{max(sheds):.2%}",
            )
        )
    table = markdown_table(
        (
            "label", "runs", "seeds", "goodput mean", "min", "max",
            "p99 mean ms", "p99 max ms", "worst shed",
        ),
        rows,
    )
    return f"## Aggregate across runs\n\n{table}"


def _slo_section(results: Sequence[Any], slo: Optional["SLOSpec"]) -> str:
    from ..serve.slo import SLOSpec, evaluate_slo

    spec = slo if slo is not None else SLOSpec()
    note = (
        ""
        if slo is not None
        else "\n*(no SLO given: scored against the default zero-drop spec)*"
    )
    rows = []
    for index, result in enumerate(results):
        report = evaluate_slo(result, spec)
        for verdict in report.tenants:
            rows.append(
                (
                    index,
                    verdict.name,
                    "yes" if verdict.meets else "**NO**",
                    "-" if verdict.p99_ms is None else f"{verdict.p99_ms:.2f}",
                    f"{verdict.shed_rate:.2%}",
                    f"{verdict.throughput_rps:.1f}",
                    "; ".join(verdict.violations) or "-",
                )
            )
    table = markdown_table(
        ("run", "tenant", "meets", "p99 ms", "shed", "goodput r/s", "violations"),
        rows,
    )
    return f"## SLO attainment\n{note}\n\n{table}"


def _resilience_section(results: Sequence[Any]) -> Optional[str]:
    rows = []
    for index, result in enumerate(results):
        resilience = getattr(result, "resilience", None)
        if resilience is None:
            continue
        ttr = resilience.mean_time_to_recover_cycles
        ttd = resilience.mean_time_to_detect_cycles
        during, outside = resilience.during, resilience.outside
        rows.append(
            (
                index,
                result.scenario or "-",
                len(result.incidents),
                f"{resilience.availability:.2%}",
                "-" if ttr is None else f"{result.cycles_to_ms(ttr):.2f}",
                "-" if ttd is None else f"{result.cycles_to_ms(ttd):.2f}",
                resilience.lost_requests,
                "-"
                if during.p99_cycles is None
                else f"{result.cycles_to_ms(during.p99_cycles):.2f}",
                "-"
                if outside.p99_cycles is None
                else f"{result.cycles_to_ms(outside.p99_cycles):.2f}",
            )
        )
    if not rows:
        return None
    table = markdown_table(
        (
            "run", "scenario", "incidents", "availability", "mean ttr ms",
            "mean ttd ms", "lost", "p99 during ms", "p99 outside ms",
        ),
        rows,
    )
    return f"## Resilience\n\n{table}"


def _overload_section(results: Sequence[Any]) -> Optional[str]:
    """Per-priority-class overload outcome for runs that recorded one."""
    rows = []
    for index, result in enumerate(results):
        overload = getattr(result, "overload", None)
        if overload is None:
            continue
        for stats in overload.classes:
            rows.append(
                (
                    index,
                    overload.queue_policy,
                    f"p{stats.priority}",
                    ", ".join(stats.tenants),
                    stats.arrivals,
                    stats.good,
                    stats.rejected,
                    stats.expired,
                    stats.late,
                    stats.retries,
                    overload.brownout_steps,
                )
            )
    if not rows:
        return None
    table = markdown_table(
        (
            "run", "discipline", "class", "tenants", "arrivals", "good",
            "rejected", "expired", "late", "retries", "brownout steps",
        ),
        rows,
    )
    return f"## Overload control\n\n{table}"


#: Series prefixes worth a sparkline, in display order; p99 converts
#: to milliseconds through the run's clock.
_SPARK_PREFIXES = (
    "queue_depth/", "in_flight/", "arrivals/", "drops/", "lost/",
    "p99_cycles/", "util/", "outstanding/", "healthy_replicas",
    "detected_healthy_replicas", "timeouts/", "errors/", "failovers/",
    "healthy/",
)


def _timeseries_section(results: Sequence[Any]) -> Optional[str]:
    blocks: List[str] = []
    for index, result in enumerate(results):
        timeseries = getattr(result, "timeseries", None)
        if timeseries is None:
            continue
        window_ms = result.cycles_to_ms(timeseries.window_cycles)
        lines = [
            f"run {index}: {len(timeseries.times)} windows x "
            f"{window_ms:.2f} ms"
        ]
        name_width = max(len(name) for name in timeseries.names())
        for prefix in _SPARK_PREFIXES:
            for name in timeseries.names():
                if not name.startswith(prefix):
                    continue
                values: List[Optional[float]] = list(timeseries.get(name))
                label = name
                if prefix == "p99_cycles/":
                    values = [
                        None if v is None else result.cycles_to_ms(v)
                        for v in values
                    ]
                    label = name.replace("p99_cycles/", "p99_ms/")
                present = [v for v in values if v is not None]
                if not present:
                    stats = "(no samples)"
                elif min(present) == max(present):
                    stats = f"= {format_sig(min(present))} (constant)"
                else:
                    stats = (
                        f"{format_sig(min(present))} .. "
                        f"{format_sig(max(present))}"
                    )
                lines.append(
                    f"  {label.ljust(name_width)}  {sparkline(values)}  {stats}"
                )
        blocks.append("\n".join(lines))
    if not blocks:
        return None
    body = "\n\n".join(f"```text\n{block}\n```" for block in blocks)
    return f"## Time series\n\n{body}"


# --------------------------------------------------------------------- report


def render_run_report(
    results: Sequence[Any],
    sources: Optional[Sequence[str]] = None,
    *,
    title: str = "Run report",
    slo: Optional["SLOSpec"] = None,
) -> str:
    """One-page Markdown summary of one or more serve/fleet runs."""
    if not results:
        raise ValueError("no runs to report on")
    if sources is None:
        sources = [f"run {index}" for index in range(len(results))]
    sections: List[Optional[str]] = [
        f"# {title}",
        _runs_section(results, sources),
        _aggregate_section(results),
        _slo_section(results, slo),
        _resilience_section(results),
        _overload_section(results),
        _timeseries_section(results),
    ]
    return "\n\n".join(s for s in sections if s is not None) + "\n"


def render_store_report(path: str, *, title: str = "Sweep report") -> str:
    """Markdown summary of a DSE result store (a ``.jsonl`` file)."""
    from ..dse.store import ResultStore

    store = ResultStore(path)
    solved = [r for r in store.results() if r.ok]
    lines = [f"# {title}", "", f"```text\n{store.describe()}\n```"]
    if solved:
        best = sorted(
            solved, key=lambda r: r.metric("throughput") or 0.0, reverse=True
        )[:10]
        rows = [
            (
                r.point.network,
                r.point.budget_label,
                r.point.dtype,
                r.point.mode,
                int(r.metric("num_clps") or 0),
                f"{r.metric('throughput') or 0.0:.2f}",
                f"{r.metric('utilization') or 0.0:.1%}",
                f"{r.elapsed_s:.2f}",
            )
            for r in best
        ]
        table = markdown_table(
            (
                "network", "budget", "dtype", "mode", "CLPs", "img/s",
                "util", "solve s",
            ),
            rows,
        )
        lines += ["", "## Top points by throughput", "", table]
    return "\n".join(lines) + "\n"


def render_report(path: str, *, slo: Optional["SLOSpec"] = None) -> str:
    """Render ``repro report``'s argument, whatever shape it is.

    A ``.jsonl`` file is a DSE result store; a ``.json`` file is one
    serve/fleet run; a directory is scanned for run JSONs (aggregated
    into one report).
    """
    if os.path.isdir(path):
        candidates = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".json")
        )
        results, sources = [], []
        for candidate in candidates:
            try:
                results.append(load_run(candidate))
            except ValueError:
                continue  # designs, scenario specs — not run records
            sources.append(candidate)
        if not results:
            raise ValueError(f"no run records found under {path}")
        return render_run_report(results, sources, slo=slo)
    if path.endswith(".jsonl"):
        return render_store_report(path)
    return render_run_report([load_run(path)], [path], slo=slo)
