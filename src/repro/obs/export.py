"""Trace/metric exporters.

Three output formats, matching how the paper's numbers were consumed:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  Trace Event JSON format (open in ``chrome://tracing`` or Perfetto):
  one complete-duration ("ph": "X") event per span, ``pid`` = rank,
  timestamps in microseconds;
* :func:`text_report` — a per-rank plain-text report: the nested span
  aggregate (GPTL-style) plus the metrics table;
* :func:`timing_summary` — the ``getTiming`` equivalent: max-across-ranks
  wall time of one span and the derived SYPD.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..utils.units import SECONDS_PER_DAY, sdpd_from_sypd, sypd_from_walltime
from .metrics import Histogram, MetricsRegistry
from .tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "text_report",
    "TimingReport",
    "timing_summary",
    "counter_totals",
    "kernel_measurements",
]


def counter_totals(
    metrics: Iterable[MetricsRegistry], prefixes: Tuple[str, ...]
) -> Dict[str, float]:
    """Total every nonzero counter whose name starts with one of
    ``prefixes``, across ranks; ``{}`` when there is none."""
    totals: Dict[str, float] = {}
    for reg in metrics:
        for name in reg.names():
            if not name.startswith(prefixes):
                continue
            metric = reg.get(name)
            if getattr(metric, "kind", None) == "counter" and metric.value:
                totals[name] = totals.get(name, 0.0) + metric.value
    return totals


# ``text_report``'s counter roll-ups: (section title, counter-name prefixes).
_ROLLUPS = (
    ("resilience interventions", ("resilience.", "ensemble.supervisor.")),
    ("coupler fast path", ("coupler.", "cpl.plan.")),
)


def kernel_measurements(
    metrics: Iterable[MetricsRegistry],
) -> Dict[str, Dict[str, float]]:
    """Collect per-kernel pp measurements across ranks.

    The pp layer publishes ``pp.<kernel>.launches`` (counter),
    ``pp.<kernel>.iterations`` (histogram) and ``pp.<kernel>.seconds``
    (counter of measured wall time) through
    :class:`repro.pp.KernelStats`.  This exporter inverts those
    names back into ``{kernel: {launches, iterations, seconds}}`` — the
    measured side of the modeled-vs-measured loop that
    :mod:`repro.machine.calibration` closes.  Other ``pp.*`` names (the
    pool's ``pp.procpool.*``) are skipped; a run that launched no
    instrumented kernels returns ``{}``.
    """
    out: Dict[str, Dict[str, float]] = {}
    for reg in metrics:
        for name in reg.names():
            if not name.startswith("pp."):
                continue
            kernel, _, field = name[len("pp."):].rpartition(".")
            if field not in ("launches", "iterations", "seconds") or not kernel:
                continue
            metric = reg.get(name)
            kind = getattr(metric, "kind", None)
            if field == "iterations":
                if kind != "histogram":
                    continue
                value = metric.sum
            else:
                if kind != "counter":
                    continue
                value = metric.value
            rec = out.setdefault(
                kernel, {"launches": 0.0, "iterations": 0.0, "seconds": 0.0}
            )
            rec[field] += value
    return out


def _jsonable(value: Any) -> Any:
    """Coerce span attributes to JSON-safe scalars."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def chrome_trace_events(tracers: Iterable[Tracer]) -> List[Dict[str, Any]]:
    """Flatten per-rank tracers into Chrome Trace Event dicts.

    Every span becomes ``{"name", "cat", "ph": "X", "ts", "dur", "pid",
    "tid", "args"}`` with ``ts``/``dur`` in microseconds and the rank as
    ``pid`` (so Perfetto draws one lane per rank); ``cat`` carries the
    parent chain for filtering.
    """
    events: List[Dict[str, Any]] = []
    for tracer in tracers:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": tracer.rank,
            "tid": 0,
            "args": {"name": f"rank {tracer.rank}"},
        })
        for span in tracer.spans:
            events.append({
                "name": span.name,
                "cat": "/".join(span.path[:-1]) or "root",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.rank,
                "tid": 0,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            })
    return events


def write_chrome_trace(
    path: Union[str, Path],
    tracers: Iterable[Tracer],
    metrics: Optional[Iterable[MetricsRegistry]] = None,
) -> Path:
    """Write a ``trace.json`` loadable by chrome://tracing / Perfetto.

    Aggregated metrics (if given) ride along under ``otherData`` where
    the trace viewer surfaces them as run metadata.
    """
    path = Path(path)
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracers),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        regs = list(metrics)
        if regs:
            doc["otherData"] = {
                name: summary
                for name, summary in MetricsRegistry.aggregate(regs).items()
            }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def _span_table(tracer: Tracer, indent: int = 2) -> str:
    """The GPTL-style nested table: one row per distinct ``Span.path``
    with calls/total/mean/min/max, children indented under their parent
    in first-completion order.  An ancestor that never closed (a report
    printed from inside it) is listed with zero calls."""
    root: Dict[str, tuple] = {}  # name -> (Histogram of durations, children)
    for span in tracer.spans:
        children = root
        for part in span.path:
            node = children.get(part)
            if node is None:
                node = children[part] = (Histogram(part), {})
            stats, children = node
        stats.observe(span.duration)
    lines = [
        f"{'span':<40}{'calls':>8}{'total(s)':>14}{'mean(s)':>14}"
        f"{'min(s)':>14}{'max(s)':>14}"
    ]

    def walk(children: Dict[str, tuple], depth: int) -> None:
        for name, (h, sub) in children.items():
            lines.append(
                f"{' ' * (indent * depth) + name:<40}{h.count:>8}"
                f"{h.sum:>14.6f}{h.mean:>14.6f}{h.min:>14.6f}{h.max:>14.6f}"
            )
            walk(sub, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def text_report(
    tracers: Iterable[Tracer],
    metrics: Optional[Iterable[MetricsRegistry]] = None,
) -> str:
    """Per-rank human-readable report: span aggregates + metrics."""
    sections: List[str] = []
    tracer_list = list(tracers)
    metric_list = list(metrics) if metrics is not None else []
    by_rank: Dict[int, MetricsRegistry] = {m.rank: m for m in metric_list}
    for tracer in tracer_list:
        sections.append(f"== rank {tracer.rank} ==")
        sections.append(_span_table(tracer))
        reg = by_rank.get(tracer.rank)
        if reg is not None and reg.names():
            sections.append(reg.report())
    orphan_metrics = [m for m in metric_list if m.rank not in {t.rank for t in tracer_list}]
    for reg in orphan_metrics:
        sections.append(f"== rank {reg.rank} (metrics only) ==")
        sections.append(reg.report())
    if len(metric_list) > 1:
        sections.append("== aggregate across ranks ==")
        agg = MetricsRegistry.aggregate(metric_list)
        lines = [f"{'metric':<44}{'min':>14}{'max':>14}{'sum':>16}"]
        for name, summary in agg.items():
            lines.append(
                f"{name:<44}{summary['min']:>14.6g}{summary['max']:>14.6g}"
                f"{summary['sum']:>16.6g}"
            )
        sections.append("\n".join(lines))
    for title, prefixes in _ROLLUPS:
        totals = counter_totals(metric_list, prefixes)
        if totals:
            lines = [f"== {title} =="]
            lines += [f"{name:<44}{totals[name]:>14g}" for name in sorted(totals)]
            sections.append("\n".join(lines))
    kernels = kernel_measurements(metric_list)
    if any(rec["seconds"] > 0 for rec in kernels.values()):
        lines = [
            "== pp kernel measurements ==",
            f"{'kernel':<36}{'launches':>10}{'iterations':>14}{'seconds':>12}",
        ]
        for name in sorted(kernels):
            rec = kernels[name]
            lines.append(
                f"{name:<36}{rec['launches']:>10g}{rec['iterations']:>14g}"
                f"{rec['seconds']:>12.4g}"
            )
        sections.append("\n".join(lines))
    return "\n".join(sections)


@dataclass(frozen=True)
class TimingReport:
    """Result of :func:`timing_summary`: the ``getTiming``-script equivalent."""

    timer: str
    n_ranks: int
    max_seconds: float
    min_seconds: float
    mean_seconds: float
    simulated_days: float
    sypd: float
    sdpd: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.timer}: max {self.max_seconds:.4f}s over {self.n_ranks} "
            f"ranks for {self.simulated_days:.2f} simulated days "
            f"-> {self.sypd:.3f} SYPD ({self.sdpd:.1f} SDPD)"
        )


def timing_summary(
    tracers: Iterable[Tracer],
    span: str,
    simulated_days: float,
) -> TimingReport:
    """``getTiming``-compatible SYPD summary over one span name.

    Mirrors the paper's measurement mechanism: "Wall-clock time measurements
    are obtained using timers ... with the maximum value across all MPI ranks
    recorded to account for potential load imbalance."  Ranks that never
    opened ``span`` (a forked task-domain lane) do not take part;
    ``KeyError`` when no rank did.
    """
    if simulated_days <= 0:
        raise ValueError("simulated_days must be positive")
    found = [t.find(span) for t in tracers]
    totals = [sum(s.duration for s in spans) for spans in found if spans]
    if not totals:
        raise KeyError(span)
    sypd = sypd_from_walltime(simulated_days * SECONDS_PER_DAY, max(totals))
    return TimingReport(
        timer=span,
        n_ranks=len(totals),
        max_seconds=max(totals),
        min_seconds=min(totals),
        mean_seconds=sum(totals) / len(totals),
        simulated_days=simulated_days,
        sypd=sypd,
        sdpd=sdpd_from_sypd(sypd),
    )
