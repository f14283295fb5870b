"""Structured observability: span tracing, metrics, and exporters.

The layer behind every performance number this reproduction reports —
the structured equivalent of the paper's GPTL timers + ``getTiming``
script.  See :class:`Obs` for the facade components accept, and
``docs/API.md`` for the quickstart.
"""

from .core import NULL_OBS, Obs
from .export import (
    TimingReport,
    chrome_trace_events,
    counter_totals,
    kernel_measurements,
    text_report,
    timing_summary,
    write_chrome_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Span, Tracer

__all__ = [
    "Obs",
    "NULL_OBS",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace_events",
    "write_chrome_trace",
    "text_report",
    "timing_summary",
    "TimingReport",
    "counter_totals",
    "kernel_measurements",
]
