"""Unified tracing & telemetry: spans, metrics registry, Perfetto export.

See :mod:`repro.obs.spans` for the span API, :mod:`repro.obs.metrics` for
counters/gauges/histograms and Prometheus exposition, and
:mod:`repro.obs.export` for trace conversion/validation.
"""

from .export import summarize_trace, to_chrome_trace, validate_trace
from .metrics import MetricsRegistry, default_registry, percentile
from .rss import children_peak_rss_bytes, peak_rss_bytes
from .spans import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    attach,
    current_registry,
    current_span,
    current_tracer,
    new_id,
    read_trace,
    span,
    span_tree,
    trace_context,
    tracing,
)

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "TraceContext",
    "Tracer",
    "attach",
    "children_peak_rss_bytes",
    "current_registry",
    "current_span",
    "current_tracer",
    "default_registry",
    "new_id",
    "peak_rss_bytes",
    "percentile",
    "read_trace",
    "span",
    "span_tree",
    "summarize_trace",
    "to_chrome_trace",
    "trace_context",
    "tracing",
    "validate_trace",
]
