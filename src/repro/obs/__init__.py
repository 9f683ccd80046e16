"""``repro.obs`` — the unified observability facade.

One import surface for everything a run can tell you about itself:

- :mod:`repro.obs.metrics` — the Prometheus-like side: registry, sampler,
  promql, Grafana-like dashboards, alerts, and the ML segmentation
  scores.
- :mod:`repro.obs.tracing` — the span side: tracer, span-tree validation,
  critical-path analysis, Chrome-trace / metric exporters.
- :mod:`repro.obs.reports` — step/workflow reports and their stable
  serialization (shared with checkpoints).

The most common names are re-exported here, so
``from repro.obs import Tracer, MetricRegistry, analyze_run`` just works.
"""

from repro.obs.metrics import (
    Alert,
    AlertManager,
    AlertRule,
    AlertState,
    Dashboard,
    MetricRegistry,
    Panel,
    Sampler,
    SegmentationScores,
    TimeSeries,
    promql,
    voxel_metrics,
)
from repro.obs.reports import (
    StepReport,
    WorkflowCheckpoint,
    WorkflowReport,
    load_report,
    save_report,
)
from repro.obs.tracing import (
    CriticalPathReport,
    Span,
    Tracer,
    analyze_run,
    attribute_layers,
    critical_chain,
    spans_to_metrics,
    to_chrome_trace,
    validate_spans,
    validate_trace,
    write_chrome_trace,
)

__all__ = [
    # metrics
    "Alert",
    "AlertManager",
    "AlertRule",
    "AlertState",
    "Dashboard",
    "MetricRegistry",
    "Panel",
    "Sampler",
    "SegmentationScores",
    "TimeSeries",
    "promql",
    "voxel_metrics",
    # tracing
    "CriticalPathReport",
    "Span",
    "Tracer",
    "analyze_run",
    "attribute_layers",
    "critical_chain",
    "spans_to_metrics",
    "to_chrome_trace",
    "validate_spans",
    "validate_trace",
    "write_chrome_trace",
    # reports
    "StepReport",
    "WorkflowCheckpoint",
    "WorkflowReport",
    "load_report",
    "save_report",
]
