"""Metrics side of the :mod:`repro.obs` facade.

Canonical home for the registry/sampler/promql/dashboard/alert stack
(implemented in the ``repro.monitoring`` submodules) and the ML
segmentation scores (implemented in ``repro.ml.segmetrics``).
Everything here is a re-export.
"""

from repro.ml.segmetrics import (
    SegmentationScores,
    adapted_rand_error,
    object_level_metrics,
    voxel_metrics,
)
from repro.monitoring.alerts import Alert, AlertManager, AlertRule, AlertState
from repro.monitoring.grafana import Dashboard, Panel, sparkline
from repro.monitoring.metrics import MetricRegistry, TimeSeries
from repro.monitoring.sampler import Sampler
import repro.monitoring.promql as promql

__all__ = [
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
    "adapted_rand_error",
    "object_level_metrics",
    "promql",
    "sparkline",
    "voxel_metrics",
]
