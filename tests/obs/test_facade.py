"""The repro.obs facade, and the old import paths it replaced."""

import importlib
import importlib.util
import warnings

import pytest

import repro.obs
import repro.obs.metrics
import repro.obs.reports
import repro.obs.tracing


def test_facade_exports_all_three_sides():
    # metrics side
    assert repro.obs.MetricRegistry is repro.obs.metrics.MetricRegistry
    assert repro.obs.Sampler is repro.obs.metrics.Sampler
    # tracing side
    assert repro.obs.Tracer is repro.obs.tracing.Tracer
    assert repro.obs.analyze_run is repro.obs.tracing.analyze_run
    # reports side
    assert repro.obs.WorkflowReport is repro.obs.reports.WorkflowReport
    assert repro.obs.WorkflowCheckpoint is repro.obs.reports.WorkflowCheckpoint
    for name in repro.obs.__all__:
        assert hasattr(repro.obs, name), name


def test_facade_matches_implementations():
    from repro.monitoring.metrics import MetricRegistry
    from repro.tracing import Tracer
    from repro.workflow.driver import WorkflowReport

    assert repro.obs.MetricRegistry is MetricRegistry
    assert repro.obs.Tracer is Tracer
    assert repro.obs.WorkflowReport is WorkflowReport


def test_facade_imports_are_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        importlib.reload(repro.obs.metrics)
        importlib.reload(repro.obs.tracing)
        importlib.reload(repro.obs.reports)


def test_monitoring_package_root_exports_nothing():
    import repro.monitoring

    assert not hasattr(repro.monitoring, "MetricRegistry")
    with pytest.raises(ImportError):
        from repro.monitoring import Dashboard  # noqa: F401


def test_old_monitoring_names_all_resolve_from_obs():
    from repro.monitoring import alerts, grafana, metrics, promql, sampler

    homes = {
        "MetricRegistry": metrics, "TimeSeries": metrics,
        "Sampler": sampler, "Dashboard": grafana, "Panel": grafana,
        "Alert": alerts, "AlertManager": alerts, "AlertRule": alerts,
        "AlertState": alerts,
    }
    for name, module in homes.items():
        assert getattr(repro.obs.metrics, name) is getattr(module, name), name
    assert repro.obs.metrics.promql is promql


def test_monitoring_submodule_imports_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.monitoring.grafana import Dashboard  # noqa: F401
        from repro.monitoring.metrics import MetricRegistry  # noqa: F401
        import repro.monitoring.promql  # noqa: F401


def test_old_ml_metrics_path_is_gone():
    from repro.ml.segmetrics import SegmentationScores

    assert importlib.util.find_spec("repro.ml.metrics") is None
    assert repro.obs.SegmentationScores is SegmentationScores


def test_unknown_attribute_still_raises():
    import repro.monitoring

    with pytest.raises(AttributeError):
        repro.monitoring.does_not_exist
    with pytest.raises(AttributeError):
        repro.obs.does_not_exist
