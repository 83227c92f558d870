"""Observability substrate: metrics, pipeline tracing, structured logs.

The paper's evaluation (Section 6, Figures 6-7) is an exercise in
*measuring* Hyper-Q — per-stage translation overhead and where time goes.
This package is the production-grade version of that instinct: a
dependency-free, process-wide metrics registry (counters, gauges,
histograms with labels), a lightweight span tracer that mirrors the
Figure-1 pipeline (parse -> bind -> xform -> serialize), and structured
logging helpers.  Every subsystem — cross compiler, metadata interface,
materializer, QIPC and PG-wire codecs, servers — reports through it.

Both the registry and the tracer are cheap enough to stay on in
production and can be disabled through
:class:`repro.config.ObservabilityConfig` (a disabled registry is a
no-op; a disabled tracer still times spans — stage timings are part of
the public API — but records nothing).
"""

from __future__ import annotations

from repro.obs.logs import StructuredLogger, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
)
from repro.obs.tracing import Span, Tracer, get_tracer, span

__all__ = [
    "MetricsRegistry",
    "Span",
    "StructuredLogger",
    "Tracer",
    "configure",
    "counter",
    "gauge",
    "get_logger",
    "get_registry",
    "get_tracer",
    "histogram",
    "span",
]


def configure(config) -> None:
    """Apply an :class:`~repro.config.ObservabilityConfig` to the
    process-wide registry and tracer.

    Platforms and servers call this with their ``HyperQConfig.observability``
    so that a single config object controls the whole deployment.  The
    registry/tracer are process-global (like the paper's single Hyper-Q
    instance per backend), so the last configuration applied wins.
    """
    get_registry().set_enabled(bool(config.enabled))
    get_tracer().enabled = bool(config.enabled)
