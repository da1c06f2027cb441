"""repro.obs — observability for the capture → HBG → verify → repair pipeline.

The paper's feasibility argument (§7) is quantitative: events
captured per configuration change, HBG construction cost, and
verification latency at the FIB boundary.  This package is the
measurement layer that produces those numbers from any scenario run:

* :mod:`repro.obs.metrics` — counters, gauges, and histograms with
  p50/p95/p99, grouped into sections by metric-name prefix;
* :mod:`repro.obs.tracing` — nestable spans with a
  context-manager/decorator API and exception safety;
* :mod:`repro.obs.export` — table / JSON / JSON-lines / Prometheus
  renderers over one canonical document;
* :mod:`repro.obs.trace` — the Chrome/Perfetto, OTLP, and text
  exporters that render the happens-before graph as a causal trace,
  and the latency attribution pass over its paths;
* :mod:`repro.obs.ledger` — the verdict ledger, the record of every
  verify and rollback verdict;
* :mod:`repro.obs.resources` — the byte-accounting ledger.

Observability is **off by default**: the module-level registry,
tracer, resource ledger, and verdict ledger are no-op singletons, so
instrumented hot paths cost a single attribute check
(``registry.enabled`` / ``verdicts.enabled``) per site.  Enable it per
process with :func:`enable` (the CLI's ``--metrics`` flag and the
``repro stats`` subcommand do exactly this)::

    from repro import obs

    registry, tracer = obs.enable()
    ...run a scenario...
    print(obs.export.render_table(registry, tracer))
    obs.disable()

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional, Tuple

from repro.obs import export  # noqa: F401  (re-exported submodule)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Bound,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Stopwatch,
)
from repro.obs.ledger import (
    NULL_VERDICTS,
    NullVerdictLedger,
    VerdictLedger,
    VerdictRecord,
)
from repro.obs.resources import NULL_LEDGER, NullLedger, ResourceLedger
from repro.obs.tracing import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "Bound",
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Stopwatch",
    "Tracer",
    "NullTracer",
    "SpanRecord",
    "ResourceLedger",
    "NullLedger",
    "VerdictLedger",
    "VerdictRecord",
    "NullVerdictLedger",
    "enable",
    "disable",
    "enabled",
    "get_registry",
    "get_tracer",
    "get_ledger",
    "enable_ledger",
    "disable_ledger",
    "accounting",
    "get_verdicts",
    "enable_verdicts",
    "disable_verdicts",
    "verdicts",
    "span",
    "traced",
    "capturing",
    "export",
]

_registry = NULL_REGISTRY
_tracer = NULL_TRACER
_ledger = NULL_LEDGER
_verdicts = NULL_VERDICTS


def get_registry():
    """The process-wide metrics registry (no-op unless :func:`enable`\\ d)."""
    return _registry


def get_tracer():
    """The process-wide span tracer (no-op unless :func:`enable`\\ d)."""
    return _tracer


def enabled() -> bool:
    return _registry.enabled


def enable(
    histogram_max_samples: int = 8192,
) -> Tuple[MetricsRegistry, Tracer]:
    """Install a live registry + tracer; returns both.

    Idempotent in spirit: calling it again installs *fresh* instances
    (a clean slate for the next measured run).
    """
    global _registry, _tracer
    _registry = MetricsRegistry(histogram_max_samples=histogram_max_samples)
    _tracer = Tracer(registry=_registry)
    return _registry, _tracer


def disable() -> None:
    """Restore the no-op registry and tracer."""
    global _registry, _tracer
    _registry = NULL_REGISTRY
    _tracer = NULL_TRACER


def get_ledger():
    """The process-wide resource ledger (no-op unless accounting)."""
    return _ledger


def enable_ledger(sample: int = 64) -> ResourceLedger:
    """Install a fresh :class:`ResourceLedger`; returns it.

    Independent of :func:`enable`: structures built
    while the ledger is live register their ``account_bytes`` hooks;
    structures built before stay unaccounted.
    """
    global _ledger
    _ledger = ResourceLedger(sample=sample)
    return _ledger


def disable_ledger() -> None:
    """Restore the no-op resource ledger."""
    global _ledger
    _ledger = NULL_LEDGER


@contextmanager
def accounting(sample: int = 64):
    """``with obs.accounting() as ledger: ...`` — scoped byte accounting.

    Restores whatever ledger was installed before, mirroring
    :func:`capturing`.
    """
    global _ledger
    previous = _ledger
    try:
        yield enable_ledger(sample=sample)
    finally:
        _ledger = previous


def get_verdicts():
    """The process-wide verdict ledger (no-op unless enabled)."""
    return _verdicts


def enable_verdicts(
    path: Optional[str] = None,
    capacity: int = 4096,
    rotate_records: int = 100_000,
    flush_every: int = 256,
) -> VerdictLedger:
    """Install a fresh :class:`VerdictLedger`; returns it.

    Independent of :func:`enable`, like accounting:
    verdict sites (``DataPlaneVerifier.verify``,
    ``IncrementalVerifier.apply``, ``RepairEngine.repair``) start
    appending the moment this is on, and pay one attribute check when
    it is not.
    """
    global _verdicts
    _verdicts = VerdictLedger(
        path=path,
        capacity=capacity,
        rotate_records=rotate_records,
        flush_every=flush_every,
    )
    return _verdicts


def disable_verdicts() -> None:
    """Flush and restore the no-op verdict ledger."""
    global _verdicts
    _verdicts.flush()
    _verdicts = NULL_VERDICTS


@contextmanager
def verdicts(
    path: Optional[str] = None,
    capacity: int = 4096,
    rotate_records: int = 100_000,
    flush_every: int = 256,
):
    """``with obs.verdicts() as ledger: ...`` — scoped verdict logging.

    Flushes and restores whatever ledger was installed before,
    mirroring :func:`accounting`.
    """
    global _verdicts
    previous = _verdicts
    try:
        yield enable_verdicts(
            path=path,
            capacity=capacity,
            rotate_records=rotate_records,
            flush_every=flush_every,
        )
    finally:
        _verdicts.flush()
        _verdicts = previous


@contextmanager
def capturing(histogram_max_samples: int = 8192):
    """``with obs.capturing() as (registry, tracer): ...`` — scoped enable.

    Restores whatever was installed before, so tests and benchmarks
    cannot leak an enabled registry into timing-sensitive peers.
    """
    global _registry, _tracer
    previous = (_registry, _tracer)
    try:
        yield enable(histogram_max_samples=histogram_max_samples)
    finally:
        _registry, _tracer = previous


def span(name: str, **attrs: str):
    """Span against the *current* tracer (late-bound, so it works even
    when the tracer is enabled after the call site was imported)."""
    return get_tracer().span(name, **attrs)


def traced(name: str) -> Callable:
    """Decorator form of :func:`span`, late-bound per call."""

    def decorate(fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with get_tracer().span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
