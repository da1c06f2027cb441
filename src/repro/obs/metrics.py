"""Dependency-free metrics primitives: counters, gauges, histograms.

The registry is the write side of the observability layer (§7's
feasibility numbers — events captured per change, HBG construction
cost, per-FIB-write verification latency — all come out of it).  Two
implementations share one interface:

* :class:`MetricsRegistry` — the real thing.  Instruments are
  created lazily, keyed by ``(name, labels)``, and grouped into
  *sections* by the name's leading dotted component
  (``verify.fib_writes_verified`` lives in section ``verify``).
* :class:`NullRegistry` — the default.  Every lookup returns a
  shared no-op instrument, so instrumented hot paths pay one
  attribute check and nothing else when observability is off.

Instrumented code follows one idiom::

    reg = obs.get_registry()
    if reg.enabled:                      # only pay for clocks when on
        watch = reg.stopwatch()
    ...work...
    if reg.enabled:
        reg.histogram("verify.verify_seconds").observe(watch.elapsed())
    reg.counter("verify.verifications_total").inc()   # no-op when off

A site that runs per event holds its instruments instead of looking
them up by name each time (:class:`Bound`, :class:`Family`), and a
gauge whose value changes per event but is read per scrape reads
through to its owner (:meth:`Gauge.read_from`): telemetry is priced
per read, not per event.

The :class:`Stopwatch` returned by ``reg.stopwatch()`` is the *only*
sanctioned wall-clock read in the deterministic layers (``net``,
``protocols``, ``capture``, ``hbr``): domain code must never import
``time``/``datetime`` itself — simulation semantics come from the
logical simulator clock, and wall time exists solely for
observability.  The ``DET001`` lint rule (see
``docs/STATIC_ANALYSIS.md``) enforces this.

Histograms keep exact count/sum/min/max and a bounded reservoir of
samples (deterministic, seeded) for percentile estimation, so an
arbitrarily long capture cannot exhaust memory.
"""

from __future__ import annotations

import math
import random
import threading
import time
import zlib
from bisect import bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: LabelKey) -> str:
    """Canonical display name: ``name{k=v,k2=v2}`` (no braces if bare)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def section_of(name: str) -> str:
    """Section = the metric name's leading dotted component."""
    return name.split(".", 1)[0]


class Stopwatch:
    """A started wall clock; the observability layer's only clock.

    Handed out by :meth:`MetricsRegistry.stopwatch` so that
    deterministic domain code (simulator, capture, HBR) can measure
    wall time for metrics without importing ``time`` — keeping the
    wall clock quarantined inside ``repro.obs`` where it cannot leak
    into simulation semantics.
    """

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self._started

    def restart(self) -> None:
        self._started = time.perf_counter()

    def lap(self) -> float:
        """:meth:`elapsed` then :meth:`restart`, on one clock read:
        back-to-back laps partition the time since construction."""
        now = time.perf_counter()
        seconds = now - self._started
        self._started = now
        return seconds


class _NullStopwatch:
    """Free stand-in handed out by :class:`NullRegistry`."""

    __slots__ = ()

    def elapsed(self) -> float:
        return 0.0

    def restart(self) -> None:
        pass

    def lap(self) -> float:
        return 0.0


_NULL_STOPWATCH = _NullStopwatch()


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({format_metric_name(self.name, self.labels)}={self._value})"


class Gauge:
    """A value that can go up and down (queue depth, throughput).

    A gauge is either *stored* (:meth:`set` / :meth:`inc` /
    :meth:`dec`) or *read-through* (:meth:`read_from`): ``value`` —
    and so every exporter and Prometheus scrape — then
    returns the source's current value, and the owner of the state
    pays nothing per update.  For a quantity that changes per event
    and is read per scrape, that is the right price.  The last call
    wins: storing into a read-through gauge (``inc`` / ``dec`` start
    from its current reading) makes it a stored one again.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_source")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._source: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Store ``value`` (dropping any :meth:`read_from` source)."""
        self._source = None
        self._value = float(value)

    def read_from(self, source: Callable[[], float]) -> None:
        """Make ``value`` return ``source()`` from now on.

        A scrape thread calls ``source`` while the owner mutates its
        state, so it must be a point read — an attribute, a ``len``,
        one ``dict.get`` — never an iteration over a container the
        owner grows (the CONC002 contract).
        """
        self._source = source

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    @property
    def value(self) -> float:
        source = self._source
        return self._value if source is None else float(source())

    def __repr__(self) -> str:
        return f"Gauge({format_metric_name(self.name, self.labels)}={self.value})"


class Histogram:
    """Distribution summary with exact moments and sampled percentiles.

    ``count``/``sum``/``min``/``max``/``mean`` are exact over every
    observation.  Percentiles come from a reservoir of at most
    ``max_samples`` values, filled by Vitter's Algorithm R with a
    per-histogram seeded RNG so replays are bit-identical.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "max_samples",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_samples",
        "_rng",
    )

    def __init__(
        self, name: str, labels: LabelKey = (), max_samples: int = 8192
    ):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.labels = labels
        self.max_samples = max_samples
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        # Seed from a *stable* digest of the metric identity.  The
        # builtin hash() is salted per process (PYTHONHASHSEED), so
        # using it here would make reservoir contents — and therefore
        # p50/p95/p99 — drift between otherwise identical runs.
        self._rng = random.Random(
            zlib.crc32(format_metric_name(name, labels).encode("utf-8"))
        )

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.max_samples:
                self._samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def mean(self) -> Optional[float]:
        return self._sum / self._count if self._count else None

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the reservoir.

        Returns ``None`` with zero samples; with one sample every
        percentile is that sample.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        if p == 0:
            return ordered[0]
        rank = math.ceil(p / 100.0 * len(ordered))
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, Optional[float]]:
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def bucket_counts(self, boundaries: Iterable[float]) -> List[int]:
        """Cumulative observation counts at each upper bound.

        The Prometheus ``_bucket{le=}`` series: for each boundary, how
        many observations were ``<=`` it.  Exact while the reservoir
        still holds every observation (``count <= max_samples``);
        beyond that the reservoir's empirical CDF is scaled to the
        true count.  Counts are clamped monotone non-decreasing, and
        the caller's trailing ``+Inf`` bucket is always ``count``.
        """
        bounds = list(boundaries)
        if not self._samples:
            return [0 for _ in bounds]
        ordered = sorted(self._samples)
        held = len(ordered)
        scale = self._count / held
        counts: List[int] = []
        floor = 0
        for bound in bounds:
            rank = bisect_right(ordered, bound)
            scaled = min(self._count, int(round(rank * scale)))
            floor = max(floor, scaled)
            counts.append(floor)
        return counts

    def __repr__(self) -> str:
        return (
            f"Histogram({format_metric_name(self.name, self.labels)} "
            f"count={self._count} mean={self.mean})"
        )


Metric = object  # Counter | Gauge | Histogram (py3.10-safe alias)


class Family(dict):
    """One metric's instruments by label value, made on first use.

    ``Family(registry.histogram, "inference.rule_seconds", "rule")``
    maps a label value to its instrument (``family[rule.name]``): a
    per-event site pays one C-level subscript instead of the label-key
    rebuild of a registry lookup, and the registry still holds exactly
    the instruments that were used — nothing is pre-created.
    """

    __slots__ = ("_lookup", "_name", "_label")

    def __init__(
        self, lookup: Callable[..., Any], name: str, label: str
    ) -> None:
        super().__init__()
        self._lookup = lookup
        self._name = name
        self._label = label

    def __missing__(self, key: str) -> Any:
        instrument = self[key] = self._lookup(
            self._name, **{self._label: key}
        )
        return instrument


class Bound:
    """What a per-event site resolves once per registry.

    The one binding idiom (``docs/OBSERVABILITY.md``)::

        self._instruments = Bound(self._bind)   # in __init__
        ...
        if registry.enabled:                     # per event
            observed, seconds = self._instruments.on(registry)

    ``on`` returns ``build(registry)``, built the first time this
    registry is seen and again when :func:`repro.obs.enable` installs
    a new one.  Sites call it under their ``registry.enabled`` guard,
    so the :class:`NullRegistry` binds nothing.  Identity is the whole
    invalidation rule: a registry is never emptied in place (it has
    no ``clear``), only replaced by ``enable``.  Gauges the build
    registers through :meth:`read_through` are let go on a re-bind:
    the registry left behind keeps their last readings, as stored
    values, and no longer reaches into the site's state.
    """

    __slots__ = ("_build", "_registry", "_instruments", "_sourced")

    def __init__(self, build: Callable[[Any], Any]) -> None:
        self._build = build
        self._registry: Any = None
        self._instruments: Any = None
        self._sourced: List[Gauge] = []

    def on(self, registry: Any) -> Any:
        if registry is not self._registry:
            for gauge in self._sourced:
                gauge.set(gauge.value)
            self._sourced = []
            self._registry = registry
            self._instruments = self._build(registry)
        return self._instruments

    def read_through(
        self, name: str, source: Callable[[], float], **labels: str
    ) -> None:
        """A read-through gauge on the registry last bound by :meth:`on`."""
        gauge = self._registry.gauge(name, **labels)
        gauge.read_from(source)
        self._sourced.append(gauge)


class MetricsRegistry:
    """Lazily-created, label-keyed instruments grouped into sections.

    The registry is **internally synchronized**: instrument creation
    and iteration hold a private lock, so a ``/metrics`` scrape on an
    HTTP handler thread can render while the pipeline thread creates
    new instruments (the CONC002 lint rule's "self-synchronized"
    contract — before the lock, ``sorted(self._counters)`` during a
    scrape raced creation with ``RuntimeError: dictionary changed
    size during iteration``).  The hot path stays cheap: a lookup
    that *hits* is a plain ``dict.get`` with no lock (CPython dict
    reads are atomic); only a miss takes the lock, double-checking
    before creating.  Mutating an already-obtained instrument
    (``Counter.inc`` …) was and remains lock-free single-writer.
    """

    enabled = True

    def __init__(self, histogram_max_samples: int = 8192):
        self.histogram_max_samples = histogram_max_samples
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument lookup (get-or-create) ---------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(key)
                if instrument is None:
                    instrument = Counter(name, key[1])
                    self._counters[key] = instrument
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(key)
                if instrument is None:
                    instrument = Gauge(name, key[1])
                    self._gauges[key] = instrument
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(key)
                if instrument is None:
                    instrument = Histogram(
                        name, key[1], max_samples=self.histogram_max_samples
                    )
                    self._histograms[key] = instrument
        return instrument

    def stopwatch(self) -> Stopwatch:
        """A freshly started :class:`Stopwatch`."""
        return Stopwatch()

    # -- iteration ---------------------------------------------------------
    # Each method snapshots the key set under the lock; callers get a
    # stable list even while other threads create instruments.

    def counters(self) -> List[Counter]:
        with self._lock:
            return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        with self._lock:
            return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        with self._lock:
            return [self._histograms[k] for k in sorted(self._histograms)]

    def all_metrics(self) -> Iterable[object]:
        yield from self.counters()
        yield from self.gauges()
        yield from self.histograms()

    def sections(self) -> List[str]:
        names = {section_of(m.name) for m in self.all_metrics()}
        return sorted(names)

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
            )


# -- the no-op side ----------------------------------------------------------


class _NullCounter:
    kind = "counter"
    name = ""
    labels: LabelKey = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    kind = "gauge"
    name = ""
    labels: LabelKey = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def read_from(self, source: Callable[[], float]) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    kind = "histogram"
    name = ""
    labels: LabelKey = ()
    count = 0
    sum = 0.0
    min = None
    max = None
    mean = None

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> Optional[float]:
        return None

    def summary(self) -> Dict[str, Optional[float]]:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """The default registry: every instrument is a shared no-op.

    ``enabled`` is False so instrumented code can skip clock reads and
    any other enabled-only work with a single attribute check.
    """

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **labels: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def stopwatch(self) -> _NullStopwatch:
        return _NULL_STOPWATCH

    def counters(self) -> List[Counter]:
        return []

    def gauges(self) -> List[Gauge]:
        return []

    def histograms(self) -> List[Histogram]:
        return []

    def all_metrics(self) -> Iterable[object]:
        return iter(())

    def sections(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
