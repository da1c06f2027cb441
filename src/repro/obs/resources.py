"""The memory ledger: deterministic byte accounting for long-lived state.

The ROADMAP's next frontier is an always-on streaming service with
*bounded* memory, and a bound nobody can observe is a bound nobody
can trust.  This module gives every long-lived structure in the
pipeline — the happens-before graph, the inference indices, the §5
closure caches, the verdict tail, the fuzz corpus — a way to
**account for its own bytes**:

* each structure implements ``account_bytes(audit: bool = False)``
  returning its resident size in bytes, and registers itself into the
  process-wide :class:`ResourceLedger` under a stable *component*
  name (``hbr.graph``, ``hbr.index``, ``snapshot.closure_cache``,
  ``obs.verdicts``, ``testkit.corpus`` — see
  :data:`KNOWN_COMPONENTS`);
* :meth:`ResourceLedger.refresh` polls every live registration,
  publishes ``resource.bytes{component=}`` gauges (plus per-component
  high-watermarks and a grand total) into the metrics registry;
* :meth:`ResourceLedger.audit` re-measures every component with the
  exact (unsampled) ``sys.getsizeof`` walk, cross-checking the fast
  estimates — the acceptance bar is estimates within 20% of audit.

Design constraints, mirroring :mod:`repro.obs.metrics` and the
verdict ledger:

* **Off by default.**  The module-level ledger is a shared
  :class:`NullLedger`; registration sites pay a single attribute
  check (``ledger.enabled``) and nothing else.  The ``ledger`` rows
  of ``SITES`` in :mod:`repro.lint.rules.obs_rules` pin every
  registration point, and a tripping-ledger test proves the disabled
  path never reaches ``register()``.
* **Weak references only.**  The ledger must never extend an object's
  lifetime: registrations hold ``weakref``\\ s and drop off silently
  when the owner is collected.
* **Deterministic.**  ``sys.getsizeof`` is a pure function of object
  layout and content, and sampling always takes *evenly spaced
  indices* of a container's (insertion-ordered) iteration, so two
  runs of the same seed report byte-identical ledgers.  Sets larger
  than the sample budget are measured exactly rather than sampled,
  because their iteration order may be hash-seed dependent.
"""

from __future__ import annotations

import sys
import types
import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Component names with a catalogued registration site; the lint
#: ``SITES`` table's ``ledger`` rows and their drift test keep this in
#: lockstep with the code (see repro/lint/rules/obs_rules.py).
KNOWN_COMPONENTS: Tuple[str, ...] = (
    "hbr.graph",
    "hbr.index",
    "obs.verdicts",
    "snapshot.closure_cache",
    "testkit.corpus",
)

#: Per-container sampling budget for the fast estimate: containers
#: longer than this are measured at evenly spaced elements and
#: extrapolated.
DEFAULT_SAMPLE = 64

#: Leaf types: counted via ``sys.getsizeof`` alone, never traversed.
_ATOMIC = (int, float, complex, bool, bytes, bytearray, str, type(None))

#: Types counted shallow (their internals are code, not data).
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.GeneratorType,
    weakref.ref,
)


def _slot_names(cls: type) -> List[str]:
    names: List[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__"):
                names.append(name)
    return names


def _mark_seen(obj: Any, seen: set) -> None:
    """Add a skipped element (and its direct children) to the dedup set.

    Skipped elements' bytes are represented by the extrapolation, so a
    later root that shares them must not count them again — the audit
    walk would not.  Marking one level deep covers the common shape of
    cross-root sharing (adjacency maps whose lists hold the same edge
    objects) without recursing into skipped data.
    """
    seen.add(id(obj))
    if isinstance(obj, dict):
        for key, value in obj.items():
            seen.add(id(key))
            seen.add(id(value))
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for element in obj:
            seen.add(id(element))


def _spread_indices(length: int, sample: int) -> set:
    """``sample`` evenly spaced indices into ``length`` elements.

    Deterministic and stratified: a head sample would misjudge any
    container whose early elements differ systematically from the
    rest (the HBG's out-adjacency starts with high fan-out config
    events and settles into single-edge chains).
    """
    step = length / sample
    return {int(i * step) for i in range(sample)}


def _extrapolate(costs: List[int], skipped: int) -> int:
    """Estimate a container's element bytes from its measured sample.

    Shared sub-objects (interned strings, events referenced by many
    edges) are counted once per walk, so the sample's *average*
    element cost overstates the rest: the first measured elements pay
    for the shared objects the others reuse.  The first half of the
    sample therefore only warms up the dedup set; the second half's
    mean — measured with the shared objects already seen — is the
    marginal cost extrapolated over the ``skipped`` elements,
    mirroring what the audit walk would charge them.
    """
    measured = sum(costs)
    if not skipped:
        return measured
    probe = costs[len(costs) // 2 :]
    if not probe:
        return measured * (1 + skipped)
    marginal = sum(probe) / len(probe)
    return int(measured + marginal * skipped)


def _sizeof(obj: Any, seen: set, sample: Optional[int]) -> int:
    """Recursive ``sys.getsizeof`` walk with id-dedup and sampling.

    ``sample=None`` measures exactly (audit mode); otherwise
    containers longer than ``sample`` are extrapolated from
    ``sample`` evenly spaced elements.  Shared sub-objects are
    counted once per walk via the ``seen`` id set.
    """
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    try:
        size = sys.getsizeof(obj)
    except TypeError:  # exotic C objects without a size
        return 0
    if isinstance(obj, _ATOMIC) or isinstance(obj, _OPAQUE):
        return size
    if isinstance(obj, dict):
        items: List[Tuple[Any, Any]] = list(obj.items())
        if sample is None or len(items) <= sample:
            return size + sum(
                _sizeof(key, seen, sample) + _sizeof(value, seen, sample)
                for key, value in items
            )
        picked = _spread_indices(len(items), sample)
        costs: List[int] = []
        skipped = 0
        for index, (key, value) in enumerate(items):
            if index in picked:
                costs.append(
                    _sizeof(key, seen, sample)
                    + _sizeof(value, seen, sample)
                )
            else:
                skipped += 1
                _mark_seen(key, seen)
                _mark_seen(value, seen)
        return size + _extrapolate(costs, skipped)
    if isinstance(obj, (list, tuple)):
        elements: List[Any] = list(obj)
        if sample is None or len(elements) <= sample:
            return size + sum(_sizeof(e, seen, sample) for e in elements)
        picked = _spread_indices(len(elements), sample)
        costs = []
        skipped = 0
        for index, element in enumerate(elements):
            if index in picked:
                costs.append(_sizeof(element, seen, sample))
            else:
                skipped += 1
                _mark_seen(element, seen)
        return size + _extrapolate(costs, skipped)
    if isinstance(obj, (set, frozenset)):
        # Iteration order of sets can be hash-seed dependent, so a
        # head sample would be nondeterministic: measure exactly.
        return size + sum(_sizeof(e, seen, sample) for e in obj)
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None:
        size += _sizeof(instance_dict, seen, sample)
    for name in _slot_names(type(obj)):
        size += _sizeof(getattr(obj, name, None), seen, sample)
    return size


def deep_sizeof(root: Any) -> int:
    """Exact retained size of ``root`` in bytes (audit mode)."""
    return _sizeof(root, set(), None)


def estimate_sizeof(root: Any, sample: int = DEFAULT_SAMPLE) -> int:
    """Sampled retained size of ``root`` (the fast ledger estimate)."""
    return _sizeof(root, set(), sample)


def combined_sizeof(
    roots: Iterable[Any], sample: Optional[int] = DEFAULT_SAMPLE
) -> int:
    """Size several roots with *one* shared dedup set.

    The idiom for a structure's ``account_bytes``: pass the handful
    of containers that make up its long-lived state, and objects
    referenced from more than one of them are counted once — exactly
    how the audit walk would see them.
    """
    seen: set = set()
    return sum(_sizeof(root, seen, sample) for root in roots)


class _Registration:
    """One weak registration of an accountable owner."""

    __slots__ = ("component", "ref")

    def __init__(self, component: str, owner: Any) -> None:
        self.component = component
        self.ref = weakref.ref(owner)


class ResourceLedger:
    """Registry of accountable components and their byte watermarks."""

    enabled = True

    def __init__(self, sample: int = DEFAULT_SAMPLE) -> None:
        if sample < 1:
            raise ValueError("sample must be >= 1")
        self.sample = sample
        self._registrations: Dict[int, _Registration] = {}
        self._next_handle = 1
        #: component -> last refreshed bytes.
        self._bytes: Dict[str, int] = {}
        #: component -> high-watermark across every refresh.
        self._peaks: Dict[str, int] = {}
        self._peak_total = 0
        self.refreshes_total = 0

    # -- registration ------------------------------------------------------

    def register(self, component: str, owner: Any) -> int:
        """Track ``owner`` under ``component``; returns a handle.

        ``owner`` must implement ``account_bytes(audit: bool) -> int``.
        Only a weak reference is kept: a collected owner drops out of
        the ledger at the next refresh with no unregistration needed.
        """
        account = getattr(owner, "account_bytes", None)
        if not callable(account):
            raise TypeError(
                f"{type(owner).__name__} registered under {component!r} "
                "has no account_bytes() method"
            )
        handle = self._next_handle
        self._next_handle += 1
        self._registrations[handle] = _Registration(component, owner)
        return handle

    def unregister(self, handle: int) -> None:
        self._registrations.pop(handle, None)

    def live_registrations(self) -> List[Tuple[str, Any]]:
        """(component, owner) pairs whose owners are still alive."""
        alive: List[Tuple[str, Any]] = []
        for handle in sorted(self._registrations):
            registration = self._registrations[handle]
            owner = registration.ref()
            if owner is None:
                del self._registrations[handle]
            else:
                alive.append((registration.component, owner))
        return alive

    def components(self) -> List[str]:
        return sorted({c for c, _owner in self.live_registrations()})

    def __len__(self) -> int:
        return len(self.live_registrations())

    # -- measurement -------------------------------------------------------

    def _measure(self, audit: bool) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for component, owner in self.live_registrations():
            measured = int(owner.account_bytes(audit=audit))
            totals[component] = totals.get(component, 0) + measured
        return totals

    def refresh(self, registry: Any = None) -> Dict[str, int]:
        """Re-account every component; publish gauges; return bytes.

        ``registry`` defaults to the process-wide metrics registry;
        when metrics are disabled the refresh still updates the
        ledger's own state (last bytes and peaks).
        """
        totals = self._measure(audit=False)
        self.refreshes_total += 1
        self._bytes = totals
        for component, count in totals.items():
            if count > self._peaks.get(component, -1):
                self._peaks[component] = count
        total = sum(totals.values())
        if total > self._peak_total:
            self._peak_total = total
        if registry is None:
            from repro import obs

            registry = obs.get_registry()
        if registry.enabled:
            for component, count in sorted(totals.items()):
                registry.gauge("resource.bytes", component=component).set(
                    count
                )
                registry.gauge(
                    "resource.bytes_peak", component=component
                ).set(self._peaks[component])
            registry.gauge("resource.bytes_total").set(total)
            registry.gauge("resource.bytes_peak_total").set(self._peak_total)
            registry.counter("resource.refreshes_total").inc()
        return totals

    def audit(self) -> Dict[str, int]:
        """Exact per-component bytes via the unsampled getsizeof walk."""
        return self._measure(audit=True)

    # -- read side ---------------------------------------------------------

    def bytes_by_component(self) -> Dict[str, int]:
        return dict(self._bytes)

    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    def peak_bytes(self, component: str) -> int:
        return self._peaks.get(component, 0)

    def peak_total_bytes(self) -> int:
        return self._peak_total

    def clear(self) -> None:
        self._registrations.clear()
        self._bytes.clear()
        self._peaks.clear()
        self._peak_total = 0
        self.refreshes_total = 0

    def __repr__(self) -> str:
        return (
            f"ResourceLedger(components={self.components()}, "
            f"total={self.total_bytes()}B, peak={self._peak_total}B)"
        )


class NullLedger:
    """The default ledger: registration is a single attribute check.

    ``enabled`` is False so registration sites skip the weakref and
    accounting entirely; ``register`` still exists (and no-ops) so a
    site that forgets the guard stays correct, merely slower.
    """

    enabled = False
    sample = DEFAULT_SAMPLE
    refreshes_total = 0

    def register(self, component: str, owner: Any) -> int:
        return 0

    def unregister(self, handle: int) -> None:
        pass

    def live_registrations(self) -> List[Tuple[str, Any]]:
        return []

    def components(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0

    def refresh(self, registry: Any = None) -> Dict[str, int]:
        return {}

    def audit(self) -> Dict[str, int]:
        return {}

    def bytes_by_component(self) -> Dict[str, int]:
        return {}

    def total_bytes(self) -> int:
        return 0

    def peak_bytes(self, component: str) -> int:
        return 0

    def peak_total_bytes(self) -> int:
        return 0

    def clear(self) -> None:
        pass


NULL_LEDGER = NullLedger()
