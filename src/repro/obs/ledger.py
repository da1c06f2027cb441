"""The verdict ledger: an append-only record of every verification verdict.

The paper's integration argument is that verification runs *inside*
the control plane, continuously — which makes the sequence of
verdicts itself operational data.  "When did this prefix start
failing?  What event introduced it?  When did it recover, and was the
recovery a repair or convergence?" are questions about the *verdict
stream*, and the metrics registry (aggregates) forgets it.  This
module keeps it:

* :class:`VerdictRecord` — one verdict: a §5/§4 snapshot verification
  (``kind="snapshot"``), one :meth:`IncrementalVerifier.apply` delta
  verdict (``kind="incremental"``), or one §6 rollback
  (``kind="rollback"``), carrying HBG event-id provenance ``refs``
  and the per-router watermark ``frontier`` at verdict time (when a
  :class:`~repro.obs.continuous.WatermarkTracker` is attached);
* :class:`VerdictLedger` — bounded in-memory tail (for
  ``repro watch``) plus JSONL persistence
  with **bounded rotation**: every ``flush_every`` appends the
  unflushed lines are appended to the live file and fsynced, and a
  flush that finds ``rotate_records`` or more in the file first
  renames it to ``<path>.1``, so a long-lived process never grows an
  unbounded artifact and a flush costs what it adds, not what the
  file holds.  A killed process can leave one torn last line;
  :func:`load` reads a file back to its last whole record.

Design constraints mirror the metrics registry and resource ledger:

* **Off by default.**  The process-wide singleton is a shared
  :class:`NullVerdictLedger`; verdict sites (the ``verdicts``
  rows of ``SITES``, ``repro/lint/rules/obs_rules.py``) pay one
  ``verdicts.enabled`` attribute check when disabled — the
  tripping-ledger test proves the disabled path never reaches
  :meth:`record`.
* **Thread-safe appends.**  A reader on another thread (a scrape of
  the registry's read-through gauges, a test's second thread) may
  read the tail while the owner's replay loop appends; one lock
  serialises both.
* **Deterministic content.**  Records carry simulation/arrival
  timestamps, never wall clocks, so two runs of the same scenario
  produce byte-identical ledgers.

Schema (``repro-verdicts/v1``): one JSON object per line with keys
``seq, kind, at, ok, prefix, router, event_id, event_time, detail,
violations, missing_routers, refs, frontier`` (see
:meth:`VerdictRecord.to_dict`).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.resources import combined_sizeof

#: The verdict kinds a record may carry (one per catalogued site).
KINDS: Tuple[str, ...] = ("snapshot", "incremental", "rollback")


@dataclass(frozen=True)
class VerdictRecord:
    """One verification verdict, with provenance and frontier context."""

    seq: int
    #: ``snapshot`` | ``incremental`` | ``rollback``.
    kind: str
    #: Verifier-visible time of the verdict (snapshot ``taken_at``,
    #: incremental arrival clock, or rollback sim time).
    at: float
    ok: bool
    #: The judged prefix (incremental verdicts); None for whole-plane.
    prefix: Optional[str] = None
    router: Optional[str] = None
    #: HBG event id of the triggering event (FIB delta / root-cause
    #: target) — the primary provenance ref.
    event_id: Optional[int] = None
    #: Event time (capture timestamp) of the triggering event.
    event_time: Optional[float] = None
    detail: str = ""
    #: Violation count at this verdict (0 when ``ok``).
    violations: int = 0
    missing_routers: Tuple[str, ...] = ()
    #: HBG event ids this verdict derives from (snapshot entries'
    #: ``source_event_id`` for violated flows, the delta itself, the
    #: provenance target) — the refs a §6 walk starts from.
    refs: Tuple[int, ...] = ()
    #: Per-router event-time watermarks at verdict time (empty when no
    #: WatermarkTracker is attached).
    frontier: Dict[str, float] = field(default_factory=dict)
    #: Free-form extras (per-violation detail dicts, rollback counts).
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "at": self.at,
            "ok": self.ok,
            "prefix": self.prefix,
            "router": self.router,
            "event_id": self.event_id,
            "event_time": self.event_time,
            "detail": self.detail,
            "violations": self.violations,
            "missing_routers": list(self.missing_routers),
            "refs": list(self.refs),
            "frontier": dict(sorted(self.frontier.items())),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class VerdictLedger:
    """Append-only verdict log with a bounded tail and rotation."""

    enabled = True

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = 4096,
        rotate_records: int = 100_000,
        flush_every: int = 256,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if rotate_records < 1:
            raise ValueError("rotate_records must be >= 1")
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self.capacity = capacity
        self.rotate_records = rotate_records
        self.flush_every = flush_every
        self._lock = threading.Lock()
        #: Bounded in-memory tail (drop-oldest).
        self._tail: Deque[VerdictRecord] = deque(maxlen=capacity)
        #: Serialised lines not yet appended to the live file.
        self._unflushed: List[str] = []
        #: Records in the live file; None until this ledger's first
        #: flush, which starts the file afresh.
        self._segment_records: Optional[int] = None
        self.appended_total = 0
        self.dropped_records = 0
        self.rotations = 0
        self.failing_total = 0
        self._listeners: List[Callable] = []
        self._frontier_source: Optional[Callable] = None
        # Self-registration with the resource ledger: the verdict
        # tail is long-lived state the byte totals must see.
        from repro import obs

        ledger = obs.get_ledger()
        if ledger.enabled:
            ledger.register("obs.verdicts", self)

    # -- wiring -----------------------------------------------------------

    def subscribe(self, listener: Callable) -> None:
        """``listener(record)`` runs after every append (SLI monitor)."""
        self._listeners.append(listener)

    def attach_watermarks(self, tracker: Any) -> None:
        """Stamp each record's ``frontier`` from ``tracker``.

        ``tracker`` must expose ``frontier_by_router() -> Dict[str,
        float]`` (:class:`~repro.obs.continuous.WatermarkTracker`
        does).
        """
        self._frontier_source = tracker.frontier_by_router

    # -- the append path --------------------------------------------------

    def record(
        self,
        kind: str,
        at: float,
        ok: bool,
        prefix: Optional[str] = None,
        router: Optional[str] = None,
        event_id: Optional[int] = None,
        event_time: Optional[float] = None,
        detail: str = "",
        violations: int = 0,
        missing_routers: Tuple[str, ...] = (),
        refs: Tuple[int, ...] = (),
        **attrs: Any,
    ) -> VerdictRecord:
        """Append one verdict; returns the sealed record."""
        if kind not in KINDS:
            raise ValueError(f"unknown verdict kind {kind!r}")
        frontier: Dict[str, float] = {}
        if self._frontier_source is not None:
            frontier = dict(self._frontier_source())
        with self._lock:
            self.appended_total += 1
            record = VerdictRecord(
                seq=self.appended_total,
                kind=kind,
                at=at,
                ok=ok,
                prefix=prefix,
                router=router,
                event_id=event_id,
                event_time=event_time,
                detail=detail,
                violations=violations,
                missing_routers=tuple(missing_routers),
                refs=tuple(refs),
                frontier=frontier,
                attrs=dict(attrs),
            )
            if len(self._tail) == self.capacity:
                self.dropped_records += 1
            self._tail.append(record)
            if not ok:
                self.failing_total += 1
            if self.path is not None:
                self._unflushed.append(record.to_json())
                if len(self._unflushed) >= self.flush_every:
                    self._flush_locked()
        for listener in self._listeners:
            listener(record)
        return record

    # -- persistence ------------------------------------------------------

    def _flush_locked(self) -> None:
        """State moves only past a step that succeeded: a flush that
        raises (ENOSPC, a vanished directory) leaves its records
        unflushed and the file without a torn line, so the next flush
        writes them whole."""
        if self.path is None:
            return
        held = self._segment_records
        if held is not None and held >= self.rotate_records:
            # Seal the full segment as <path>.1 (replacing any older
            # sealed segment — the bound is the point).
            os.replace(self.path, self.path + ".1")
            self.rotations += 1
            self._segment_records = held = None
        data = "".join(line + "\n" for line in self._unflushed)
        # A new ledger starts a new file, whatever an earlier process
        # left at the path; after a rotation there is none to append to.
        with open(self.path, "wb" if held is None else "ab") as handle:
            start = handle.tell()
            try:
                handle.write(data.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            except OSError:
                with contextlib.suppress(OSError):
                    handle.truncate(start)
                raise
        self._segment_records = (held or 0) + len(self._unflushed)
        self._unflushed = []

    def flush(self) -> None:
        """Append the unflushed records to the live file (durably)."""
        with self._lock:
            if self.path is not None and (
                self._unflushed or self._segment_records is None
            ):
                self._flush_locked()

    # -- read side --------------------------------------------------------

    def records(self) -> List[VerdictRecord]:
        """A snapshot copy of the in-memory tail."""
        with self._lock:
            return list(self._tail)

    def last(self) -> Optional[VerdictRecord]:
        with self._lock:
            return self._tail[-1] if self._tail else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._tail)

    def account_bytes(self, audit: bool = False) -> int:
        """Resident bytes of the tail + unflushed lines (resource ledger)."""
        from repro import obs

        return combined_sizeof(
            (self.records(), self._unflushed),
            sample=None if audit else obs.get_ledger().sample,
        )

    def __repr__(self) -> str:
        return (
            f"VerdictLedger(records={len(self)}, "
            f"appended={self.appended_total}, path={self.path!r})"
        )


def load(path: str) -> List[Dict[str, Any]]:
    """The whole records of a ledger file, one dict per line.

    Every record is written with its newline, so whatever follows the
    last newline is a torn append (the writer was killed mid-line)
    and is dropped; a file that ends cleanly loses nothing.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    return [json.loads(line) for line in lines[:-1]]


class NullVerdictLedger:
    """The default ledger: verdict sites pay one attribute check.

    ``record`` still exists (and no-ops) so a site that forgets the
    ``verdicts.enabled`` guard stays correct, merely slower — the same
    contract as :class:`NullLedger`.
    """

    enabled = False
    path = None
    appended_total = 0

    def subscribe(self, listener: Callable) -> None:
        pass

    def attach_watermarks(self, tracker: Any) -> None:
        pass

    def record(self, *args: Any, **kwargs: Any) -> None:
        return None

    def flush(self) -> None:
        pass

    def records(self) -> List[VerdictRecord]:
        return []

    def last(self) -> Optional[VerdictRecord]:
        return None

    def __len__(self) -> int:
        return 0


NULL_VERDICTS = NullVerdictLedger()
