"""Tests for continuous-verification telemetry: the verdict ledger,
event-time watermarks, detection/exposure SLIs, atomic file writes,
the site-coverage contracts, and the ``repro watch`` renderer."""

import ast
import json
import os
import threading

import pytest

from repro import obs
from repro.hbr.inference import InferenceEngine
from repro.lint.rules.obs_rules import SITES
from repro.net.addr import Prefix
from repro.obs.atomicio import atomic_write_text
from repro.obs.continuous import (
    ContinuousMonitor,
    WatermarkTracker,
    render_watch_table,
)
from repro.obs.ledger import (
    KINDS,
    NullVerdictLedger,
    VerdictLedger,
    load,
)


@pytest.fixture(autouse=True)
def _clean_global_state():
    yield
    obs.disable()
    obs.disable_verdicts()


class _Event:
    """Duck-typed stand-in for an IOEvent as the monitor sees it."""

    _next_id = 1000

    def __init__(self, kind, router, timestamp, prefix=None):
        self.kind = kind  # plain string: getattr(kind, "name", kind)
        self.router = router
        self.timestamp = timestamp
        self.prefix = prefix
        _Event._next_id += 1
        self.event_id = _Event._next_id


P1 = Prefix.parse("203.0.113.0/24")
P2 = Prefix.parse("198.51.100.0/24")


# -- the append-only ledger ---------------------------------------------------


class TestVerdictLedger:
    def test_record_assigns_monotonic_seq_and_counts(self):
        ledger = VerdictLedger()
        first = ledger.record(kind="incremental", at=1.0, ok=True)
        second = ledger.record(kind="snapshot", at=2.0, ok=False)
        assert (first.seq, second.seq) == (1, 2)
        assert len(ledger) == 2
        assert ledger.appended_total == 2
        assert ledger.failing_total == 1
        assert ledger.last() is second

    def test_unknown_kind_rejected(self):
        ledger = VerdictLedger()
        with pytest.raises(ValueError, match="unknown verdict kind"):
            ledger.record(kind="oracle", at=0.0, ok=True)

    def test_tail_is_bounded_drop_oldest(self):
        ledger = VerdictLedger(capacity=3)
        for i in range(5):
            ledger.record(kind="incremental", at=float(i), ok=True)
        assert [r.seq for r in ledger.records()] == [3, 4, 5]
        assert ledger.dropped_records == 2
        # The persisted segment is NOT truncated by the tail bound.
        assert ledger.appended_total == 5

    def test_persists_jsonl_on_flush(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        ledger = VerdictLedger(path=path, flush_every=100)
        ledger.record(
            kind="incremental",
            at=3.5,
            ok=False,
            prefix=str(P1),
            router="R2",
            event_id=42,
            event_time=3.25,
            detail="forwarding loop",
            violations=1,
            refs=(40, 42),
        )
        assert not os.path.exists(path)  # below flush_every
        ledger.flush()
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["kind"] == "incremental"
        assert row["prefix"] == str(P1)
        assert row["refs"] == [40, 42]
        assert row["ok"] is False

    def test_flush_every_triggers_automatic_persistence(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        ledger = VerdictLedger(path=path, flush_every=2)
        ledger.record(kind="incremental", at=0.0, ok=True)
        assert not os.path.exists(path)
        ledger.record(kind="incremental", at=1.0, ok=True)
        assert len(open(path).read().splitlines()) == 2

    def test_rotation_seals_old_segment(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        ledger = VerdictLedger(path=path, rotate_records=3, flush_every=1)
        for i in range(5):
            ledger.record(kind="incremental", at=float(i), ok=True)
        assert ledger.rotations >= 1
        head = [json.loads(l) for l in open(path).read().splitlines()]
        sealed = [
            json.loads(l) for l in open(path + ".1").read().splitlines()
        ]
        # Disk stays bounded (≤ 2× rotate_records, drop-oldest): the
        # newest records form a contiguous run ending at the last seq.
        seqs = sorted(r["seq"] for r in head + sealed)
        assert seqs == list(range(seqs[0], 6))
        assert 5 in seqs
        assert len(head) <= 3
        assert len(head) + len(sealed) <= 6

    def test_flush_appends_without_rewriting(self, tmp_path):
        """A flush writes the unflushed lines and nothing else: bytes
        already on disk stay where they are, and the ledger keeps no
        copy of them (the tail is bounded by ``capacity`` alone)."""
        path = str(tmp_path / "verdicts.jsonl")
        ledger = VerdictLedger(path=path, capacity=2, flush_every=3)
        for i in range(3):
            ledger.record(kind="incremental", at=float(i), ok=True, detail="x")
        # Edit a flushed byte in place: an append leaves the edit, a
        # republish of the whole segment from memory would undo it.
        with open(path, "r+b") as handle:
            handle.seek(handle.read().index(b'"detail": "x"') + 11)
            handle.write(b"y")
        for i in range(3, 7):
            ledger.record(kind="incremental", at=float(i), ok=True)
        ledger.flush()
        rows = load(path)
        assert [row["seq"] for row in rows] == [1, 2, 3, 4, 5, 6, 7]
        assert rows[0]["detail"] == "y"
        assert ledger._unflushed == [] and len(ledger) == 2

    def test_new_ledger_starts_a_fresh_file(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        for _life in range(2):
            ledger = VerdictLedger(path=path, flush_every=1)
            ledger.record(kind="incremental", at=0.0, ok=True)
            ledger.record(kind="incremental", at=1.0, ok=True)
        assert [row["seq"] for row in load(path)] == [1, 2]

    def test_torn_last_line_reloads_to_the_last_whole_record(self, tmp_path):
        path = str(tmp_path / "verdicts.jsonl")
        ledger = VerdictLedger(path=path, flush_every=1)
        for i in range(3):
            ledger.record(kind="incremental", at=float(i), ok=True, router="R1")
        whole = load(path)
        assert [row["seq"] for row in whole] == [1, 2, 3]
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)  # killed mid-line
        assert load(path) == whole[:2]
        with open(path, "r+b") as handle:
            handle.truncate(size - 1)  # killed before the newline
        assert load(path) == whole[:2]

    def test_failed_flush_keeps_its_records_for_the_next_one(
        self, tmp_path, monkeypatch
    ):
        """A flush that raises loses nothing and tears nothing: first
        the open fails (directory not there yet), then a write lands
        but its fsync fails; the flush after that writes every record
        exactly once."""
        path = tmp_path / "later" / "verdicts.jsonl"
        ledger = VerdictLedger(path=str(path), flush_every=2)
        ledger.record(kind="incremental", at=0.0, ok=True)
        with pytest.raises(OSError):
            ledger.record(kind="incremental", at=1.0, ok=True)
        assert len(ledger._unflushed) == 2
        path.parent.mkdir()
        ledger.flush()
        assert [row["seq"] for row in load(str(path))] == [1, 2]

        def full_disk(_fd):
            monkeypatch.undo()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        ledger.record(kind="incremental", at=2.0, ok=True)
        with pytest.raises(OSError):
            ledger.record(kind="incremental", at=3.0, ok=True)
        assert [row["seq"] for row in load(str(path))] == [1, 2]
        ledger.record(kind="incremental", at=4.0, ok=True)
        ledger.flush()
        assert [row["seq"] for row in load(str(path))] == [1, 2, 3, 4, 5]

    def test_frontier_stamped_from_attached_tracker(self):
        tracker = WatermarkTracker()
        tracker.observe(_Event("FIB_UPDATE", "R1", 5.0, P1))
        ledger = VerdictLedger()
        ledger.attach_watermarks(tracker)
        record = ledger.record(kind="incremental", at=6.0, ok=True)
        assert record.frontier == {"R1": 5.0}

    def test_listeners_see_each_record(self):
        ledger = VerdictLedger()
        seen = []
        ledger.subscribe(seen.append)
        ledger.record(kind="rollback", at=9.0, ok=True)
        assert [r.kind for r in seen] == ["rollback"]

    def test_concurrent_appends_keep_seq_dense(self, tmp_path):
        ledger = VerdictLedger(
            path=str(tmp_path / "v.jsonl"), flush_every=5
        )

        def appender():
            for _ in range(50):
                ledger.record(kind="incremental", at=0.0, ok=True)

        threads = [threading.Thread(target=appender) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ledger.flush()
        rows = [
            json.loads(l)
            for l in open(ledger.path).read().splitlines()
        ]
        assert sorted(r["seq"] for r in rows) == list(range(1, 201))

    def test_null_ledger_is_inert(self):
        null = NullVerdictLedger()
        assert null.enabled is False
        assert null.record(kind="nonsense", at=0.0, ok=True) is None
        assert null.records() == []
        assert null.last() is None
        assert len(null) == 0


class TestVerdictSingleton:
    def test_enable_disable_roundtrip(self, tmp_path):
        assert obs.get_verdicts().enabled is False
        ledger = obs.enable_verdicts(path=str(tmp_path / "v.jsonl"))
        assert obs.get_verdicts() is ledger
        ledger.record(kind="snapshot", at=0.0, ok=True)
        obs.disable_verdicts()  # flushes before dropping
        assert obs.get_verdicts().enabled is False
        assert os.path.exists(str(tmp_path / "v.jsonl"))

    def test_context_manager_restores_previous(self):
        with obs.verdicts() as ledger:
            assert obs.get_verdicts() is ledger
        assert obs.get_verdicts().enabled is False


# -- atomic writes ------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert open(path).read() == "two\n"

    def test_failed_write_leaves_destination_untouched(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "good\n")

        def exploding_write(handle, text):
            handle.write(text[: len(text) // 2])
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(path, "half-written\n", write=exploding_write)
        assert open(path).read() == "good\n"
        # No temp-file litter either.
        assert os.listdir(tmp_path) == ["out.txt"]


# -- site-coverage contracts --------------------------------------------------


def _site_function(module, qualname):
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.path.join(root, *module.split(".")) + ".py"
    tree = ast.parse(open(path).read())
    node = tree
    for part in qualname.split("."):
        node = next(
            child
            for child in ast.walk(node)
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and child.name == part
        )
    return node


VERDICT_SITES = [site for site in SITES if site.witness == "verdicts"]


class TestVerdictSiteContracts:
    def test_catalogue_and_kinds_cannot_drift(self):
        """The verdict sites and ledger KINDS must stay a bijection."""
        catalogued = [site.emits for site in VERDICT_SITES]
        assert sorted(catalogued) == sorted(KINDS), (
            "the verdict sites in SITES (repro/lint/rules/obs_rules.py) "
            "and KINDS (repro/obs/ledger.py) have drifted apart"
        )

    def test_every_site_guards_on_verdicts_enabled(self):
        """The disabled fast path is one attribute check per site."""
        for site in VERDICT_SITES:
            func = _site_function(site.module, site.qualname)
            guards = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Attribute)
                and node.attr == "enabled"
                and isinstance(node.value, ast.Name)
                and node.value.id == "verdicts"
            ]
            assert guards, (
                f"{site.module}:{site.qualname} must guard recording "
                "behind a single `verdicts.enabled` check"
            )

    def test_disabled_verdicts_never_reach_record(self):
        """Behavioral half: with the ledger off, no site may even
        *call* record() — the continuous path must be zero-overhead."""

        class TrippingVerdictLedger(NullVerdictLedger):
            def record(self, *args, **kwargs):
                raise AssertionError(
                    "record() called while verdicts.enabled is False"
                )

        import repro.obs as obs_module
        from repro.cli import _run_continuous_replay

        previous = obs_module._verdicts
        obs_module._verdicts = TrippingVerdictLedger()
        try:
            # fig2 + repair exercises all three sites: incremental
            # verdicts during the replay, the snapshot verdict in the
            # repair engine's post-verify, and the rollback itself.
            _run_continuous_replay("fig2", seed=0, repair=True)
        finally:
            obs_module._verdicts = previous


# -- watermarks ---------------------------------------------------------------


class TestWatermarkTracker:
    def test_per_router_watermark_is_max_event_time(self):
        tracker = WatermarkTracker()
        tracker.observe(_Event("RIB_UPDATE", "R1", 3.0))
        tracker.observe(_Event("RIB_UPDATE", "R1", 2.0))  # late arrival
        tracker.observe(_Event("RIB_UPDATE", "R2", 5.0))
        assert tracker.frontier_by_router() == {"R1": 3.0, "R2": 5.0}
        assert tracker.frontier() == 3.0
        assert tracker.newest_event_time == 5.0
        assert tracker.events_seen == 3

    def test_lag_is_clock_minus_watermark_with_skew_allowance(self):
        tracker = WatermarkTracker(skew_tolerance=0.5)
        tracker.observe(_Event("RIB_UPDATE", "R1", 1.0))
        tracker.observe(_Event("RIB_UPDATE", "R2", 10.0))
        # clock == newest arrival (10.0); R1 is 9.0 behind, minus the
        # 0.5 skew allowance.
        assert tracker.lag_of("R1") == pytest.approx(8.5)
        assert tracker.lag_of("R2") == 0.0

    def test_backlog_counts_events_past_the_frontier(self):
        tracker = WatermarkTracker()
        tracker.observe(_Event("RIB_UPDATE", "R1", 1.0))
        tracker.observe(_Event("RIB_UPDATE", "R2", 8.0))
        tracker.observe(_Event("RIB_UPDATE", "R2", 9.0))
        # Frontier is min(1.0, 9.0) = 1.0; R2's two events wait on R1.
        assert tracker.frontier() == 1.0
        assert tracker.backlog_depth() == 2

    def test_publishes_gauges_when_registry_enabled(self):
        with obs.capturing() as (registry, _tracer):
            tracker = WatermarkTracker()
            tracker.observe(_Event("RIB_UPDATE", "R1", 4.0))
            by_name = {
                (g.name, dict(g.labels).get("router")): g.value
                for g in registry.gauges()
            }
        assert by_name[("stream.watermark_lag_seconds", "R1")] == 0.0
        assert by_name[("stream.watermark_frontier", None)] == 4.0
        assert by_name[("stream.backlog_depth", None)] == 0.0

    def test_bound_gauges_follow_new_routers_and_a_new_registry(self):
        """The tracker binds its read-through gauges once per registry
        (``obs.Bound``): a router first seen later still gets its
        gauge, every read returns every router's ``lag_of``, a fresh
        registry (``enable`` again) is bound from its first event on,
        and the one it replaced keeps its last readings."""

        def published(registry):
            return {
                (g.name, dict(g.labels).get("router")): g.value
                for g in registry.gauges()
                if g.name.startswith("stream.")
            }

        def expected(tracker):
            want = {
                ("stream.watermark_lag_seconds", router): tracker.lag_of(router)
                for router in tracker.frontier_by_router()
            }
            want["stream.watermark_frontier", None] = tracker.frontier()
            want["stream.backlog_depth", None] = tracker.backlog_depth()
            want["stream.newest_event_time", None] = tracker.newest_event_time
            return want

        tracker = WatermarkTracker(skew_tolerance=0.5)
        tracker.observe(_Event("RIB_UPDATE", "R9", 0.5))  # registry off
        first, _tracer = obs.enable()
        tracker.observe(_Event("RIB_UPDATE", "R2", 1.0))
        assert published(first) == expected(tracker)
        tracker.observe(_Event("RIB_UPDATE", "R1", 7.0))  # new router
        tracker.observe(_Event("RIB_UPDATE", "R2", 9.0))
        assert published(first) == expected(tracker)
        assert published(first)["stream.watermark_lag_seconds", "R9"] == 8.0
        assert tracker._gauges._registry is first
        frozen = published(first)
        second, _tracer = obs.enable()
        tracker.observe(_Event("RIB_UPDATE", "R3", 12.0))
        assert tracker._gauges._registry is second
        assert published(second) == expected(tracker)
        assert published(first) == frozen


class TestReadThroughGauges:
    """The ``stream.*`` and ``inference.hbg_*`` gauges are computed
    when read; the values must be the ones a ``set`` after every
    event used to store."""

    NAMES = ("inference.hbg_events", "inference.hbg_edges")

    @classmethod
    def _read(cls, registry):
        return {
            (g.name, dict(g.labels).get("router")): g.value
            for g in registry.gauges()
            if g.name.startswith("stream.") or g.name in cls.NAMES
        }

    def test_every_read_equals_the_per_event_set(self, lagged_rr_capture):
        import heapq

        _net, view, events = lagged_rr_capture
        # One router's log is a straggler: it first reports mid-stream.
        straggler = events[0].router
        prompt = [e for e in events if e.router != straggler]
        events = (
            prompt[:300]
            + [e for e in events if e.router == straggler]
            + prompt[300:]
        )
        tolerance = 0.05
        registry, _tracer = obs.enable()
        stream = InferenceEngine().streaming()
        ContinuousMonitor(view=view, skew_tolerance=tolerance).attach(stream)
        watermarks, pending, clock = {}, [], 0.0
        retired = None
        for index, event in enumerate(events):
            if index == len(events) // 2:
                retired = (registry, self._read(registry))
                registry, _tracer = obs.enable()
            stream.observe(event)
            # The model: what a ``set`` per gauge after each event
            # used to store.
            clock = max(clock, view.arrival_time(event))
            watermarks[event.router] = max(
                watermarks.get(event.router, event.timestamp),
                event.timestamp,
            )
            frontier = min(watermarks.values())
            heapq.heappush(pending, event.timestamp)
            while pending and pending[0] <= frontier:
                heapq.heappop(pending)
            want = {
                ("stream.watermark_lag_seconds", router): max(
                    0.0, clock - watermark - tolerance
                )
                for router, watermark in watermarks.items()
            }
            want["stream.watermark_frontier", None] = frontier
            want["stream.backlog_depth", None] = float(len(pending))
            want["stream.newest_event_time", None] = max(
                watermarks.values()
            )
            want["inference.hbg_events", None] = float(len(stream.graph))
            want["inference.hbg_edges", None] = float(
                stream.graph.edge_count()
            )
            assert self._read(registry) == want, index
        assert straggler in watermarks
        # Direct reads, the exporters and the watch table go through
        # the same gauge objects.
        assert (
            registry.gauge("stream.backlog_depth").value
            == want["stream.backlog_depth", None]
        )
        document = obs.export.registry_to_dict(registry)
        assert (
            document["sections"]["inference"]["gauges"]["inference.hbg_edges"]
            == stream.graph.edge_count()
        )
        assert f"frontier={frontier:.3f}s" in render_watch_table(registry)
        # The registry replaced mid-stream kept its last readings.
        assert self._read(retired[0]) == retired[1]

    def test_scrape_thread_renders_while_routers_appear(
        self, lagged_rr_capture
    ):
        """The scrape thread reads through while the pipeline thread
        grows the tracker: every source is a point read, so no render
        may see ``dictionary changed size during iteration``."""
        import sys

        _net, view, events = lagged_rr_capture
        registry, _tracer = obs.enable()
        stream = InferenceEngine().streaming()
        ContinuousMonitor(view=view).attach(stream)
        errors, renders = [], []
        done = threading.Event()

        def scrape():
            try:
                while not done.is_set():
                    renders.append(obs.export.render_prometheus(registry))
            except Exception as exc:  # the assertion below reports it
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=scrape)
        try:
            thread.start()
            for event in events:
                stream.observe(event)
        finally:
            done.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors, errors
        final = obs.export.render_prometheus(registry)
        routers = {e.router for e in events}
        assert final.count("repro_stream_watermark_lag_seconds{") == len(routers)
        assert len(renders) > 1


# -- detection / exposure / staleness, hand-computed --------------------------


class _Record:
    """Bare verdict record for driving the monitor directly."""

    _seq = 0

    def __init__(
        self, kind, at, ok, prefix=None, router=None,
        event_time=None, **attrs
    ):
        _Record._seq += 1
        self.seq = _Record._seq
        self.kind = kind
        self.at = at
        self.ok = ok
        self.prefix = prefix
        self.router = router
        self.event_time = event_time
        self.attrs = attrs


class TestContinuousMonitorSLIs:
    def _histogram(self, registry, name):
        for histogram in registry.histograms():
            if histogram.name == name:
                return histogram
        return None

    def test_detection_latency_from_first_suspect_update(self):
        with obs.capturing() as (registry, _tracer):
            monitor = ContinuousMonitor()
            # FIB update for P1 at t=10 makes the prefix suspect; the
            # failing verdict lands at t=12 → detection latency 2.0.
            monitor.on_event(_Event("FIB_UPDATE", "R1", 10.0, P1))
            monitor.on_verdict(
                _Record("incremental", 12.0, False, prefix=str(P1))
            )
            detection = self._histogram(
                registry, "verify.detection_latency_seconds"
            )
            assert detection.count == 1
            assert detection.sum == pytest.approx(2.0)
            assert monitor.detections == 1
            assert monitor.exposed_prefixes() == [str(P1)]

    def test_exposure_closes_on_pass_verdict(self):
        with obs.capturing() as (registry, _tracer):
            monitor = ContinuousMonitor()
            monitor.on_event(_Event("FIB_UPDATE", "R1", 10.0, P1))
            monitor.on_verdict(
                _Record("incremental", 12.0, False, prefix=str(P1))
            )
            monitor.on_verdict(
                _Record("incremental", 30.0, True, prefix=str(P1))
            )
            exposure = self._histogram(registry, "verify.exposure_seconds")
            assert exposure.count == 1
            assert exposure.sum == pytest.approx(18.0)  # 30 - 12
            assert monitor.exposed_prefixes() == []
            assert monitor.exposures_closed == 1

    def test_detection_counted_once_while_failure_stays_open(self):
        with obs.capturing() as (registry, _tracer):
            monitor = ContinuousMonitor()
            monitor.on_event(_Event("FIB_UPDATE", "R1", 10.0, P1))
            for at in (12.0, 13.0, 14.0):
                monitor.on_verdict(
                    _Record("incremental", at, False, prefix=str(P1))
                )
            detection = self._histogram(
                registry, "verify.detection_latency_seconds"
            )
            assert detection.count == 1
            assert monitor.detections == 1

    def test_rollback_closes_every_open_exposure(self):
        with obs.capturing() as (registry, _tracer):
            monitor = ContinuousMonitor()
            monitor.on_event(_Event("FIB_UPDATE", "R1", 1.0, P1))
            monitor.on_event(_Event("FIB_UPDATE", "R2", 2.0, P2))
            monitor.on_verdict(
                _Record("incremental", 5.0, False, prefix=str(P1))
            )
            monitor.on_verdict(
                _Record("incremental", 6.0, False, prefix=str(P2))
            )
            monitor.on_verdict(_Record("rollback", 20.0, True))
            exposure = self._histogram(registry, "verify.exposure_seconds")
            assert exposure.count == 2
            assert exposure.sum == pytest.approx((20 - 5) + (20 - 6))
            assert monitor.exposed_prefixes() == []

    def test_snapshot_failure_opens_prefixes_it_names(self):
        with obs.capturing() as (_registry, _tracer):
            monitor = ContinuousMonitor()
            monitor.on_verdict(
                _Record(
                    "snapshot",
                    8.0,
                    False,
                    violation_detail=[
                        {"policy": "loop", "prefix": str(P1), "router": "R1"}
                    ],
                )
            )
            assert monitor.exposed_prefixes() == [str(P1)]
            monitor.on_verdict(_Record("snapshot", 9.0, True))
            assert monitor.exposed_prefixes() == []

    def test_staleness_is_event_frontier_minus_verdict_time(self):
        with obs.capturing() as (registry, _tracer):
            monitor = ContinuousMonitor()
            monitor.on_event(_Event("RIB_UPDATE", "R1", 50.0))
            monitor.on_verdict(_Record("snapshot", 47.0, True))
            staleness = self._histogram(
                registry, "verify.verdict_staleness_seconds"
            )
            assert staleness.count == 1
            assert staleness.sum == pytest.approx(3.0)

    def test_green_plane_resets_stale_router_fail_gauges(self):
        with obs.capturing() as (registry, _tracer):
            monitor = ContinuousMonitor()
            monitor.on_event(_Event("FIB_UPDATE", "R2", 1.0, P1))
            monitor.on_verdict(
                _Record(
                    "incremental", 2.0, False, prefix=str(P1), router="R2"
                )
            )
            # The cure arrives on a different router's update.
            monitor.on_verdict(
                _Record(
                    "incremental", 5.0, True, prefix=str(P1), router="R1"
                )
            )
            ok_by_router = {
                dict(g.labels).get("router"): g.value
                for g in registry.gauges()
                if g.name == "verify.last_verdict_ok"
            }
        assert ok_by_router["R2"] == 1.0

    def test_overlapping_update_marks_tracked_neighbours_suspect(self):
        wide = Prefix.parse("203.0.113.0/24")
        narrow = Prefix.parse("203.0.113.0/25")
        with obs.capturing() as (_registry, _tracer):
            monitor = ContinuousMonitor()
            monitor.on_event(_Event("FIB_UPDATE", "R1", 1.0, wide))
            monitor.on_verdict(
                _Record("incremental", 1.0, True, prefix=str(wide))
            )
            # A /25 update shares atoms with the /24: both suspect.
            monitor.on_event(_Event("FIB_UPDATE", "R1", 7.0, narrow))
            assert set(monitor._suspect) == {str(wide), str(narrow)}

    def test_overlap_is_recorded_on_both_sides_when_a_prefix_is_tracked(self):
        """Neighbours are worked out once, when a prefix is first
        tracked — including on the lists of the prefixes already there."""
        wide = Prefix.parse("203.0.113.0/24")
        narrow = Prefix.parse("203.0.113.0/25")
        monitor = ContinuousMonitor()
        for at, prefix in ((1.0, wide), (2.0, P2), (3.0, narrow)):
            monitor.on_event(_Event("FIB_UPDATE", "R1", at, prefix))
        monitor._suspect.clear()
        # The /24 was tracked before the /25 existed; its update must
        # still reach it — and not the disjoint prefix.  A kind string
        # equal to, but not the same object as, the first one counts.
        monitor.on_event(_Event("_".join(["FIB", "UPDATE"]), "R1", 9.0, wide))
        assert monitor._suspect == {str(wide): 9.0, str(narrow): 9.0}
        monitor.on_event(_Event("RIB_UPDATE", "R1", 9.5, P2))
        assert str(P2) not in monitor._suspect


# -- the planted-violation replay (fig2, end to end) --------------------------


class TestPlantedViolationReplay:
    def test_ledger_records_failure_and_recovery_with_provenance(
        self, tmp_path
    ):
        from repro.cli import _run_continuous_replay
        from repro.scenarios.paper_net import P

        path = str(tmp_path / "verdicts.jsonl")
        obs.enable()
        obs.enable_verdicts(path=path)
        try:
            _net, verifier, monitor = _run_continuous_replay(
                "fig2", seed=0, repair=True
            )
            ledger = obs.get_verdicts()
            ledger.flush()
            records = ledger.records()
            registry = obs.get_registry()

            failing = [
                r
                for r in records
                if not r.ok
                and r.kind == "incremental"
                and r.prefix == str(P)
            ]
            assert failing, "planted violation never produced a verdict"
            # Provenance refs tie the verdict back to HBG event ids.
            assert all(r.refs for r in failing)
            assert all(r.event_id in r.refs for r in failing)

            rollbacks = [r for r in records if r.kind == "rollback"]
            assert len(rollbacks) == 1 and rollbacks[0].ok
            assert rollbacks[0].refs, "rollback lost its root-cause refs"
            # Recovery really happened: nothing left exposed, and the
            # plane passes after the rollback.
            assert monitor.exposed_prefixes() == []
            assert not verifier.violations()

            # The exposure histogram matches the ledger's own timeline:
            # every close is bounded by first-failure → rollback.
            exposure = next(
                h
                for h in registry.histograms()
                if h.name == "verify.exposure_seconds"
            )
            assert exposure.count >= 1
            longest = max(
                rollbacks[0].at - r.at for r in failing
            )
            assert exposure.max <= longest + 1e-9

            detection = next(
                h
                for h in registry.histograms()
                if h.name == "verify.detection_latency_seconds"
            )
            assert detection.count >= 1

            # Every verdict carries the watermark frontier it was
            # judged against.
            assert all(r.frontier for r in records)

            # The Prometheus exposition of the same run is well formed
            # and carries the SLIs, per-router lag and the HBG size.
            text = obs.export.render_prometheus(registry)
            assert obs.export.validate_exposition(text) == []
            samples = obs.export.parse_exposition(text)["samples"]
            names = {name for name, _labels, _value in samples}
            assert "repro_verify_detection_latency_seconds_count" in names
            assert "repro_verify_exposure_seconds_bucket" in names
            assert any(
                name == "repro_stream_watermark_lag_seconds"
                and "router" in labels
                for name, labels, _value in samples
            )
            edges = [
                value
                for name, _labels, value in samples
                if name == "repro_inference_hbg_edges"
            ]
            assert edges and edges[0] > 0

            # And the JSONL on disk is the same story.
            rows = [
                json.loads(line)
                for line in open(path).read().splitlines()
            ]
            assert len(rows) == len(records) == ledger.appended_total
            assert {row["kind"] for row in rows} >= {
                "incremental",
                "rollback",
            }
        finally:
            obs.disable_verdicts()
            obs.disable()


# -- the watch renderer -------------------------------------------------------


class TestWatchTable:
    def test_renders_router_rows_and_headlines(self):
        with obs.capturing() as (registry, _tracer):
            registry.gauge("stream.watermark_frontier").set(12.5)
            registry.gauge("stream.backlog_depth").set(3)
            registry.gauge("verify.exposed_prefixes").set(1)
            registry.gauge(
                "stream.watermark_lag_seconds", router="R1"
            ).set(0.25)
            registry.gauge("verify.last_verdict_ok", router="R1").set(0.0)
            registry.gauge("verify.last_verdict_ok", router="R2").set(1.0)
            registry.histogram(
                "verify.detection_latency_seconds"
            ).observe(1.5)
            table = render_watch_table(registry)
        lines = table.splitlines()
        assert "frontier=12.500s" in lines[0]
        assert "backlog=3" in lines[0]
        assert "exposed_prefixes=1" in lines[0]
        assert "detection_p99=1.500s" in lines[1]
        r1 = next(l for l in lines if l.startswith("R1"))
        r2 = next(l for l in lines if l.startswith("R2"))
        assert r1.endswith("FAIL") and "0.250" in r1
        assert r2.endswith("ok")

    def test_ledger_tail_line_and_empty_fallback(self):
        ledger = VerdictLedger()
        ledger.record(
            kind="incremental", at=4.5, ok=False, prefix=str(P1)
        )
        with obs.capturing() as (registry, _tracer):
            table = render_watch_table(registry, ledger)
        assert f"last=#1 incremental FAIL {P1}" in table
        assert "(no routers reporting)" in table


# -- watch CLI ----------------------------------------------------------------


class TestWatchCommand:
    def test_fig2_watch_exits_clean_and_writes_ledger(
        self, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        path = str(tmp_path / "watch.jsonl")
        code = cli_main(["watch", "--verdict-ledger", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "ROUTER" in out and "VERDICT" in out
        assert "still exposed" in out
        rows = [
            json.loads(line) for line in open(path).read().splitlines()
        ]
        assert any(r["kind"] == "rollback" for r in rows)

    def test_global_metrics_flag_reports_the_watch_registry(self, capsys):
        """``repro --metrics watch`` prints the registry the replay
        filled, not an empty one the command swapped in and dropped."""
        from repro.cli import main as cli_main

        code = cli_main(["--metrics", "watch"])
        out = capsys.readouterr().out
        assert code == 0
        report = out.split("===== metrics =====", 1)[1]
        assert "(no metrics recorded)" not in report
        assert "verify.detection_latency_seconds" in report

    def test_no_repair_leaves_exposures_open(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["watch", "--no-repair"])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 still exposed" in out

    def test_unknown_scenario_rejected(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["watch", "--scenario", "nope"])
