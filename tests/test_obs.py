"""Tests for repro.obs: metrics, tracing, exporters, and integration."""

import json

import pytest

from repro import obs
from repro.obs.export import (
    ExpositionError,
    format_table,
    missing_sections,
    parse_exposition,
    registry_to_dict,
    render_json,
    render_jsonl,
    render_prometheus,
    render_table,
    validate_exposition,
)
from repro.obs.metrics import (
    Bound,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import NullTracer, Tracer


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Never leak an enabled registry into other (timing-sensitive) tests."""
    yield
    obs.disable()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x.total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x.total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("x.depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_read_through_returns_the_source_until_set(self):
        registry = MetricsRegistry()
        backlog = []
        gauge = registry.gauge("x.depth")
        gauge.read_from(lambda: len(backlog))
        backlog.extend("abc")
        assert gauge.value == 3.0 and isinstance(gauge.value, float)
        # Every reader goes through the gauge object.
        assert registry_to_dict(registry)["sections"]["x"]["gauges"] == {
            "x.depth": 3
        }
        assert "repro_x_depth 3" in render_prometheus(registry)
        gauge.set(7)
        backlog.clear()
        assert gauge.value == 7.0

    def test_inc_and_dec_store_from_the_current_reading(self):
        """The last call wins for all three mutators: none of them
        updates a stored value the source then hides."""
        gauge = MetricsRegistry().gauge("x.depth")
        gauge.read_from(lambda: 5)
        gauge.inc(2)
        assert gauge.value == 7.0
        gauge.read_from(lambda: 5)
        gauge.dec()
        assert gauge.value == 4.0


class TestBinding:
    def test_family_makes_only_the_instruments_that_are_used(self):
        registry = MetricsRegistry()
        by_rule = Family(registry.histogram, "x.rule_seconds", "rule")
        by_rule["fib"].observe(0.5)
        by_rule["fib"].observe(0.5)
        assert by_rule["fib"] is registry.histogram("x.rule_seconds", rule="fib")
        assert registry.histogram("x.rule_seconds", rule="fib").count == 2
        assert len(registry) == 1

    def test_bound_builds_once_per_registry(self):
        builds = []

        def build(registry):
            builds.append(registry)
            return registry.counter("x.events_total")

        bound = Bound(build)
        first, second = MetricsRegistry(), MetricsRegistry()
        bound.on(first).inc()
        bound.on(first).inc()
        bound.on(second).inc()
        assert builds == [first, second]
        assert first.counter("x.events_total").value == 2
        assert second.counter("x.events_total").value == 1

    def test_rebinding_leaves_read_through_gauges_at_their_last_reading(self):
        state = {"depth": 1}
        bound = Bound(
            lambda registry: bound.read_through(
                "x.depth", lambda: state["depth"], shard="a"
            )
        )
        first, second = MetricsRegistry(), MetricsRegistry()
        bound.on(first)
        state["depth"] = 2
        assert first.gauge("x.depth", shard="a").value == 2.0
        bound.on(second)
        state["depth"] = 3
        assert first.gauge("x.depth", shard="a").value == 2.0
        assert second.gauge("x.depth", shard="a").value == 3.0

    def test_sites_bind_nothing_while_telemetry_is_off(self):
        from repro.capture.io_events import IOEvent, IOKind
        from repro.hbr.inference import InferenceEngine

        stream = InferenceEngine().streaming()
        stream.observe(IOEvent.create("R1", IOKind.RIB_UPDATE, 1.0))
        assert stream._instruments._registry is None
        assert stream.engine._instruments._registry is None

    def test_stopwatch_laps_partition_the_elapsed_time(self):
        watch = obs.Stopwatch()
        started = watch._started
        laps = [watch.lap(), watch.lap(), watch.lap()]
        assert all(lap >= 0.0 for lap in laps)
        assert sum(laps) == pytest.approx(watch._started - started)


class TestHistogram:
    def test_empty_histogram_percentiles_are_none(self):
        histogram = Histogram("x.seconds")
        assert histogram.count == 0
        assert histogram.percentile(50) is None
        assert histogram.percentile(99) is None
        assert histogram.mean is None
        assert histogram.min is None and histogram.max is None

    def test_single_sample_is_every_percentile(self):
        histogram = Histogram("x.seconds")
        histogram.observe(0.25)
        for p in (0, 50, 95, 99, 100):
            assert histogram.percentile(p) == 0.25
        assert histogram.mean == 0.25
        assert histogram.min == histogram.max == 0.25

    def test_percentiles_nearest_rank(self):
        histogram = Histogram("x.seconds")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(0) == 1.0

    def test_percentile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_moments_exact_beyond_reservoir(self):
        histogram = Histogram("x.seconds", max_samples=16)
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000
        assert histogram.sum == sum(range(1000))
        assert histogram.min == 0.0 and histogram.max == 999.0
        assert len(histogram._samples) == 16  # bounded memory

    def test_summary_keys(self):
        histogram = Histogram("x.seconds")
        histogram.observe(1.0)
        summary = histogram.summary()
        assert set(summary) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }


class TestRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a.total") is registry.counter("a.total")
        assert registry.counter("a.total", k="1") is not registry.counter(
            "a.total", k="2"
        )
        assert registry.histogram("a.h") is registry.histogram("a.h")

    def test_sections_from_name_prefix(self):
        registry = MetricsRegistry()
        registry.counter("verify.x").inc()
        registry.gauge("capture.y").set(1)
        registry.histogram("repair.z").observe(1)
        assert registry.sections() == ["capture", "repair", "verify"]

    def test_null_registry_is_free_and_silent(self):
        registry = NullRegistry()
        assert not registry.enabled
        registry.counter("a").inc()
        registry.gauge("b").set(5)
        registry.histogram("c").observe(1.0)
        assert len(registry) == 0
        assert registry.sections() == []
        assert registry.histogram("c").percentile(50) is None

    def test_global_enable_disable_roundtrip(self):
        assert not obs.enabled()
        registry, tracer = obs.enable()
        assert obs.enabled()
        assert obs.get_registry() is registry
        registry.counter("x.total").inc()
        obs.disable()
        assert not obs.enabled()
        # Writes after disable go to the null registry, not the old one.
        obs.get_registry().counter("x.total").inc(100)
        assert registry.counter("x.total").value == 1

    def test_capturing_context_restores_previous(self):
        with obs.capturing() as (registry, _tracer):
            assert obs.get_registry() is registry
        assert not obs.enabled()

    def test_metric_creation_is_serialized_by_internal_lock(self):
        """Regression for the scrape-vs-pipeline registry race.

        Before the registry grew its internal lock, a /metrics scrape
        thread iterating ``counters()`` raced metric *creation* on the
        owner thread ("dictionary changed size during iteration").
        Creation of a new metric must block while the lock is held;
        the get-or-create hit path must not need it.
        """
        import threading

        registry = MetricsRegistry()
        registry.counter("pre.total")
        created = threading.Event()

        def create_new():
            registry.counter("post.total").inc()
            created.set()

        with registry._lock:
            worker = threading.Thread(target=create_new, daemon=True)
            worker.start()
            assert not created.wait(0.1), "creation ignored the lock"
            # The lock-free hit path must still work while held.
            assert registry.counter("pre.total") is not None
        worker.join(timeout=5)
        assert created.is_set()
        assert registry.counter("post.total").value == 1

    def test_concurrent_creation_and_snapshot_do_not_race(self):
        """Hammer get-or-create against snapshot iteration."""
        import threading

        registry = MetricsRegistry()
        errors = []

        def creator():
            try:
                for i in range(300):
                    registry.counter("c.total", i=str(i)).inc()
                    registry.histogram("h.seconds", i=str(i)).observe(0.1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def scraper():
            try:
                for _ in range(300):
                    list(registry.counters())
                    list(registry.histograms())
                    registry.all_metrics()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=creator),
            threading.Thread(target=scraper),
            threading.Thread(target=scraper),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert len(registry.counters()) == 300


class TestTracer:
    def test_nesting_records_parent_child(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.finished("outer")[0]
        inner = tracer.finished("inner")[0]
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1 and outer.depth == 0
        assert tracer.active_depth == 0

    def test_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        inner = tracer.finished("inner")[0]
        outer = tracer.finished("outer")[0]
        assert inner.status == "error" and "boom" in inner.error
        assert outer.status == "error"
        assert tracer.active_depth == 0
        # Tracer still usable after the exception unwound.
        with tracer.span("after"):
            pass
        assert tracer.finished("after")[0].status == "ok"

    def test_decorator_form(self):
        tracer = Tracer()

        @tracer.span("work")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert work.__name__ == "work"
        assert len(tracer.finished("work")) == 1

    def test_late_bound_traced_decorator(self):
        @obs.traced("late.work")
        def work():
            return 7

        assert work() == 7  # tracer disabled: no records anywhere
        registry, tracer = obs.enable()
        assert work() == 7
        assert len(tracer.finished("late.work")) == 1
        # ... and the span fed a histogram in the registry.
        assert registry.histogram("span.late.work_seconds").count == 1

    def test_span_feeds_registry_histogram(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("stage"):
            pass
        assert registry.histogram("span.stage_seconds").count == 1

    def test_bounded_records(self):
        tracer = Tracer(max_records=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped == 3

    def test_null_tracer_passthrough(self):
        tracer = NullTracer()
        with tracer.span("x"):
            pass

        @tracer.span("y")
        def fn():
            return 1

        assert fn() == 1
        assert tracer.finished() == []


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("verify.fib_writes_verified").inc(4)
        registry.counter("capture.events", kind="fib_update").inc(9)
        registry.gauge("sim.events_per_wall_second").set(1234.5)
        histogram = registry.histogram("verify.latency_seconds")
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        tracer = Tracer(registry=registry)
        with tracer.span("scenario.pipeline"):
            pass
        return registry, tracer

    def test_registry_to_dict_sections(self):
        registry, tracer = self._populated()
        document = registry_to_dict(registry, tracer)
        assert document["schema"] == "repro-obs/v1"
        assert set(document["sections"]) >= {"verify", "capture", "sim", "span"}
        verify = document["sections"]["verify"]
        assert verify["counters"]["verify.fib_writes_verified"] == 4
        latency = verify["histograms"]["verify.latency_seconds"]
        assert latency["count"] == 3
        assert latency["p50"] == 0.002
        assert document["spans"]["recorded"] == 1

    def test_labels_in_metric_keys(self):
        registry, _ = self._populated()
        document = registry_to_dict(registry)
        capture = document["sections"]["capture"]["counters"]
        assert capture["capture.events{kind=fib_update}"] == 9

    def test_render_json_roundtrips(self):
        registry, tracer = self._populated()
        text = render_json(registry, tracer, meta={"seed": 0})
        document = json.loads(text)
        assert document["meta"]["seed"] == 0
        assert "sections" in document

    def test_render_jsonl_one_object_per_line(self):
        registry, tracer = self._populated()
        lines = render_jsonl(registry, tracer).splitlines()
        parsed = [json.loads(line) for line in lines]
        kinds = {record["kind"] for record in parsed}
        assert kinds == {"counter", "gauge", "histogram", "span"}

    def test_render_table_contains_sections_and_metrics(self):
        registry, tracer = self._populated()
        text = render_table(registry, tracer)
        assert "[verify]" in text and "[capture]" in text
        assert "verify.fib_writes_verified" in text
        assert "[spans]" in text and "scenario.pipeline" in text

    def test_render_table_empty_registry(self):
        assert "no metrics" in render_table(MetricsRegistry())

    def test_render_prometheus_format(self):
        registry, _ = self._populated()
        text = render_prometheus(registry)
        assert "# TYPE repro_verify_fib_writes_verified counter" in text
        assert 'repro_capture_events{kind="fib_update"} 9' in text
        assert 'repro_verify_latency_seconds{quantile="0.5"} 0.002' in text
        assert "repro_verify_latency_seconds_count 3" in text

    def test_prometheus_label_values_escaped_per_spec(self):
        registry = MetricsRegistry()
        registry.counter("capture.events", router='edge"1').inc()
        registry.counter("capture.events", router="back\\slash").inc()
        registry.counter("capture.events", router="two\nlines").inc()
        text = render_prometheus(registry)
        assert 'router="edge\\"1"' in text
        assert 'router="back\\\\slash"' in text
        assert 'router="two\\nlines"' in text
        # The escaping keeps every sample on its own line.
        assert len(text.splitlines()) == 4  # 1 TYPE + 3 samples

    def test_prometheus_hostile_labels_round_trip(self):
        hostile = 'a"b\\c\nd'
        registry = MetricsRegistry()
        registry.counter("capture.events", router=hostile).inc(5)
        registry.gauge("resource.bytes", component=hostile).set(9)
        parsed = parse_exposition(render_prometheus(registry))
        by_name = {name: labels for name, labels, _v in parsed["samples"]}
        assert by_name["repro_capture_events"] == {"router": hostile}
        assert by_name["repro_resource_bytes"] == {"component": hostile}

    def test_parse_exposition_rejects_malformed_lines(self):
        for bad in (
            'm{router="unterminated} 1',
            'm{router="x"extra="y"} 1',
            'm{router="bad\\q"} 1',
            "m one",
            "# TYPE m sideways",
            "1bad_name 2",
        ):
            with pytest.raises(ExpositionError):
                parse_exposition(bad)

    def test_validate_exposition_flags_empty_and_accepts_real_output(self):
        assert validate_exposition("") == ["no samples in exposition"]
        registry, _ = self._populated()
        assert validate_exposition(render_prometheus(registry)) == []

    def test_missing_sections_detects_dead_and_empty(self):
        registry = MetricsRegistry()
        registry.counter("verify.x")  # created but never incremented
        document = registry_to_dict(registry)
        assert missing_sections(document, ["verify", "repair"]) == [
            "verify",
            "repair",
        ]
        registry.counter("verify.x").inc()
        document = registry_to_dict(registry)
        assert missing_sections(document, ["verify"]) == []

    def test_format_table_alignment(self):
        text = format_table(("a", "bee"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)


class TestPipelineIntegration:
    def test_fig3_pipeline_records_all_stages(self):
        """The Fig. 3 demo with metrics on records every pipeline stage."""
        from repro.core.pipeline import IntegratedControlPlane, PipelineMode
        from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
        from repro.scenarios.paper_net import P, paper_policy
        from repro.verify.policy import LoopFreedomPolicy

        with obs.capturing() as (registry, tracer):
            scenario = Fig2Scenario(seed=0)
            net = scenario.run_baseline()
            pipeline = IntegratedControlPlane(
                net,
                [paper_policy(), LoopFreedomPolicy(prefixes=[P])],
                mode=PipelineMode.REPAIR,
            ).arm()
            net.apply_config_change(bad_lp_change())
            net.run(120)
            document = registry_to_dict(registry, tracer)

        assert not scenario.violates_policy()
        sections = document["sections"]
        verify = sections["verify"]["counters"]
        inference = sections["inference"]["counters"]
        assert verify["verify.fib_writes_verified"] > 0
        assert inference["inference.hbg_edges_inferred"] > 0
        assert verify["verify.fib_writes_blocked"] > 0
        assert sections["repair"]["counters"][
            "repair.root_causes_reverted_total"
        ] > 0
        assert sections["capture"]["counters"]["capture.events_total"] > 0
        latency = sections["verify"]["histograms"][
            "verify.fib_write_latency_seconds"
        ]
        assert latency["count"] > 0 and latency["p95"] > 0
        assert missing_sections(
            document,
            ["capture", "inference", "snapshot", "verify", "repair", "sim"],
        ) == []

    def test_disabled_metrics_record_nothing(self):
        """The default (null) registry stays empty through a full run."""
        from repro.scenarios.fig2 import Fig2Scenario

        assert not obs.enabled()
        Fig2Scenario(seed=0).run_fig2a()
        assert len(obs.get_registry()) == 0

    def test_detect_and_repair_emits_spans(self):
        from repro.core.pipeline import IntegratedControlPlane, PipelineMode
        from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
        from repro.scenarios.paper_net import paper_policy

        with obs.capturing() as (_registry, tracer):
            scenario = Fig2Scenario(seed=0)
            net = scenario.run_baseline()
            pipeline = IntegratedControlPlane(
                net, [paper_policy()], mode=PipelineMode.MONITOR
            )
            net.apply_config_change(bad_lp_change())
            net.run(90)
            pipeline.detect_and_repair()
            names = {record.name for record in tracer.records}
        assert "pipeline.detect_and_repair" in names
        assert "snapshot.wait_until_consistent" in names


class TestPrometheusHistogramBuckets:
    def _exact_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("verify.latency_seconds")
        for _ in range(4):
            histogram.observe(0.003)
        for _ in range(6):
            histogram.observe(0.07)
        return registry, histogram

    def test_bucket_counts_exact_below_reservoir(self):
        from repro.obs.export import DEFAULT_BUCKETS

        _registry, histogram = self._exact_histogram()
        counts = dict(
            zip(DEFAULT_BUCKETS, histogram.bucket_counts(DEFAULT_BUCKETS))
        )
        assert counts[0.001] == 0
        assert counts[0.005] == 4
        assert counts[0.05] == 4
        assert counts[0.1] == 10
        assert counts[10000.0] == 10

    def test_bucket_counts_monotone_under_reservoir_scaling(self):
        from repro.obs.export import DEFAULT_BUCKETS
        from repro.obs.metrics import Histogram

        histogram = Histogram("verify.latency_seconds")
        for i in range(20000):
            histogram.observe(0.003 if i % 2 else 0.07)
        counts = histogram.bucket_counts(DEFAULT_BUCKETS)
        assert counts == sorted(counts)  # cumulative → nondecreasing
        assert counts[-1] == histogram.count
        by_bound = dict(zip(DEFAULT_BUCKETS, counts))
        # Reservoir CDF scaled to the true count: ~half under 5ms.
        assert by_bound[0.005] == pytest.approx(10000, rel=0.05)

    def test_render_emits_cumulative_le_series_and_type(self):
        registry, histogram = self._exact_histogram()
        text = render_prometheus(registry)
        assert "# TYPE repro_verify_latency_seconds histogram" in text
        assert (
            'repro_verify_latency_seconds_bucket{le="0.005"} 4' in text
        )
        assert (
            'repro_verify_latency_seconds_bucket{le="+Inf"} 10' in text
        )
        assert "repro_verify_latency_seconds_count 10" in text
        # Quantile gauges survive alongside the buckets.
        assert 'repro_verify_latency_seconds{quantile="0.5"}' in text

    def test_bucket_series_round_trip_and_validate(self):
        registry, histogram = self._exact_histogram()
        text = render_prometheus(registry)
        assert validate_exposition(text) == []
        parsed = parse_exposition(text)
        assert parsed["types"]["repro_verify_latency_seconds"] == (
            "histogram"
        )
        buckets = [
            (labels["le"], value)
            for name, labels, value in parsed["samples"]
            if name == "repro_verify_latency_seconds_bucket"
        ]
        values = [v for _le, v in buckets]
        assert values == sorted(values)
        assert buckets[-1] == ("+Inf", 10.0)
        count = next(
            value
            for name, _labels, value in parsed["samples"]
            if name == "repro_verify_latency_seconds_count"
        )
        assert buckets[-1][1] == count

    def test_labelled_histogram_buckets_keep_their_labels(self):
        registry = MetricsRegistry()
        registry.histogram("verify.latency_seconds", router="R1").observe(
            0.003
        )
        parsed = parse_exposition(render_prometheus(registry))
        labelled = [
            labels
            for name, labels, _v in parsed["samples"]
            if name == "repro_verify_latency_seconds_bucket"
        ]
        assert labelled and all(
            entry["router"] == "R1" and "le" in entry for entry in labelled
        )
