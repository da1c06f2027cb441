"""Tests for the resource ledger: deterministic byte accounting,
weak registration, the estimate-vs-audit accuracy bar, and the
zero-overhead contract around every registration site."""

import ast
import gc
import os

import pytest

from repro import obs
from repro.hbr.graph import HappensBeforeGraph
from repro.hbr.inference import InferenceEngine, StreamingInference
from repro.lint.rules.obs_rules import SITES
from repro.obs import resources
from repro.obs.resources import (
    NullLedger,
    ResourceLedger,
    combined_sizeof,
    deep_sizeof,
    estimate_sizeof,
)
from repro.scenarios.generators import (
    build_random_network,
    churn_workload,
    external_prefixes,
)


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Never leak an enabled registry/ledger into other tests."""
    yield
    obs.disable()
    obs.disable_ledger()


# -- the sizeof walk -------------------------------------------------------


class TestSizeof:
    def test_atomics_measured_shallow(self):
        import sys

        assert deep_sizeof(42) == sys.getsizeof(42)
        assert deep_sizeof("hello") == sys.getsizeof("hello")

    def test_containers_include_elements(self):
        empty = deep_sizeof([])
        assert deep_sizeof(["x" * 100]) > empty + 100

    def test_shared_objects_counted_once(self):
        shared = "y" * 1000
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_combined_sizeof_dedups_across_roots(self):
        shared = ["z"] * 500
        separate = deep_sizeof([shared]) + deep_sizeof((shared,))
        assert combined_sizeof([[shared], (shared,)], sample=None) < separate

    def test_estimate_equals_audit_below_sample_budget(self):
        data = {i: str(i) for i in range(32)}
        assert estimate_sizeof(data, sample=64) == deep_sizeof(data)

    def test_sampled_estimate_tracks_homogeneous_data(self):
        data = [i for i in range(10_000)]
        exact = deep_sizeof(data)
        estimate = estimate_sizeof(data, sample=64)
        assert abs(estimate - exact) / exact < 0.20

    def test_sets_measured_exactly_never_sampled(self):
        data = {("k", i) for i in range(1000)}
        assert estimate_sizeof(data, sample=8) == deep_sizeof(data)

    def test_slots_instances_traversed(self):
        class Slotted:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = "p" * 500

        assert deep_sizeof(Slotted()) > 500

    def test_estimate_is_deterministic(self):
        data = {i: [i] * 3 for i in range(500)}
        assert estimate_sizeof(data) == estimate_sizeof(data)


# -- ledger registration ---------------------------------------------------


class _Accountable:
    def __init__(self, size=100):
        self.payload = ["x"] * size

    def account_bytes(self, audit=False):
        sample = None if audit else 64
        return combined_sizeof((self.payload,), sample=sample)


class TestResourceLedger:
    def test_rejects_owners_without_account_bytes(self):
        ledger = ResourceLedger()
        with pytest.raises(TypeError):
            ledger.register("x", object())

    def test_validates_sample(self):
        with pytest.raises(ValueError):
            ResourceLedger(sample=0)

    def test_refresh_aggregates_per_component(self):
        ledger = ResourceLedger()
        owners = [_Accountable(), _Accountable()]
        for owner in owners:
            ledger.register("test.component", owner)
        totals = ledger.refresh(registry=obs.get_registry())
        assert totals["test.component"] == sum(
            o.account_bytes() for o in owners
        )
        assert ledger.total_bytes() == totals["test.component"]

    def test_weak_registration_never_extends_lifetime(self):
        ledger = ResourceLedger()
        owner = _Accountable()
        ledger.register("test.component", owner)
        assert len(ledger) == 1
        del owner
        gc.collect()
        assert len(ledger) == 0
        assert ledger.refresh(registry=obs.get_registry()) == {}

    def test_peaks_are_monotonic_high_watermarks(self):
        ledger = ResourceLedger()
        owner = _Accountable(size=1000)
        ledger.register("test.component", owner)
        registry = obs.get_registry()
        ledger.refresh(registry=registry)
        peak = ledger.peak_bytes("test.component")
        owner.payload = ["x"] * 10  # shrink
        ledger.refresh(registry=registry)
        assert ledger.bytes_by_component()["test.component"] < peak
        assert ledger.peak_bytes("test.component") == peak
        assert ledger.peak_total_bytes() == peak

    def test_refresh_publishes_gauges_when_metrics_enabled(self):
        with obs.capturing() as (registry, _tracer):
            ledger = ResourceLedger()
            owner = _Accountable()
            ledger.register("test.component", owner)
            ledger.refresh(registry=registry)
            gauges = {
                (g.name, dict(g.labels).get("component")): g.value
                for g in registry.gauges()
            }
        expected = float(owner.account_bytes())
        assert gauges[("resource.bytes", "test.component")] == expected
        assert gauges[("resource.bytes_peak", "test.component")] == expected
        assert gauges[("resource.bytes_total", None)] == expected
        assert gauges[("resource.bytes_peak_total", None)] == expected

    def test_unregister_and_clear(self):
        ledger = ResourceLedger()
        owner = _Accountable()
        handle = ledger.register("test.component", owner)
        ledger.unregister(handle)
        assert len(ledger) == 0
        ledger.register("test.component", owner)
        ledger.refresh(registry=obs.get_registry())
        assert ledger.total_bytes() > 0
        ledger.clear()
        assert ledger.total_bytes() == 0
        assert ledger.refreshes_total == 0

    def test_account_bytes_is_deterministic(self):
        net, specs = build_random_network(6, uplinks=2, seed=3)
        net.start()
        churn_workload(
            net, specs, external_prefixes(2), events=4, start=2.0, seed=3
        )
        net.run(40)
        events = net.collector.all_events()
        with obs.accounting():
            graph = InferenceEngine().build_graph(events)
        assert graph.account_bytes() == graph.account_bytes()
        assert graph.account_bytes(audit=True) == graph.account_bytes(
            audit=True
        )


class TestObsWiring:
    def test_off_by_default(self):
        assert obs.get_ledger().enabled is False

    def test_enable_disable_ledger(self):
        ledger = obs.enable_ledger(sample=32)
        assert obs.get_ledger() is ledger and ledger.sample == 32
        obs.disable_ledger()
        assert obs.get_ledger().enabled is False

    def test_accounting_context_restores_previous(self):
        outer = obs.enable_ledger()
        with obs.accounting() as inner:
            assert obs.get_ledger() is inner and inner is not outer
        assert obs.get_ledger() is outer
        obs.disable_ledger()

    def test_structures_register_while_accounting(self):
        with obs.accounting() as ledger:
            graph = HappensBeforeGraph()
            totals = ledger.refresh(registry=obs.get_registry())
        assert "hbr.graph" in totals
        assert totals["hbr.graph"] == graph.account_bytes()


# -- the acceptance bar: estimates within 20% of audit ---------------------


class TestEstimateAccuracy:
    def test_streaming_build_estimate_within_20pct_of_audit(self):
        """The C-SCALE n=16 shape: ledger estimates must track the
        exact (unsampled) getsizeof walk within 20% per component."""
        net, specs = build_random_network(16, uplinks=2, seed=0)
        net.start()
        churn_workload(
            net, specs, external_prefixes(4), events=10, start=2.0, seed=0
        )
        net.run(60)
        events = net.collector.all_events()
        with obs.accounting() as ledger:
            streaming = StreamingInference(InferenceEngine())
            for event in events:
                streaming.observe(event)
            estimates = ledger.refresh(registry=obs.get_registry())
            audits = ledger.audit()
        assert set(estimates) == set(audits)
        assert {"hbr.graph", "hbr.index"}.issubset(estimates)
        for component, exact in audits.items():
            assert exact > 0
            drift = abs(estimates[component] - exact) / exact
            assert drift <= 0.20, (
                f"{component}: estimate {estimates[component]} vs audit "
                f"{exact} drifts {drift:.1%} (> 20%)"
            )


# -- drift + overhead guards -----------------------------------------------


def _site_function(module: str, qualname: str) -> ast.AST:
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


LEDGER_SITES = [site for site in SITES if site.witness == "ledger"]


class TestLedgerSiteContracts:
    def test_catalogue_and_known_components_cannot_drift(self):
        """The ledger sites and KNOWN_COMPONENTS must stay a bijection."""
        catalogued = [site.emits for site in LEDGER_SITES]
        assert sorted(catalogued) == sorted(resources.KNOWN_COMPONENTS), (
            "the ledger sites in SITES (repro/lint/rules/obs_rules.py) and "
            "KNOWN_COMPONENTS (repro/obs/resources.py) have drifted apart"
        )

    def test_every_site_guards_on_ledger_enabled(self):
        """The disabled fast path is one attribute check per site."""
        for site in LEDGER_SITES:
            func = _site_function(site.module, site.qualname)
            guards = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Attribute)
                and node.attr == "enabled"
                and isinstance(node.value, ast.Name)
                and node.value.id == "ledger"
            ]
            assert guards, (
                f"{site.module}:{site.qualname} must guard registration "
                "behind a single `ledger.enabled` check"
            )

    def test_disabled_ledger_never_reaches_register(self):
        """Behavioral half of the overhead guard: with accounting off,
        no registration site may even *call* register()."""

        class TrippingLedger(NullLedger):
            def register(self, *args, **kwargs):
                raise AssertionError(
                    "register() called while ledger.enabled is False"
                )

        import repro.obs as obs_module

        from repro.obs.ledger import VerdictLedger
        from repro.snapshot.base import VerifierView
        from repro.snapshot.consistent import ConsistentSnapshotter
        from repro.testkit.runner import FuzzRunner

        previous = obs_module._ledger
        obs_module._ledger = TrippingLedger()
        try:
            # Exercise every catalogued site: graph + index (via a
            # build), snapshotter, verdict tail, fuzz corpus.
            net, specs = build_random_network(4, uplinks=2, seed=1)
            net.start()
            churn_workload(
                net, specs, external_prefixes(2), events=2, start=2.0, seed=1
            )
            net.run(30)
            engine = InferenceEngine()
            engine.build_graph(net.collector.all_events())
            ConsistentSnapshotter(
                VerifierView(net.collector),
                internal_routers=net.topology.internal_routers(),
                engine=engine,
            )
            VerdictLedger(capacity=8)
            report = FuzzRunner(
                artifacts_dir=None, shrink_failures=False
            ).run(seed=0, cases=1)
            assert report.cases == 1
        finally:
            obs_module._ledger = previous

    def test_null_ledger_is_inert(self):
        null = NullLedger()
        assert null.enabled is False
        assert null.refresh() == {} and null.audit() == {}
        assert null.bytes_by_component() == {} and null.total_bytes() == 0
        assert len(null) == 0
