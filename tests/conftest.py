"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.capture.io_events import reset_event_ids
from repro.net.simulator import DelayModel
from repro.net.topology import paper_prefix
from repro.scenarios.fig1 import Fig1Scenario
from repro.scenarios.fig2 import Fig2Scenario
from repro.scenarios.paper_net import build_paper_network, paper_policy


@pytest.fixture(autouse=True)
def _fresh_event_ids():
    """Keep event ids small and deterministic within each test."""
    reset_event_ids()
    yield


@pytest.fixture
def prefix_p():
    return paper_prefix()


@pytest.fixture
def paper_network():
    """The paper's 5-router network, built but not started."""
    return build_paper_network(seed=0)


@pytest.fixture
def fast_delays():
    """Millisecond-scale delays for tests that need quick convergence."""
    return DelayModel(
        fib_install=0.001,
        rib_update=0.0005,
        advertisement=0.001,
        config_to_reconfig=0.05,
        spf_compute=0.001,
    )


@pytest.fixture
def lagged_rr_capture():
    """``(net, view, events)``: route reflectors n=8, 40 churn events,
    fed in arrival order under per-router log lag (1,033 events, 130
    forward re-links) — the fixed seeded capture the per-event cost
    guards count calls on."""
    import random

    from repro.scenarios.generators import (
        build_scaled_network,
        churn_workload,
        external_prefixes,
    )
    from repro.snapshot.base import VerifierView

    net, specs = build_scaled_network(8, seed=0)
    net.start()
    churn_workload(net, specs, external_prefixes(4), 40, start=5.0)
    net.run(85)
    rng = random.Random(0)
    lags = {
        router: rng.uniform(0.0, 0.05)
        for router in sorted(net.topology.internal_routers())
    }
    view = VerifierView(net.collector, lags=lags)
    events = sorted(
        net.collector.all_events(),
        key=lambda e: (view.arrival_time(e), e.event_id),
    )
    assert len(events) > 1000
    return net, view, events


@pytest.fixture
def fig1(fast_delays):
    return Fig1Scenario(seed=0, delays=fast_delays)


@pytest.fixture
def fig2(fast_delays):
    return Fig2Scenario(seed=0, delays=fast_delays)


@pytest.fixture
def exit_policy():
    return paper_policy()
