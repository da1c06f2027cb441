"""The Fig. 3 guard is a what-if delta on the maintained snapshot.

Three contracts, each against something computed *here* rather than
by the code under test:

* differential — on seeded churn worlds, every guard call reports the
  introduced violations a batch reference reports (two
  ``DataPlaneVerifier.verify`` passes over ``from_fib_events``, with
  and without the pending write), and leaves the maintained state as
  it found it;
* local cost — one guarded write replays nothing, walks no trie, and
  redoes the longest match only for probed addresses under its own
  prefix; guard latency does not grow with history;
* restore — after a blocked write (an install, a withdraw), the
  maintained state is what it was before the call.  (A router's
  blocked *first-ever* write happens in vivo in the armed-from-start
  BLOCK world below, and in isolation in
  ``tests/test_verify_incremental.py::TestWhatIf``.)
"""

import time

import pytest

from repro.capture.io_events import IOKind
from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.net.addr import PrefixTrie
from repro.net.config import ConfigChange, local_pref_map
from repro.protocols.fib import FibEntry
from repro.scenarios.generators import (
    build_random_network,
    build_scaled_network,
    churn_workload,
    external_prefixes,
)
from repro.snapshot.base import DataPlaneSnapshot
from repro.verify.policy import (
    BlackholeFreedomPolicy,
    LoopFreedomPolicy,
    PreferredExitPolicy,
)
from repro.verify.verifier import DataPlaneVerifier

GUARDS = external_prefixes(2, base="198.51.0.0")
CHURNED = external_prefixes(4)
#: Simulated seconds: the guard prefixes are announced at 1 s, churn
#: starts at 20 s, the preferred uplink is sabotaged at 24 s.
CONVERGED = 15.0
SABOTAGE_AT = 24.0


class World:
    """A seeded churn world: route-reflector (``rr``) or iBGP full
    mesh, a preferred-exit policy on the first guard prefix plus
    unscoped loop- and blackhole-freedom, and a local-pref sabotage of
    the preferred uplink."""

    def __init__(self, family, seed, churn=16):
        build = build_scaled_network if family == "rr" else build_random_network
        self.net, self.specs = build(12 if family == "rr" else 8, seed=seed)
        self.seed = seed
        self.churn = churn
        preferred = max(self.specs, key=lambda s: s.local_pref)
        fallback = min(self.specs, key=lambda s: s.local_pref)
        self.policies = [
            PreferredExitPolicy(
                prefix=GUARDS[0],
                preferred_exit=preferred.router,
                fallback_exit=fallback.router,
                uplink_of={
                    preferred.router: preferred.external,
                    fallback.router: fallback.external,
                },
            ),
            LoopFreedomPolicy(),
            BlackholeFreedomPolicy(),
        ]
        name = f"{preferred.router.lower()}-uplink-lp"
        self.sabotage = ConfigChange(
            preferred.router,
            "set_route_map",
            key=name,
            value=local_pref_map(name, 1),
            description="sabotage preferred uplink",
        )

    def arm(self, mode):
        return IntegratedControlPlane(self.net, self.policies, mode=mode).arm()

    def start(self):
        self.net.start()
        for spec in self.specs:
            for prefix in GUARDS:
                self.net.announce_prefix(spec.external, prefix, at=1.0)
        churn_workload(
            self.net, self.specs, CHURNED, self.churn, start=20.0,
            seed=self.seed,
        )

    def converged(self, mode):
        """Started, converged, and only then attached and armed."""
        self.start()
        self.net.run(CONVERGED)
        return self.arm(mode)


def _batch_introduced(world, router, prefix, entry):
    """The reference: verify the replay of every captured FIB event,
    apply the pending write to it, verify again, diff by key."""
    verifier = DataPlaneVerifier(world.net.topology, world.policies)
    snapshot = DataPlaneSnapshot.from_fib_events(
        world.net.collector.events_of_kind(IOKind.FIB_UPDATE)
    )
    before = {v.key() for v in verifier.verify(snapshot).violations}
    if entry is None:
        snapshot.remove(router, prefix)
    else:
        snapshot.install(entry)
    return [
        v.key()
        for v in verifier.verify(snapshot).violations
        if v.key() not in before
    ]


def _state(verifier):
    """Everything a what-if must put back."""
    snapshot = verifier.snapshot
    return (
        {
            router: {e.prefix: e for e in snapshot.entries_of(router)}
            for router in snapshot.routers()
        },
        {r: snapshot.has_router(r) for r in sorted(verifier.internal_routers)},
        snapshot.first_addresses(),
        verifier.violations(),
    )


def _traces(verifier):
    snapshot = verifier.snapshot
    return {
        (source, address): snapshot.trace(source, address)
        for source in sorted(verifier.internal_routers)
        for address in snapshot.first_addresses()
    }


MODES = [PipelineMode.MONITOR, PipelineMode.BLOCK, PipelineMode.REPAIR]


class TestGuardMatchesBatchReference:
    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    @pytest.mark.parametrize(
        "family,seed,from_start",
        [
            # Armed before the first event: cold start included, so
            # routers' first-ever writes (blocked ones too) are guarded.
            ("rr", 3, True),
            # Attached after convergence: the constructor's catch-up
            # over already-captured events builds the maintained state.
            ("mesh", 5, False),
        ],
    )
    def test_every_guard_call(self, family, seed, from_start, mode):
        world = World(family, seed)
        calls = []  # (reference keys, router had a table, is a withdraw)

        def check(pipeline):
            verifier = pipeline.incremental
            real = verifier.what_if

            def checked(router, prefix, entry):
                reference = _batch_introduced(world, router, prefix, entry)
                had_table = verifier.snapshot.has_router(router)
                before = _state(verifier)
                introduced = real(router, prefix, entry)
                assert [v.key() for v in introduced] == reference, (
                    len(calls), router, prefix,
                )
                assert _state(verifier) == before, (len(calls), router, prefix)
                calls.append((reference, had_table, entry is None))
                return introduced

            verifier.what_if = checked
            return pipeline

        if from_start:
            pipeline = check(world.arm(mode))
            world.start()
        else:
            pipeline = check(world.converged(mode))
        world.net.run(SABOTAGE_AT - world.net.sim.now)
        world.net.apply_config_change(world.sabotage)
        world.net.run(60.0)

        offending = [keys for keys, _had_table, _withdraw in calls if keys]
        assert len(calls) == pipeline.updates_checked > 50
        assert offending, "the sabotage must trip the guard"
        assert any(withdraw for _keys, _had_table, withdraw in calls)
        assert [
            [v.key() for v in incident.introduced_violations]
            for incident in pipeline.incidents
        ] == offending
        blocking = mode is not PipelineMode.MONITOR
        assert pipeline.updates_blocked == (len(offending) if blocking else 0)
        assert all(i.blocked is blocking for i in pipeline.incidents)
        if from_start:
            assert any(
                keys and not had_table for keys, had_table, _withdraw in calls
            ), "no offending first-ever write was exercised"


def _fib_entry(prefix, next_hop):
    return FibEntry(
        prefix=prefix,
        next_hop=None,
        next_hop_router=next_hop,
        out_interface=None,
        protocol="ibgp",
    )


class TestGuardCostIsLocal:
    """In the style of ``TestDeltaCostIsLocal``: count what one guarded
    write touches rather than time it."""

    def test_one_write_replays_and_walks_nothing(self, monkeypatch):
        world = World("rr", 3)
        pipeline = world.converged(PipelineMode.MONITOR)
        world.net.run(60.0)
        snapshot = pipeline.incremental.snapshot
        routers = snapshot.routers()
        probed = snapshot.first_addresses()
        calls = {"longest_match": 0, "items": 0}
        for name in calls:
            original = getattr(PrefixTrie, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(PrefixTrie, name, counted)

        def tripping(*args, **kwargs):
            raise AssertionError("the guard took the batch path")

        monkeypatch.setattr(
            DataPlaneSnapshot, "from_fib_events", classmethod(tripping)
        )
        monkeypatch.setattr(DataPlaneVerifier, "verify", tripping)
        checked = pipeline.updates_checked
        for prefix in GUARDS + CHURNED[:1]:
            inside = sum(
                prefix.first_address() <= address <= prefix.last_address()
                for address in probed
            )
            assert inside >= 1
            for router in routers[:4]:
                held = snapshot.entry(router, prefix)
                calls["longest_match"] = 0
                pipeline._guard(router, None, _fib_entry(prefix, routers[-1]))
                assert calls["longest_match"] <= inside * len(routers)
                assert snapshot.entry(router, prefix) is held
        assert pipeline.updates_checked == checked + 3 * 4
        assert calls["items"] == 0

    def test_latency_does_not_grow_with_history(self):
        """300 guarded writes while churn keeps appending FIB events:
        the last tenth costs what the first tenth did (the replay this
        replaced grew ~2.3x within one run).  Medians and a generous
        factor: this guards the O(history) shape, not a number."""
        world = World("rr", 3, churn=60)
        pipeline = world.converged(PipelineMode.MONITOR)
        timings = []

        def timed(router, old, new):
            started = time.perf_counter()
            allowed = pipeline._guard(router, old, new)
            timings.append(time.perf_counter() - started)
            return allowed

        world.net.set_fib_guard(timed)
        world.net.run(100.0)
        assert len(timings) >= 300
        timings = timings[:300]
        first = sorted(timings[:30])[15]
        last = sorted(timings[-30:])[15]
        assert last <= 2.0 * first + 100e-6, (first, last)


class TestBlockedWriteIsRestored:
    @pytest.fixture
    def armed(self):
        world = World("rr", 3)
        pipeline = world.converged(PipelineMode.BLOCK)
        assert not pipeline.incidents
        return pipeline

    def test_blocked_install(self, armed):
        verifier = armed.incremental
        snapshot = verifier.snapshot
        # Find a -> b for the second guard prefix and point b back at
        # a: a forwarding loop, hence blocked.
        a, b = next(
            (entry.router, entry.next_hop_router)
            for router in snapshot.routers()
            for entry in [snapshot.entry(router, GUARDS[1])]
            if entry is not None
            and entry.next_hop_router is not None
            and snapshot.entry(entry.next_hop_router, GUARDS[1]) is not None
        )
        held = snapshot.entry(b, GUARDS[1])
        before, traces = _state(verifier), _traces(verifier)
        assert not armed._guard(
            b,
            _fib_entry(GUARDS[1], held.next_hop_router),
            _fib_entry(GUARDS[1], a),
        )
        [incident] = armed.incidents
        assert "loop-freedom" in {
            v.policy for v in incident.introduced_violations
        }
        assert armed.updates_blocked == 1
        assert _state(verifier) == before
        assert _traces(verifier) == traces
        assert snapshot.entry(b, GUARDS[1]) is held

    def test_blocked_withdraw(self, armed):
        verifier = armed.incremental
        snapshot = verifier.snapshot
        router = snapshot.routers()[0]
        held = snapshot.entry(router, GUARDS[0])
        before, traces = _state(verifier), _traces(verifier)
        # Nothing covers the guard prefix once it is gone: a blackhole.
        assert not armed._guard(
            router, _fib_entry(GUARDS[0], held.next_hop_router), None
        )
        [incident] = armed.incidents
        assert "blackhole-freedom" in {
            v.policy for v in incident.introduced_violations
        }
        assert _state(verifier) == before
        assert _traces(verifier) == traces
        assert snapshot.entry(router, GUARDS[0]) is held

    def test_allowed_write_is_restored_too(self, armed):
        """The what-if never commits: an allowed write reaches the
        maintained snapshot through its captured FIB event."""
        verifier = armed.incremental
        snapshot = verifier.snapshot
        router = snapshot.routers()[0]
        held = snapshot.entry(router, GUARDS[1])
        before = _state(verifier)
        same = _fib_entry(GUARDS[1], held.next_hop_router)
        assert armed._guard(router, same, same)
        assert not armed.incidents
        assert _state(verifier) == before
