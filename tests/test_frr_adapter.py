"""Tests for the FRR-flavoured log adapter (logs <-> events <-> HBG)."""

import pytest

from repro.capture.frr import FrrLogParser, FrrParseError, render_event, render_events
from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.hbr.inference import InferenceEngine
from repro.repair.provenance import ProvenanceTracer
from repro.scenarios.fig2 import Fig2Scenario
from repro.scenarios.paper_net import P


def _round_trip(event):
    line = render_event(event)
    parsed = FrrLogParser().parse_line(line)
    return parsed


class TestRoundTrip:
    def test_bgp_update_receive(self):
        event = IOEvent.create(
            "R1",
            IOKind.ROUTE_RECEIVE,
            1.25,
            protocol="bgp",
            prefix=P,
            action=RouteAction.ANNOUNCE,
            peer="R2",
            attrs={
                "next_hop": "10.0.0.2",
                "as_path": "65001",
                "local_pref": 30,
                "med": 0,
            },
        )
        parsed = _round_trip(event)
        assert parsed.kind is IOKind.ROUTE_RECEIVE
        assert parsed.router == "R1" and parsed.peer == "R2"
        assert parsed.prefix == P
        assert parsed.timestamp == pytest.approx(1.25)
        assert parsed.attr("local_pref") == 30
        assert parsed.attr("as_path") == "65001"

    def test_bgp_withdraw_send(self):
        event = IOEvent.create(
            "R2",
            IOKind.ROUTE_SEND,
            2.0,
            protocol="bgp",
            prefix=P,
            action=RouteAction.WITHDRAW,
            peer="R3",
        )
        parsed = _round_trip(event)
        assert parsed.kind is IOKind.ROUTE_SEND
        assert parsed.action is RouteAction.WITHDRAW
        assert parsed.peer == "R3"

    def test_rib_best_announce(self):
        event = IOEvent.create(
            "R1",
            IOKind.RIB_UPDATE,
            3.0,
            protocol="bgp",
            prefix=P,
            action=RouteAction.ANNOUNCE,
            attrs={"via": "R2", "local_pref": 30, "next_hop": "x", "as_path": ""},
        )
        parsed = _round_trip(event)
        assert parsed.kind is IOKind.RIB_UPDATE
        assert parsed.attr("via") == "R2"

    def test_rib_removed(self):
        event = IOEvent.create(
            "R1",
            IOKind.RIB_UPDATE,
            3.0,
            protocol="bgp",
            prefix=P,
            action=RouteAction.WITHDRAW,
        )
        parsed = _round_trip(event)
        assert parsed.action is RouteAction.WITHDRAW

    def test_fib_add_and_del(self):
        add = IOEvent.create(
            "R1",
            IOKind.FIB_UPDATE,
            4.0,
            protocol="ibgp",
            prefix=P,
            action=RouteAction.ANNOUNCE,
            attrs={
                "next_hop_router": "R2",
                "out_interface": "eth0",
                "discard": False,
            },
        )
        parsed = _round_trip(add)
        assert parsed.kind is IOKind.FIB_UPDATE
        assert parsed.attr("next_hop_router") == "R2"
        assert parsed.protocol == "ibgp"
        removal = IOEvent.create(
            "R1",
            IOKind.FIB_UPDATE,
            5.0,
            protocol="ibgp",
            prefix=P,
            action=RouteAction.WITHDRAW,
        )
        parsed_del = _round_trip(removal)
        assert parsed_del.action is RouteAction.WITHDRAW

    def test_local_delivery_fib(self):
        event = IOEvent.create(
            "R1",
            IOKind.FIB_UPDATE,
            4.0,
            protocol="connected",
            prefix=P,
            action=RouteAction.ANNOUNCE,
            attrs={"next_hop_router": None, "out_interface": "lo0"},
        )
        parsed = _round_trip(event)
        assert parsed.attr("next_hop_router") is None

    def test_hardware(self):
        event = IOEvent.create(
            "R2",
            IOKind.HARDWARE_STATUS,
            6.0,
            attrs={"link": "eth3", "status": "down"},
        )
        parsed = _round_trip(event)
        assert parsed.kind is IOKind.HARDWARE_STATUS
        assert parsed.attr("link") == "eth3"
        assert parsed.attr("status") == "down"

    def test_config(self):
        event = IOEvent.create(
            "R2",
            IOKind.CONFIG_CHANGE,
            7.0,
            attrs={"change_id": 42, "description": "set uplink local-pref to 10"},
        )
        parsed = _round_trip(event)
        assert parsed.kind is IOKind.CONFIG_CHANGE
        assert parsed.attr("change_id") == 42
        assert "local-pref" in parsed.attr("description")


class TestParserRobustness:
    def test_blank_and_comment_lines_skipped(self):
        parser = FrrLogParser()
        events = parser.parse("\n# a comment\n\n")
        assert events == []
        assert parser.lines_skipped >= 1

    def test_garbage_raises(self):
        with pytest.raises(FrrParseError):
            FrrLogParser().parse_line("1.0 R1 bgpd: gibberish")

    def test_unsupported_events_render_as_comments(self):
        lsa = IOEvent.create(
            "R1",
            IOKind.ROUTE_SEND,
            1.0,
            protocol="ospf",
            peer="R2",
            action=RouteAction.ANNOUNCE,
            attrs={"lsa_origin": "R1", "lsa_seq": 3},
        )
        line = render_event(lsa)
        assert line.startswith("#")
        assert FrrLogParser().parse_line(line) is None


class TestEndToEndThroughLogs:
    def test_hbg_from_textual_logs_finds_fig2_root_cause(self, fast_delays):
        """Full fidelity check: simulate Fig. 2a, serialise the capture
        to FRR-style text, parse it back, rebuild the HBG from the
        parsed events, and root-cause the violation — identical verdict
        to the in-memory pipeline."""
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig2a()
        bgp_events = [
            e
            for e in net.collector.all_events()
            if e.protocol in ("bgp", "ibgp", "ebgp", "connected", "static")
            or e.kind in (IOKind.CONFIG_CHANGE, IOKind.HARDWARE_STATUS)
        ]
        text = render_events(bgp_events)
        parsed = FrrLogParser().parse(text)
        assert len(parsed) == len(bgp_events)

        graph = InferenceEngine().build_graph(parsed)
        config = [
            e
            for e in parsed
            if e.kind is IOKind.CONFIG_CHANGE and e.router == "R2"
        ][0]
        fibs = [
            e
            for e in parsed
            if e.kind is IOKind.FIB_UPDATE
            and e.router == "R1"
            and e.prefix == P
            and e.timestamp > config.timestamp
        ]
        assert fibs
        target = max(fibs, key=lambda e: e.timestamp)
        result = ProvenanceTracer(graph).trace(target.event_id)
        root_descriptions = [e.describe() for e in result.root_causes]
        assert any("config change" in d for d in root_descriptions)
        assert scenario.change.change_id in result.config_change_ids()
