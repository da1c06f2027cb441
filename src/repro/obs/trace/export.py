"""Causal trace exporters: HBG → viewable traces.

The happens-before graph already *is* a distributed trace: vertices
are timed events on named routers, and edges are causal parent
links.  These exporters serialise that structure into formats
existing tooling can open:

* :func:`chrome_trace` — Chrome trace-event JSON (the format
  Perfetto and ``chrome://tracing`` load).  One track (``tid``) per
  router; each I/O event is a complete ("X") slice whose duration
  spans until its last HBG child fires; every HBG edge becomes one
  flow arrow (an ``s``/``f`` pair) from cause to effect.
* :func:`otlp_spans` — an OTLP-style JSON span tree
  (``resourceSpans`` → ``scopeSpans`` → ``spans``).  Each HBG vertex
  is a span; its highest-confidence parent becomes ``parentSpanId``
  and every remaining in-edge becomes a span *link*, so the full
  edge set survives the tree-ification.
* :func:`text_timeline` — a plain per-router timeline for terminals.

Each exporter takes the graph duck-typed (anything with
``events()`` / ``edges()`` / ``parents()`` / ``children()`` in the
:class:`repro.hbr.graph.HappensBeforeGraph` shape).  Verdicts and
rollbacks are not rendered here: the verdict ledger
(:mod:`repro.obs.ledger`) is their record.

:func:`validate_chrome_trace` and :func:`validate_otlp_spans` are the
structural schema checks CI and the test suite run against every
export: required keys present, flow/parent references resolve, and
per-track timestamps non-decreasing.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple


def _us(seconds: float) -> float:
    """Simulation seconds → trace-event microseconds."""
    return round(seconds * 1_000_000.0, 3)


def _durations(graph, min_confidence: float = 0.0) -> Dict[int, float]:
    """Per-vertex duration: time until the last direct HBG child.

    Leaf events (no children above the bar) get zero duration and are
    rendered as minimal slices; everything else visually spans its
    propagation window, which is what makes per-hop latency readable
    in Perfetto.
    """
    durations: Dict[int, float] = {}
    for event in graph.events():
        children = graph.children(event.event_id, min_confidence)
        if children:
            last = max(child.timestamp for child, _evidence in children)
            durations[event.event_id] = max(0.0, last - event.timestamp)
        else:
            durations[event.event_id] = 0.0
    return durations


def _sorted_events(graph) -> List[Any]:
    return sorted(graph.events(), key=lambda e: (e.timestamp, e.event_id))


def _routers(graph) -> List[str]:
    return sorted({event.router for event in graph.events()})


def _event_args(event) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "event_id": event.event_id,
        "kind": event.kind.value,
        "describe": event.describe(),
    }
    if event.protocol:
        args["protocol"] = event.protocol
    if event.prefix is not None:
        args["prefix"] = str(event.prefix)
    if event.peer:
        args["peer"] = event.peer
    return args


# -- Chrome trace-event / Perfetto -------------------------------------------


def chrome_trace(graph, min_confidence: float = 0.0) -> Dict[str, Any]:
    """Chrome trace-event JSON document (Perfetto-loadable)."""
    routers = _routers(graph)
    tids = {router: index + 1 for index, router in enumerate(routers)}
    durations = _durations(graph, min_confidence)

    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro control plane"},
        }
    ]
    for router in routers:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tids[router],
                "args": {"name": router},
            }
        )

    for event in _sorted_events(graph):
        trace_events.append(
            {
                "name": event.kind.value,
                "cat": "io",
                "ph": "X",
                "ts": _us(event.timestamp),
                "dur": max(_us(durations[event.event_id]), 1.0),
                "pid": 1,
                "tid": tids[event.router],
                "args": _event_args(event),
            }
        )

    flow_id = 0
    for edge in graph.edges():
        if edge.evidence.confidence < min_confidence:
            continue
        flow_id += 1
        cause = graph.event(edge.cause)
        effect = graph.event(edge.effect)
        args = {
            "cause": edge.cause,
            "effect": edge.effect,
            "technique": edge.evidence.technique,
            "rule": edge.evidence.rule,
            "confidence": round(edge.evidence.confidence, 6),
        }
        name = edge.evidence.rule or edge.evidence.technique
        trace_events.append(
            {
                "name": name,
                "cat": "hbg",
                "ph": "s",
                "id": flow_id,
                "ts": _us(cause.timestamp),
                "pid": 1,
                "tid": tids[cause.router],
                "args": args,
            }
        )
        trace_events.append(
            {
                "name": name,
                "cat": "hbg",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "ts": _us(effect.timestamp),
                "pid": 1,
                "tid": tids[effect.router],
                "args": args,
            }
        )

    return {
        "displayTimeUnit": "ms",
        "traceEvents": trace_events,
        "otherData": {
            "tool": "repro.obs.trace",
            "routers": routers,
            "hbg_edges": flow_id,
        },
    }


_CHROME_REQUIRED_BY_PHASE = {
    "M": ("name", "pid", "tid", "args"),
    "X": ("name", "ts", "dur", "pid", "tid"),
    "s": ("name", "id", "ts", "pid", "tid"),
    "f": ("name", "id", "ts", "pid", "tid"),
}


def validate_chrome_trace(document: Dict[str, Any]) -> List[str]:
    """Structural schema check; returns problems (empty = valid)."""
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    flows: Dict[Any, Dict[str, float]] = {}
    last_ts_by_track: Dict[Tuple[Any, Any], float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{index}] is not an object")
            continue
        phase = event.get("ph")
        required = _CHROME_REQUIRED_BY_PHASE.get(phase)
        if required is None:
            problems.append(f"traceEvents[{index}] has unknown ph={phase!r}")
            continue
        missing = [key for key in required if key not in event]
        if missing:
            problems.append(
                f"traceEvents[{index}] (ph={phase}) missing "
                f"{', '.join(missing)}"
            )
            continue
        if phase == "X":
            track = (event["pid"], event["tid"])
            ts = float(event["ts"])
            if ts < last_ts_by_track.get(track, float("-inf")):
                problems.append(
                    f"traceEvents[{index}]: timestamp decreases on track "
                    f"{track}"
                )
            last_ts_by_track[track] = ts
        if phase in ("s", "f"):
            flows.setdefault(event["id"], {})[phase] = float(event["ts"])
    for flow_id, ends in flows.items():
        if set(ends) != {"s", "f"}:
            problems.append(f"flow {flow_id} is missing an s/f endpoint")
        elif ends["f"] < ends["s"]:
            problems.append(f"flow {flow_id} finishes before it starts")
    return problems


def chrome_flow_edges(document: Dict[str, Any]) -> set:
    """The (cause, effect) pairs encoded as flow events in an export.

    This is the join key the acceptance test uses to verify that span
    parent links match HBG edges exactly.
    """
    edges = set()
    for event in document.get("traceEvents", ()):
        if event.get("ph") == "s":
            args = event.get("args", {})
            edges.add((args.get("cause"), args.get("effect")))
    return edges


# -- OTLP-style span tree ----------------------------------------------------


def span_id(event_id: int) -> str:
    """Deterministic 16-hex-digit span id for one HBG vertex."""
    digest = hashlib.sha256(f"repro-event:{event_id}".encode("utf-8"))
    return digest.hexdigest()[:16]


def _trace_id(graph) -> str:
    blob = ",".join(str(e.event_id) for e in graph.events())
    return hashlib.sha256(f"repro-trace:{blob}".encode("utf-8")).hexdigest()[
        :32
    ]


def _otlp_value(value: Any) -> Dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attrs(mapping: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [
        {"key": key, "value": _otlp_value(value)}
        for key, value in mapping.items()
        if value is not None and value != ""
    ]


def _primary_parent(graph, event_id: int, min_confidence: float):
    """The in-edge promoted to OTLP parent: highest confidence wins,
    latest (timestamp, id) breaks ties — deterministic either way."""
    parents = graph.parents(event_id, min_confidence)
    if not parents:
        return None
    return max(
        parents,
        key=lambda pair: (
            pair[1].confidence,
            pair[0].timestamp,
            pair[0].event_id,
        ),
    )


def otlp_spans(
    graph,
    min_confidence: float = 0.0,
    service_name: str = "repro",
) -> Dict[str, Any]:
    """OTLP-style JSON span tree over the HBG."""
    trace_id = _trace_id(graph)
    durations = _durations(graph, min_confidence)
    spans: List[Dict[str, Any]] = []
    for event in _sorted_events(graph):
        start = int(round(event.timestamp * 1_000_000_000))
        end = start + int(round(durations[event.event_id] * 1_000_000_000))
        primary = _primary_parent(graph, event.event_id, min_confidence)
        links = []
        for ante, evidence in graph.parents(event.event_id, min_confidence):
            if primary is not None and ante.event_id == primary[0].event_id:
                continue
            links.append(
                {
                    "traceId": trace_id,
                    "spanId": span_id(ante.event_id),
                    "attributes": _otlp_attrs(
                        {
                            "hbg.rule": evidence.rule,
                            "hbg.technique": evidence.technique,
                            "hbg.confidence": round(evidence.confidence, 6),
                        }
                    ),
                }
            )
        attrs = {
            "net.router": event.router,
            "repro.event_id": event.event_id,
            "repro.kind": event.kind.value,
            "repro.describe": event.describe(),
        }
        if primary is not None:
            attrs["hbg.parent_rule"] = (
                primary[1].rule or primary[1].technique
            )
            attrs["hbg.parent_confidence"] = round(
                primary[1].confidence, 6
            )
        span: Dict[str, Any] = {
            "traceId": trace_id,
            "spanId": span_id(event.event_id),
            "parentSpanId": (
                span_id(primary[0].event_id) if primary is not None else ""
            ),
            "name": event.kind.value,
            "kind": "SPAN_KIND_INTERNAL",
            "startTimeUnixNano": str(start),
            "endTimeUnixNano": str(end),
            "attributes": _otlp_attrs(attrs),
        }
        if links:
            span["links"] = links
        spans.append(span)

    scope_spans: List[Dict[str, Any]] = [
        {
            "scope": {"name": "repro.obs.trace", "version": "1"},
            "spans": spans,
        }
    ]
    document: Dict[str, Any] = {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": _otlp_attrs({"service.name": service_name})
                },
                "scopeSpans": scope_spans,
            }
        ]
    }
    return document


_OTLP_SPAN_REQUIRED = (
    "traceId",
    "spanId",
    "parentSpanId",
    "name",
    "startTimeUnixNano",
    "endTimeUnixNano",
)


def validate_otlp_spans(document: Dict[str, Any]) -> List[str]:
    """Structural schema check; returns problems (empty = valid)."""
    problems: List[str] = []
    resource_spans = document.get("resourceSpans")
    if not isinstance(resource_spans, list) or not resource_spans:
        return ["resourceSpans missing or empty"]
    all_spans: List[Dict[str, Any]] = []
    for block in resource_spans:
        for scope in block.get("scopeSpans", ()):
            all_spans.extend(scope.get("spans", ()))
    if not all_spans:
        problems.append("no spans in any scopeSpans block")
    ids = set()
    for index, span in enumerate(all_spans):
        missing = [key for key in _OTLP_SPAN_REQUIRED if key not in span]
        if missing:
            problems.append(f"spans[{index}] missing {', '.join(missing)}")
            continue
        ids.add(span["spanId"])
        if int(span["endTimeUnixNano"]) < int(span["startTimeUnixNano"]):
            problems.append(f"spans[{index}] ends before it starts")
    last_start_by_router: Dict[str, int] = {}
    for index, span in enumerate(all_spans):
        if any(key not in span for key in _OTLP_SPAN_REQUIRED):
            continue
        parent = span["parentSpanId"]
        if parent and parent not in ids:
            problems.append(
                f"spans[{index}] parentSpanId {parent} resolves to no span"
            )
        for link in span.get("links", ()):
            if link.get("spanId") not in ids:
                problems.append(
                    f"spans[{index}] link {link.get('spanId')} resolves to "
                    "no span"
                )
        router = _span_attr(span, "net.router") or ""
        start = int(span["startTimeUnixNano"])
        if start < last_start_by_router.get(router, -1):
            problems.append(
                f"spans[{index}]: start time decreases on router track "
                f"{router!r}"
            )
        last_start_by_router[router] = start
    return problems


def _span_attr(span: Dict[str, Any], key: str) -> Optional[Any]:
    for attr in span.get("attributes", ()):
        if attr.get("key") == key:
            value = attr.get("value", {})
            for slot in ("stringValue", "intValue", "doubleValue", "boolValue"):
                if slot in value:
                    return value[slot]
    return None


def otlp_parent_edges(document: Dict[str, Any]) -> set:
    """(cause, effect) pairs covered by parents *and* links.

    Together these must reproduce the HBG edge set exactly — the
    tree-ification may demote an edge to a link but never lose one.
    """
    spans: List[Dict[str, Any]] = []
    for block in document.get("resourceSpans", ()):
        for scope in block.get("scopeSpans", ()):
            spans.extend(scope.get("spans", ()))
    by_span_id = {
        span["spanId"]: _span_attr(span, "repro.event_id") for span in spans
    }
    edges = set()
    for span in spans:
        effect = _span_attr(span, "repro.event_id")
        parent = span.get("parentSpanId")
        if parent:
            edges.add((int(by_span_id[parent]), int(effect)))
        for link in span.get("links", ()):
            cause = by_span_id.get(link.get("spanId"))
            if cause is not None:
                edges.add((int(cause), int(effect)))
    return edges


# -- plain-text timeline -----------------------------------------------------


def text_timeline(graph, min_confidence: float = 0.0) -> str:
    """Per-router plain-text timeline with causal annotations."""
    lines: List[str] = []
    for router in _routers(graph):
        lines.append(f"== {router} ==")
        events = sorted(
            graph.events_of_router(router),
            key=lambda e: (e.timestamp, e.event_id),
        )
        for event in events:
            primary = _primary_parent(graph, event.event_id, min_confidence)
            caused = ""
            if primary is not None:
                ante, evidence = primary
                label = evidence.rule or evidence.technique
                caused = (
                    f"  <- #{ante.event_id} "
                    f"({label}, {evidence.confidence:.2f})"
                )
            lines.append(
                f"  t={event.timestamp:9.4f}  #{event.event_id:<4d} "
                f"{event.describe()}{caused}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


#: Format name -> exporter for the CLI (``repro trace --format``).
EXPORTERS = {
    "chrome": chrome_trace,
    "otlp": otlp_spans,
    "table": text_timeline,
}
