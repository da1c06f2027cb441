"""The control-plane I/O taxonomy of §4.1.

    "A router's control plane receives three types of input: protocol
    configurations, hardware status changes (e.g., link down), and
    route advertisements and withdrawals.  Based on this input,
    protocol- and vendor-specific algorithms produce three main types
    of output: FIB entries, routing information base (RIB) entries,
    and route advertisements and withdrawals (for other routers)."

Every boundary crossing becomes one immutable :class:`IOEvent`.  The
fields deliberately contain only what a real capture shim could see
in router logs — router name, timestamp, event kind, protocol,
prefix, session peer, and route attributes.  They never contain the
identity of the causing event; recovering causes is the job of HBR
inference (:mod:`repro.hbr`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.net.addr import Prefix


class IOKind(enum.Enum):
    """The six I/O kinds of §4.1 — three inputs, three outputs."""

    # inputs
    CONFIG_CHANGE = "config_change"
    HARDWARE_STATUS = "hardware_status"
    ROUTE_RECEIVE = "route_receive"
    # outputs
    RIB_UPDATE = "rib_update"
    FIB_UPDATE = "fib_update"
    ROUTE_SEND = "route_send"

    #: Position in declaration order (assigned below the class).
    ordinal: int

    @property
    def direction(self) -> "Direction":
        if self in (IOKind.CONFIG_CHANGE, IOKind.HARDWARE_STATUS, IOKind.ROUTE_RECEIVE):
            return Direction.INPUT
        return Direction.OUTPUT


# A plain int per member, set once here: index keys and dispatch tables
# built from ``kind.ordinal`` hash and compare at C speed, where the
# member itself pays a Python-level ``Enum.__hash__`` per lookup.
for _ordinal, _kind in enumerate(IOKind):
    _kind.ordinal = _ordinal


class Direction(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class RouteAction(enum.Enum):
    """Whether an event adds or removes routing state."""

    ANNOUNCE = "announce"
    WITHDRAW = "withdraw"

    def opposite(self) -> "RouteAction":
        if self is RouteAction.ANNOUNCE:
            return RouteAction.WITHDRAW
        return RouteAction.ANNOUNCE


_event_ids = itertools.count(1)


def reset_event_ids() -> None:
    """Restart the global event-id counter (test isolation only)."""
    global _event_ids
    _event_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class IOEvent:
    """One captured control-plane input or output.

    ``attrs`` holds observable route attributes (local-pref, AS path,
    next hop, ...) for route events, the changed key for config
    events, or the link name for hardware events.  It is stored as a
    sorted tuple of pairs so events stay hashable and comparable.
    """

    event_id: int
    router: str
    kind: IOKind
    timestamp: float
    protocol: Optional[str] = None
    prefix: Optional[Prefix] = None
    action: Optional[RouteAction] = None
    peer: Optional[str] = None
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        router: str,
        kind: IOKind,
        timestamp: float,
        protocol: Optional[str] = None,
        prefix: Optional[Prefix] = None,
        action: Optional[RouteAction] = None,
        peer: Optional[str] = None,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> "IOEvent":
        """Build an event with a fresh globally-unique id."""
        packed: Tuple[Tuple[str, Any], ...] = ()
        if attrs:
            packed = tuple(sorted(attrs.items()))
        return cls(
            event_id=next(_event_ids),
            router=router,
            kind=kind,
            timestamp=timestamp,
            protocol=protocol,
            prefix=prefix,
            action=action,
            peer=peer,
            attrs=packed,
        )

    @property
    def direction(self) -> Direction:
        return self.kind.direction

    @property
    def is_route_event(self) -> bool:
        return self.kind in (
            IOKind.ROUTE_RECEIVE,
            IOKind.ROUTE_SEND,
            IOKind.RIB_UPDATE,
            IOKind.FIB_UPDATE,
        )

    def attr(self, key: str, default: Any = None) -> Any:
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def attrs_dict(self) -> Dict[str, Any]:
        return dict(self.attrs)

    def describe(self) -> str:
        """Human-readable one-liner, in the style of the paper's Fig. 4."""
        if self.kind is IOKind.CONFIG_CHANGE:
            what = self.attr("description") or self.attr("key") or "config"
            return f"{self.router} config change ({what})"
        if self.kind is IOKind.HARDWARE_STATUS:
            link = self.attr("link", "?")
            status = self.attr("status", "?")
            return f"{self.router} link {link} {status}"
        action = self.action.value if self.action else "?"
        proto = self.protocol or "?"
        if self.kind is IOKind.ROUTE_RECEIVE:
            return (
                f"{self.router} recv {proto} {action} {self.prefix} "
                f"from {self.peer}"
            )
        if self.kind is IOKind.ROUTE_SEND:
            return f"{self.router} send {proto} {action} {self.prefix} to {self.peer}"
        if self.kind is IOKind.RIB_UPDATE:
            verb = "update" if self.action is RouteAction.ANNOUNCE else "remove"
            return f"{self.router} {verb} {self.prefix} in {proto} RIB"
        verb = "install" if self.action is RouteAction.ANNOUNCE else "remove"
        nh = self.attr("next_hop_router")
        via = f" via {nh}" if nh else ""
        return f"{self.router} {verb} {self.prefix}{via} in FIB"

    def to_record(self) -> Dict[str, Any]:
        """A flat dict for serialisation / log export."""
        return {
            "event_id": self.event_id,
            "router": self.router,
            "kind": self.kind.value,
            "timestamp": self.timestamp,
            "protocol": self.protocol,
            "prefix": str(self.prefix) if self.prefix else None,
            "action": self.action.value if self.action else None,
            "peer": self.peer,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "IOEvent":
        """Inverse of :meth:`to_record` (event_id preserved)."""
        prefix_text = record.get("prefix")
        action_text = record.get("action")
        return cls(
            event_id=int(record["event_id"]),
            router=str(record["router"]),
            kind=IOKind(record["kind"]),
            timestamp=float(record["timestamp"]),
            protocol=record.get("protocol"),
            prefix=Prefix.parse(prefix_text) if prefix_text else None,
            action=RouteAction(action_text) if action_text else None,
            peer=record.get("peer"),
            attrs=tuple(sorted((record.get("attrs") or {}).items())),
        )

    def __str__(self) -> str:
        return f"#{self.event_id}@{self.timestamp:.4f}s {self.describe()}"
