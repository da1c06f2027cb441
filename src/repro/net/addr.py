"""IPv4 addressing primitives.

Addresses are plain 32-bit integers; :class:`Prefix` is an immutable
(address, length) pair normalised so that host bits are zero.
:class:`PrefixTrie` — one hash table per prefix length — provides
exact and longest-prefix-match lookups for FIBs and header-space
computations.

The standard library ``ipaddress`` module is deliberately avoided in
hot paths: FIB lookups and header-space intersection run millions of
times in the scaling benchmarks, and integer arithmetic on plain ints
is several times faster than ``IPv4Network`` objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar

IPV4_BITS = 32
IPV4_MAX = (1 << IPV4_BITS) - 1

V = TypeVar("V")


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def parse_ip(text: str) -> int:
    """Parse dotted-quad ``text`` into a 32-bit integer.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise AddressError(f"expected dotted quad, got {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Format a 32-bit integer as a dotted quad.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= IPV4_MAX:
        raise AddressError(f"address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _mask(length: int) -> int:
    """Network mask for a prefix of ``length`` bits."""
    if length == 0:
        return 0
    return (IPV4_MAX << (IPV4_BITS - length)) & IPV4_MAX


class Prefix:
    """An immutable IPv4 prefix (network address + length).

    Instances are normalised (host bits cleared), hashable, and
    totally ordered by (address, length) so RIB dumps are stable.
    """

    __slots__ = ("address", "length")

    def __init__(self, address: int, length: int):
        if not 0 <= length <= IPV4_BITS:
            raise AddressError(f"prefix length out of range: {length}")
        if not 0 <= address <= IPV4_MAX:
            raise AddressError(f"address out of range: {address}")
        object.__setattr__(self, "address", address & _mask(length))
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` (or a bare address as a /32)."""
        text = text.strip()
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            if not len_text.isdigit():
                raise AddressError(f"bad prefix length in {text!r}")
            return cls(parse_ip(addr_text), int(len_text))
        return cls(parse_ip(text), IPV4_BITS)

    @classmethod
    def default(cls) -> "Prefix":
        """The default route, 0.0.0.0/0."""
        return cls(0, 0)

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than self."""
        if other.length < self.length:
            return False
        return (other.address & _mask(self.length)) == self.address

    def contains_address(self, address: int) -> bool:
        """True if the 32-bit ``address`` falls inside this prefix."""
        return (address & _mask(self.length)) == self.address

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def supernet(self) -> "Prefix":
        """The immediately enclosing prefix (one bit shorter)."""
        if self.length == 0:
            raise AddressError("0.0.0.0/0 has no supernet")
        return Prefix(self.address, self.length - 1)

    def subnets(self) -> Tuple["Prefix", "Prefix"]:
        """The two immediate sub-prefixes (one bit longer)."""
        if self.length == IPV4_BITS:
            raise AddressError("/32 has no subnets")
        length = self.length + 1
        low = Prefix(self.address, length)
        high = Prefix(self.address | (1 << (IPV4_BITS - length)), length)
        return low, high

    def first_address(self) -> int:
        return self.address

    def last_address(self) -> int:
        return self.address | (IPV4_MAX >> self.length if self.length else IPV4_MAX)

    def num_addresses(self) -> int:
        return 1 << (IPV4_BITS - self.length)

    def key(self) -> Tuple[int, int]:
        """Sort/dedup key."""
        return (self.address, self.length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.address == other.address and self.length == other.length

    def __lt__(self, other: "Prefix") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "Prefix") -> bool:
        return self.key() <= other.key()

    def __gt__(self, other: "Prefix") -> bool:
        return self.key() > other.key()

    def __ge__(self, other: "Prefix") -> bool:
        return self.key() >= other.key()

    def __hash__(self) -> int:
        return hash((self.address, self.length))

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{format_ip(self.address)}/{self.length}"


class PrefixTrie:
    """A map from :class:`Prefix` keys to values with longest-prefix
    match, stored as one hash table per prefix length.

    ``insert`` / ``get`` / ``delete`` / ``in`` are one dict operation;
    ``longest_match`` probes only the lengths present, longest first
    (a FIB holds a handful, never more than 33).  Iteration yields
    entries in (address, length) order.
    """

    def __init__(self) -> None:
        #: length -> {network address -> (prefix, value)}
        self._tables: Dict[int, Dict[int, Tuple[Prefix, V]]] = {}
        #: (length, mask, table) of the lengths present, longest first.
        self._probes: List[Tuple[int, int, Dict[int, Tuple[Prefix, V]]]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        table = self._tables.get(prefix.length)
        return table is not None and prefix.address in table

    def _reindex(self) -> None:
        """Rebuild the probe list after a length appeared or emptied."""
        self._probes = [
            (length, _mask(length), self._tables[length])
            for length in sorted(self._tables, reverse=True)
        ]

    def insert(self, prefix: Prefix, value: V) -> bool:
        """Insert or replace the value for ``prefix``; returns True if
        the key was new (mirrors :meth:`delete`)."""
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reindex()
        added = prefix.address not in table
        table[prefix.address] = (prefix, value)
        if added:
            self._size += 1
        return added

    def get(self, prefix: Prefix) -> Optional[V]:
        """Exact-match lookup; None when absent."""
        table = self._tables.get(prefix.length)
        if table is None:
            return None
        entry = table.get(prefix.address)
        return None if entry is None else entry[1]

    def delete(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; returns True if it was present."""
        table = self._tables.get(prefix.length)
        if table is None or table.pop(prefix.address, None) is None:
            return False
        self._size -= 1
        if not table:
            # Empty lengths leave the probe list, so churn does not
            # leave a lookup paying for lengths long gone.
            del self._tables[prefix.length]
            self._reindex()
        return True

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix-match for a 32-bit ``address``.

        Returns the (prefix, value) of the most specific covering
        entry, or None when no entry covers the address.
        """
        for _length, mask, table in self._probes:
            entry = table.get(address & mask)
            if entry is not None:
                return entry
        return None

    def longest_match_prefix(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """Most specific entry that *covers* ``prefix`` entirely."""
        for length, mask, table in self._probes:
            if length <= prefix.length:
                entry = table.get(prefix.address & mask)
                if entry is not None:
                    return entry
        return None

    def covered_by(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """All entries equal to or more specific than ``prefix``, in
        (address, length) order."""
        mask = _mask(prefix.length)
        found = [
            (address, length, entry)
            for length, table in self._tables.items()
            if length >= prefix.length
            for address, entry in table.items()
            if address & mask == prefix.address
        ]
        # (address, length) is unique, so the sort never compares entries.
        found.sort()
        for _address, _length, entry in found:
            yield entry

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """All (prefix, value) entries in (address, length) order."""
        return self.covered_by(_EVERYTHING)

    def to_dict(self) -> Dict[Prefix, V]:
        return dict(self.items())


#: The prefix every entry is covered by.
_EVERYTHING = Prefix(0, 0)


def summarize(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Collapse ``prefixes`` into a minimal covering list.

    Removes prefixes covered by others and merges sibling pairs into
    their supernet, repeatedly, until a fixed point.  Used by the
    equivalence-class machinery to report compact class descriptions.
    """
    work = sorted(set(prefixes))
    # Drop entries covered by an earlier (shorter or equal) entry.
    kept: List[Prefix] = []
    for prefix in work:
        if kept and kept[-1].contains(prefix):
            continue
        kept = [p for p in kept if not prefix.contains(p)]
        kept.append(prefix)
    # Merge exact sibling pairs bottom-up until stable.
    merged = True
    while merged:
        merged = False
        by_key = {p.key(): p for p in kept}
        result: List[Prefix] = []
        consumed = set()
        for prefix in kept:
            if prefix.key() in consumed:
                continue
            if prefix.length > 0:
                parent = prefix.supernet()
                low, high = parent.subnets()
                sibling = high if prefix == low else low
                if sibling.key() in by_key and sibling.key() not in consumed:
                    consumed.add(prefix.key())
                    consumed.add(sibling.key())
                    result.append(parent)
                    merged = True
                    continue
            result.append(prefix)
        kept = sorted(set(result))
    return kept
