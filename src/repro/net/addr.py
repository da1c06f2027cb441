"""IPv4 addressing primitives.

Addresses are plain 32-bit integers; :class:`Prefix` is an immutable
(address, length) pair normalised so that host bits are zero.  A
binary :class:`PrefixTrie` provides longest-prefix-match lookups for
FIBs and header-space computations.

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

    def bit(self, index: int) -> int:
        """The ``index``-th bit (0 = most significant) of the address."""
        if not 0 <= index < IPV4_BITS:
            raise AddressError(f"bit index out of range: {index}")
        return (self.address >> (IPV4_BITS - 1 - index)) & 1

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


class _TrieNode:
    """Internal node of :class:`PrefixTrie`."""

    __slots__ = ("value", "has_value", "children")

    def __init__(self) -> None:
        self.value: Optional[object] = None
        self.has_value = False
        self.children: List[Optional["_TrieNode"]] = [None, None]


class PrefixTrie:
    """A binary trie mapping :class:`Prefix` keys to values.

    Supports exact insert/delete/lookup plus longest-prefix-match,
    which is what a FIB needs.  Iteration yields entries in
    (address, length) order.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self.get(prefix) is not None or self._has_exact(prefix)

    def _has_exact(self, prefix: Prefix) -> bool:
        node = self._walk(prefix)
        return node is not None and node.has_value

    def _walk(self, prefix: Prefix) -> Optional[_TrieNode]:
        node: Optional[_TrieNode] = self._root
        for index in range(prefix.length):
            if node is None:
                return None
            node = node.children[prefix.bit(index)]
        return node

    def insert(self, prefix: Prefix, value: V) -> bool:
        """Insert or replace the value for ``prefix``; returns True if
        the key was new (mirrors :meth:`delete`)."""
        node = self._root
        for index in range(prefix.length):
            bit = prefix.bit(index)
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        added = not node.has_value
        if added:
            self._size += 1
        node.value = value
        node.has_value = True
        return added

    def get(self, prefix: Prefix) -> Optional[V]:
        """Exact-match lookup; None when absent."""
        node = self._walk(prefix)
        if node is None or not node.has_value:
            return None
        return node.value  # type: ignore[return-value]

    def delete(self, prefix: Prefix) -> bool:
        """Remove ``prefix``; returns True if it was present."""
        path: List[Tuple[_TrieNode, int]] = []
        node = self._root
        for index in range(prefix.length):
            bit = prefix.bit(index)
            child = node.children[bit]
            if child is None:
                return False
            path.append((node, bit))
            node = child
        if not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._size -= 1
        # Prune empty leaf chains so memory does not grow monotonically
        # under churn workloads.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            if child is None:
                break
            if child.has_value or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return True

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix-match for a 32-bit ``address``.

        Returns the (prefix, value) of the most specific covering
        entry, or None when no entry covers the address.
        """
        node: Optional[_TrieNode] = self._root
        best: Optional[Tuple[int, object]] = None
        depth = 0
        while node is not None:
            if node.has_value:
                best = (depth, node.value)
            if depth == IPV4_BITS:
                break
            bit = (address >> (IPV4_BITS - 1 - depth)) & 1
            node = node.children[bit]
            depth += 1
        if best is None:
            return None
        length, value = best
        return Prefix(address, length), value  # type: ignore[return-value]

    def longest_match_prefix(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """Most specific entry that *covers* ``prefix`` entirely."""
        node: Optional[_TrieNode] = self._root
        best: Optional[Tuple[int, object]] = None
        for depth in range(prefix.length + 1):
            if node is None:
                break
            if node.has_value:
                best = (depth, node.value)
            if depth == prefix.length:
                break
            node = node.children[prefix.bit(depth)]
        if best is None:
            return None
        length, value = best
        return Prefix(prefix.address, length), value  # type: ignore[return-value]

    def covered_by(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """All entries equal to or more specific than ``prefix``."""
        node = self._walk(prefix)
        if node is None:
            return
        yield from self._iterate(node, prefix.address, prefix.length)

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """All (prefix, value) entries in (address, length) order."""
        yield from self._iterate(self._root, 0, 0)

    def _iterate(
        self, node: _TrieNode, address: int, depth: int
    ) -> Iterator[Tuple[Prefix, V]]:
        if node.has_value:
            yield Prefix(address, depth), node.value  # type: ignore[misc]
        if depth == IPV4_BITS:
            return
        low, high = node.children
        if low is not None:
            yield from self._iterate(low, address, depth + 1)
        if high is not None:
            bit_value = 1 << (IPV4_BITS - 1 - depth)
            yield from self._iterate(high, address | bit_value, depth + 1)

    def to_dict(self) -> Dict[Prefix, V]:
        return dict(self.items())


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
