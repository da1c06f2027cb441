"""Unit and property tests for repro.net.addr."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import (
    AddressError,
    IPV4_MAX,
    Prefix,
    PrefixTrie,
    format_ip,
    parse_ip,
    summarize,
)


class TestParseFormat:
    def test_parse_simple(self):
        assert parse_ip("10.0.0.1") == (10 << 24) + 1

    def test_parse_zero(self):
        assert parse_ip("0.0.0.0") == 0

    def test_parse_max(self):
        assert parse_ip("255.255.255.255") == IPV4_MAX

    def test_format_roundtrip(self):
        assert format_ip(parse_ip("192.168.13.37")) == "192.168.13.37"

    def test_parse_rejects_three_octets(self):
        with pytest.raises(AddressError):
            parse_ip("10.0.0")

    def test_parse_rejects_large_octet(self):
        with pytest.raises(AddressError):
            parse_ip("10.0.0.256")

    def test_parse_rejects_garbage(self):
        with pytest.raises(AddressError):
            parse_ip("10.0.x.1")

    def test_format_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            format_ip(IPV4_MAX + 1)

    @given(st.integers(min_value=0, max_value=IPV4_MAX))
    def test_roundtrip_property(self, value):
        assert parse_ip(format_ip(value)) == value


class TestPrefix:
    def test_parse_with_length(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.length == 8
        assert prefix.address == 10 << 24

    def test_bare_address_is_host_route(self):
        assert Prefix.parse("10.0.0.1").length == 32

    def test_host_bits_cleared(self):
        prefix = Prefix(parse_ip("10.1.2.3"), 8)
        assert prefix.address == 10 << 24

    def test_immutable(self):
        prefix = Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            prefix.length = 9

    def test_invalid_length(self):
        with pytest.raises(AddressError):
            Prefix(0, 33)

    def test_contains_more_specific(self):
        assert Prefix.parse("10.0.0.0/8").contains(Prefix.parse("10.1.0.0/16"))

    def test_contains_self(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(prefix)

    def test_not_contains_shorter(self):
        assert not Prefix.parse("10.0.0.0/16").contains(Prefix.parse("10.0.0.0/8"))

    def test_not_contains_disjoint(self):
        assert not Prefix.parse("10.0.0.0/8").contains(Prefix.parse("11.0.0.0/8"))

    def test_contains_address(self):
        assert Prefix.parse("10.0.0.0/8").contains_address(parse_ip("10.200.1.1"))
        assert not Prefix.parse("10.0.0.0/8").contains_address(parse_ip("11.0.0.1"))

    def test_overlaps_symmetric(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.1.0.0/16")
        assert a.overlaps(b) and b.overlaps(a)

    def test_supernet(self):
        assert Prefix.parse("10.0.0.0/9").supernet() == Prefix.parse("10.0.0.0/8")

    def test_default_has_no_supernet(self):
        with pytest.raises(AddressError):
            Prefix.default().supernet()

    def test_subnets(self):
        low, high = Prefix.parse("10.0.0.0/8").subnets()
        assert low == Prefix.parse("10.0.0.0/9")
        assert high == Prefix.parse("10.128.0.0/9")

    def test_host_route_has_no_subnets(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.1/32").subnets()

    def test_first_last_addresses(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert prefix.first_address() == parse_ip("10.0.0.0")
        assert prefix.last_address() == parse_ip("10.0.0.3")

    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/24").num_addresses() == 256

    def test_default_route_spans_everything(self):
        default = Prefix.default()
        assert default.first_address() == 0
        assert default.last_address() == IPV4_MAX

    def test_ordering_stable(self):
        prefixes = [
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("9.0.0.0/8"),
        ]
        ordered = sorted(prefixes)
        assert [str(p) for p in ordered] == [
            "9.0.0.0/8",
            "10.0.0.0/8",
            "10.0.0.0/16",
        ]

    def test_hashable_and_equal(self):
        assert len({Prefix.parse("10.0.0.0/8"), Prefix(10 << 24, 8)}) == 1

    def test_str(self):
        assert str(Prefix.parse("203.0.113.0/24")) == "203.0.113.0/24"

    @given(
        st.integers(min_value=0, max_value=IPV4_MAX),
        st.integers(min_value=0, max_value=32),
    )
    def test_subnets_partition_parent(self, address, length):
        prefix = Prefix(address, length)
        if length == 32:
            return
        low, high = prefix.subnets()
        assert prefix.contains(low) and prefix.contains(high)
        assert low.num_addresses() + high.num_addresses() == prefix.num_addresses()
        assert low.last_address() + 1 == high.first_address()


class TestPrefixTrie:
    def test_insert_get(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        assert trie.get(Prefix.parse("10.0.0.0/8")) == "a"

    def test_get_missing(self):
        assert PrefixTrie().get(Prefix.parse("10.0.0.0/8")) is None

    def test_insert_replaces(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        trie.insert(Prefix.parse("10.0.0.0/8"), "b")
        assert trie.get(Prefix.parse("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_insert_reports_whether_the_key_was_new(self):
        trie = PrefixTrie()
        prefix = Prefix.parse("10.0.0.0/8")
        assert trie.insert(prefix, "a") is True
        assert trie.insert(prefix, "b") is False
        assert trie.delete(prefix) is True
        assert trie.insert(prefix, "c") is True

    def test_delete(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        assert trie.delete(Prefix.parse("10.0.0.0/8"))
        assert trie.get(Prefix.parse("10.0.0.0/8")) is None
        assert len(trie) == 0

    def test_delete_missing_returns_false(self):
        assert not PrefixTrie().delete(Prefix.parse("10.0.0.0/8"))

    def test_delete_keeps_more_specific(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        trie.insert(Prefix.parse("10.1.0.0/16"), "b")
        trie.delete(Prefix.parse("10.0.0.0/8"))
        assert trie.get(Prefix.parse("10.1.0.0/16")) == "b"

    def test_longest_match_picks_most_specific(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "short")
        trie.insert(Prefix.parse("10.1.0.0/16"), "long")
        match = trie.longest_match(parse_ip("10.1.2.3"))
        assert match is not None
        assert match[1] == "long"
        assert match[0] == Prefix(parse_ip("10.1.2.3"), 16)

    def test_longest_match_falls_back(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "short")
        trie.insert(Prefix.parse("10.1.0.0/16"), "long")
        match = trie.longest_match(parse_ip("10.2.0.1"))
        assert match is not None and match[1] == "short"

    def test_longest_match_none(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        assert trie.longest_match(parse_ip("11.0.0.1")) is None

    def test_default_route_matches_everything(self):
        trie = PrefixTrie()
        trie.insert(Prefix.default(), "default")
        assert trie.longest_match(0)[1] == "default"
        assert trie.longest_match(IPV4_MAX)[1] == "default"

    def test_longest_match_prefix(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        match = trie.longest_match_prefix(Prefix.parse("10.1.0.0/16"))
        assert match is not None and match[1] == "a"

    def test_covered_by(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "a")
        trie.insert(Prefix.parse("10.1.0.0/16"), "b")
        trie.insert(Prefix.parse("11.0.0.0/8"), "c")
        covered = dict(trie.covered_by(Prefix.parse("10.0.0.0/8")))
        assert set(covered.values()) == {"a", "b"}

    def test_items_sorted(self):
        trie = PrefixTrie()
        for text in ("11.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"):
            trie.insert(Prefix.parse(text), text)
        keys = [str(p) for p, _ in trie.items()]
        assert keys == ["10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"]

    @given(
        st.lists(
            st.integers(min_value=0, max_value=IPV4_MAX), min_size=1, max_size=3
        ),
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=32),
            ),
            max_size=40,
        ),
    )
    def test_trie_matches_dict_semantics(self, pool, ops):
        """Interleaved insert / re-insert / delete over lengths 0–32 on a
        few shared addresses, so one table holds many nested lengths
        and lengths come and go; after every step the table must agree
        with a plain dict on every read it offers."""
        trie = PrefixTrie()
        model = {}
        for step, (insert, which, length) in enumerate(ops):
            prefix = Prefix(pool[which % len(pool)], length)
            if insert:
                assert trie.insert(prefix, step) is (prefix not in model)
                model[prefix] = step
            else:
                assert trie.delete(prefix) is (prefix in model)
                model.pop(prefix, None)
            _assert_agrees_with_model(trie, model, pool, prefix)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=IPV4_MAX),
                st.integers(min_value=0, max_value=32),
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=IPV4_MAX),
    )
    def test_longest_match_agrees_with_linear_scan(self, raw, probe):
        trie = PrefixTrie()
        reference = {}
        for index, (address, length) in enumerate(raw):
            prefix = Prefix(address, length)
            trie.insert(prefix, index)
            reference[prefix] = index
        # A probe under every inserted prefix too, not only a random one.
        for address in [probe] + [address for address, _length in raw]:
            _assert_agrees_with_model(trie, reference, [address], None)


def _assert_agrees_with_model(trie, model, addresses, touched):
    """Every read of ``trie`` equals a linear scan of the dict ``model``
    (prefix -> value): size, membership, exact gets, both longest
    matches and ``covered_by`` at every length of each address, and the
    (address, length) iteration order."""
    in_order = sorted(model.items(), key=lambda item: item[0].key())
    assert len(trie) == len(model)
    assert list(trie.items()) == in_order
    assert trie.to_dict() == model
    if touched is not None:
        assert (touched in trie) is (touched in model)
        assert trie.get(touched) == model.get(touched)
    for prefix, value in model.items():
        assert prefix in trie and trie.get(prefix) == value
    for address in addresses:
        covering = [
            item for item in in_order if item[0].contains_address(address)
        ]
        expected = max(covering, key=lambda item: item[0].length, default=None)
        assert trie.longest_match(address) == expected
        for length in range(33):
            query = Prefix(address, length)
            covers = [item for item in covering if item[0].contains(query)]
            assert trie.longest_match_prefix(query) == max(
                covers, key=lambda item: item[0].length, default=None
            )
            assert list(trie.covered_by(query)) == [
                item for item in in_order if query.contains(item[0])
            ]


class TestSummarize:
    def test_removes_covered(self):
        result = summarize(
            [Prefix.parse("10.0.0.0/8"), Prefix.parse("10.1.0.0/16")]
        )
        assert result == [Prefix.parse("10.0.0.0/8")]

    def test_merges_siblings(self):
        result = summarize(
            [Prefix.parse("10.0.0.0/9"), Prefix.parse("10.128.0.0/9")]
        )
        assert result == [Prefix.parse("10.0.0.0/8")]

    def test_keeps_disjoint(self):
        prefixes = [Prefix.parse("10.0.0.0/8"), Prefix.parse("12.0.0.0/8")]
        assert summarize(prefixes) == sorted(prefixes)

    def test_recursive_merge(self):
        quarters = [
            Prefix.parse("10.0.0.0/10"),
            Prefix.parse("10.64.0.0/10"),
            Prefix.parse("10.128.0.0/10"),
            Prefix.parse("10.192.0.0/10"),
        ]
        assert summarize(quarters) == [Prefix.parse("10.0.0.0/8")]

    def test_empty(self):
        assert summarize([]) == []

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=IPV4_MAX),
                st.integers(min_value=1, max_value=32),
            ),
            max_size=15,
        )
    )
    def test_summary_covers_same_space(self, raw):
        prefixes = [Prefix(a, l) for a, l in raw]
        summary = summarize(prefixes)
        # Every original address range is covered by some summary entry.
        for prefix in prefixes:
            assert any(s.contains(prefix) for s in summary)
        # No summary entry covers anything another does.
        for i, a in enumerate(summary):
            for j, b in enumerate(summary):
                if i != j:
                    assert not a.contains(b)
