import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import spread_oracle, spread_where_oracle, union_closure_oracle
from semitop.lattice import (columns, decode, encode, everything, first,
                             fixed, lowest, saturated, spread, spread_where,
                             spreads, sub, sup, unions, within)


@st.composite
def _families(draw):
    """(n, family) with n in 1..9: empty, full, sparse or dense."""
    n = draw(st.integers(1, 9))
    size = 1 << n
    bits = draw(st.one_of(
        st.just(0), st.just(everything(n)),
        st.lists(st.integers(0, size - 1), max_size=6).map(encode),
        st.integers(0, everything(n))))
    return n, bits


@settings(max_examples=300, deadline=None)
@given(_families(), st.booleans())
def test_spreads_match_one_spread_per_point(case, upward):
    """spreads yields, in point order, the spread of the members holding
    (upward) or missing (downward) each point."""
    n, bits = case
    ones = everything(n)
    parts = [bits & has if upward else bits & (ones ^ has) for has in columns(n)]
    assert list(spreads(bits, n, upward)) == [spread(part, n, upward)
                                              for part in parts]


@st.composite
def _operators(draw):
    """(n, cols): n in 1..6 and n random columns, one per point."""
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.integers(0, everything(n)),
                            min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_operators())
def test_within_and_fixed_match_per_mask_definitions(case):
    """f(m) = {z : m in cols[z]}: `within` holds the m inside f(m) and
    `fixed` the m with f(m) = m; `within` reads a generator too."""
    n, cols = case
    values = [sum(1 << z for z, col in enumerate(cols) if col >> m & 1)
              for m in range(1 << n)]
    assert decode(within(cols, n)) == tuple(
        m for m, v in enumerate(values) if m & ~v == 0)
    assert within(iter(cols), n) == within(cols, n)
    assert decode(fixed(cols, n)) == tuple(
        m for m, v in enumerate(values) if m == v)


@settings(max_examples=200, deadline=None)
@given(_families())
def test_lowest_is_the_least_member_holding_each_point(case):
    n, bits = case
    members = decode(bits)
    assert lowest(bits, n) == [min((m for m in members if m >> x & 1), default=-1)
                               for x in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
def test_saturated_matches_its_per_mask_definition(case):
    """The masks A with hulls[x] inside A for every point x of A."""
    n, hulls = case
    assert decode(saturated(hulls, n)) == tuple(
        m for m in range(1 << n)
        if all(hulls[x] & ~m == 0 for x in range(n) if m >> x & 1))


def test_unions_match_union_closure_oracle():
    """Every family on n <= 3 points and a seeded sample on 4."""
    cases = [(n, bits) for n in (1, 2, 3) for bits in range(everything(n) + 1)]
    rng = random.Random(44)
    cases += [(4, rng.getrandbits(16) & rng.getrandbits(16))
              for _ in range(300)]
    for n, bits in cases:
        assert decode(unions(bits, n)) == union_closure_oracle(decode(bits))


def test_lattice_operations_match_their_definitions(upto=8):
    """On seeded families and operators for every n <= `upto` (CI calls
    this with 12): `columns` is the literal has table, one column per
    point; `spreads` is an iterator that yields, in point order, the
    spread of the members holding (upward) or missing (downward) each
    point; `spread`, `spread_where`, `within`, `sub` and `sup` match
    their per-mask definitions; and `first` is the lowest member, -1 for
    the empty family, also of a 2**20-bit family."""
    rng = random.Random(40)
    for n in range(1, upto + 1):
        size = 1 << n
        has = columns(n)
        assert has == tuple(encode(m for m in range(size) if m >> x & 1)
                            for x in range(n))
        families = (0, everything(n), rng.getrandbits(size),
                    encode(rng.sample(range(size), min(size, 3))))
        for bits, upward in ((b, u) for b in families for u in (True, False)):
            members = decode(bits)
            assert first(bits) == (members[0] if members else -1)
            assert decode(spread(bits, n, upward)) == spread_oracle(members, n, upward)
            parts = [[m for m in members if (m >> x & 1) == upward] for x in range(n)]
            out = spreads(bits, n, upward)
            assert iter(out) is out
            assert [decode(col) for col in out] == [
                spread_oracle(part, n, upward) for part in parts]
            cols = [rng.getrandbits(size) for _ in range(n)]
            assert decode(spread_where(bits, cols, n, upward)) == \
                spread_where_oracle(members, cols, n, upward)
        cols = [rng.getrandbits(size) for _ in range(n)]
        values = [sum(1 << z for z in range(n) if cols[z] >> m & 1)
                  for m in range(size)]
        assert decode(within(cols, n)) == tuple(
            m for m in range(size) if m & values[m] == m)
        s = rng.getrandbits(n)
        assert decode(sub(s, n)) == tuple(m for m in range(size) if m & s == m)
        assert decode(sup(s, n)) == tuple(m for m in range(size) if m & s == s)
    top = (1 << 20) - 1
    assert [first(everything(20) ^ everything(k)) for k in (0, 9, 20)] == [1, 512, -1]
    assert first(1 << top) == top
