import dataclasses
import pickle
import random
from functools import reduce
from itertools import product
from math import factorial
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semitop.spaces as spaces_mod
from oracles import (closure_oracle, interior_oracle, naive_is_topology,
                     random_space, relabeled, sierpinski_copies)
from semitop.catalog import catalog_entries, enumerate_topologies, named_space
from semitop.lattice import decode, lowest, saturated
from semitop.spaces import (CANONICAL_BUDGET, DuplicateLabel, EmptyCarrier,
                            FiniteSpace, MissingEmptyOrUniverse, NotAPreorder,
                            NotClosedUnderIntersection, NotClosedUnderUnion,
                            SetFamily, SpaceError, TooManyPoints, UnknownLabel,
                            build_space, iter_points, space_from_masks,
                            space_from_table, submasks)


def test_iter_points_ascending():
    assert list(iter_points(0b101101)) == [0, 2, 3, 5]
    assert list(iter_points(0)) == []


def test_submasks_complete_and_descending():
    got = list(submasks(0b101))
    assert got == [0b101, 0b100, 0b001, 0b000]
    assert list(submasks(0)) == [0]


def test_set_family_dedups_and_sorts():
    fam = SetFamily([3, 0, 3, 1])
    assert fam.members == (0, 1, 3)
    assert 1 in fam and 2 not in fam
    assert len(fam) == 3
    assert fam == SetFamily((1, 0, 3))
    assert hash(fam) == hash(SetFamily((0, 1, 3)))


def test_set_family_membership_out_of_range():
    fam = SetFamily([0, 1, 3])
    assert -1 not in fam and -8 not in fam
    assert 4 not in fam and 1 << 40 not in fam
    with pytest.raises(ValueError):
        SetFamily([0, -1])


def test_set_family_view_iterates_ascending():
    masks = [37, 2, 1 << 12, 0, 255, 9, 2]
    fam = SetFamily(masks)
    assert list(fam) == sorted(set(masks))
    assert fam.members == tuple(sorted(set(masks)))
    assert len(fam) == 6
    assert SetFamily.from_bits(fam.bits) == fam


def test_set_family_eq_hash_consistent():
    a = SetFamily(range(0, 64, 3))
    b = SetFamily(reversed(range(0, 64, 3)))
    assert a == b and hash(a) == hash(b)
    assert list(a) == list(b)  # decoding one side leaves equality alone
    assert a != SetFamily(range(0, 64, 4))
    assert a != a.members
    assert len({a, b, SetFamily([])}) == 2


def test_set_family_pickle_round_trip():
    fam = SetFamily([0, 5, 6, 1 << 15])
    fam.members  # decoded or not, the family round-trips
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam and hash(back) == hash(fam)
    assert back.members == (0, 5, 6, 1 << 15)
    space = space_from_masks("abc", [0, 1, 6, 7], name="e1")
    again = pickle.loads(pickle.dumps(space))
    assert again == space and again.opens.members == (0, 1, 6, 7)


def test_validation_errors():
    with pytest.raises(EmptyCarrier):
        space_from_masks([], [0])
    with pytest.raises(DuplicateLabel):
        space_from_masks(["a", "a"], [0, 3])
    with pytest.raises(TooManyPoints):
        space_from_masks([f"p{i}" for i in range(21)], [0, (1 << 21) - 1])
    with pytest.raises(MissingEmptyOrUniverse):
        space_from_masks("ab", [0, 1])
    with pytest.raises(ValueError):
        space_from_masks(["a", "b c"], [0, 3])
    with pytest.raises(ValueError):
        space_from_masks("ab", [0, 5, 3])


def test_closure_witness_union():
    with pytest.raises(NotClosedUnderUnion) as info:
        space_from_masks("abc", [0b000, 0b001, 0b010, 0b111])
    assert info.value.pair == (0b001, 0b010)
    assert "{a} and {b}" in str(info.value)


def test_closure_witness_intersection():
    with pytest.raises(NotClosedUnderIntersection) as info:
        space_from_masks("abc", [0b000, 0b011, 0b101, 0b111])
    assert info.value.pair == (0b011, 0b101)


def test_closure_witness_large_family_screen():
    # big enough that the saturated-set screen runs first
    masks = [m for m in range(1 << 5) if m != 0b00011]
    with pytest.raises(NotClosedUnderUnion) as info:
        space_from_masks("abcde", masks)
    a, b = info.value.pair
    assert (a | b) == 0b00011


def test_build_space_by_labels():
    space = build_space("abc", [[], ["a"], ["b", "c"], ["a", "b", "c"]])
    assert space.opens.members == (0b000, 0b001, 0b110, 0b111)
    assert space.mask_of(["b", "c"]) == 0b110


def test_interior_closure_against_oracle_exhaustive(spaces3):
    for space in spaces3:
        for a in range(1 << space.n):
            assert space.interior(a) == interior_oracle(space, a)
            assert space.closure(a) == closure_oracle(space, a)


def test_interior_closure_against_oracle_random():
    rng = random.Random(411)
    for _ in range(30):
        space = random_space(rng, rng.randrange(4, 9))
        for _ in range(40):
            a = rng.randrange(1 << space.n)
            assert space.interior(a) == interior_oracle(space, a)
            assert space.closure(a) == closure_oracle(space, a)


def test_operator_algebra(spaces3):
    for space in spaces3:
        full = space.full
        for a in range(1 << space.n):
            i = space.interior(a)
            c = space.closure(a)
            assert i & ~a == 0 and a & ~c == 0
            assert space.interior(i) == i
            assert space.closure(c) == c
            assert space.is_open(i) and space.is_closed(c)
            assert space.closure(a) == full ^ space.interior(full ^ a)


def test_single_set_predicates_match_the_families(upto4_and_random):
    """`is_open` and `is_closed` read the table; the families are built
    from it, or for an enumerated space carried from the relabeling."""
    for space in upto4_and_random:
        opens, closed = space.opens, space.closed_family()
        for a in range(1 << space.n):
            assert space.is_open(a) == (a in opens)
            assert space.is_closed(a) == (a in closed)


def test_a_space_is_its_table():
    """The labels and the table are the only fields: a space built from
    its opens and one built from its table compare and hash equal."""
    assert [f.name for f in dataclasses.fields(FiniteSpace)] == \
        ["names", "min_nbhd", "name"]
    from_masks = space_from_masks("abc", [0, 1, 6, 7], name="e1")
    from_table = space_from_table("abc", [0b001, 0b110, 0b110])
    assert from_masks == from_table and hash(from_masks) == hash(from_table)
    assert from_masks.opens == from_table.opens
    assert from_masks != space_from_table("abd", from_table.min_nbhd)


@pytest.fixture
def saturated_calls(monkeypatch):
    """The point count of each `spaces.saturated` call the test makes."""
    calls = []
    monkeypatch.setattr(spaces_mod, "saturated",
                        lambda table, n: calls.append(n) or saturated(table, n))
    return calls


@pytest.mark.parametrize("sid", ["discrete:18", "khalimsky:-9:10", "indiscrete:20"])
def test_table_route_builds_no_family(saturated_calls, sid):
    """A space from its table holds no opens until they are read; then
    they are the sets saturated under the table, built once."""
    space = named_space(sid)
    sub = space.subspace(space.full >> 1)
    assert "opens" not in vars(space) and "opens" not in vars(sub)
    assert saturated_calls == []
    assert space.opens == SetFamily.from_bits(saturated(space.min_nbhd, space.n))
    assert space.opens is space.opens and saturated_calls == [space.n]


def test_masks_route_saturates_once(saturated_calls):
    """`space_from_masks` validates by building the saturated family,
    which the space keeps as its opens."""
    space = space_from_masks("abcd", [0, 1, 2, 3, 7, 15])
    assert space.opens.members == (0, 1, 2, 3, 7, 15)
    assert saturated_calls == [4]


def test_minimal_neighborhood(spaces3):
    for space in spaces3:
        for x in range(space.n):
            m = space.minimal_neighborhood(x)
            assert space.is_open(m) and m >> x & 1
            direct = space.full
            for o in space.opens:
                if o >> x & 1:
                    direct &= o
            assert m == direct


def test_validation_accepts_exactly_the_topologies_n4():
    """Every family on 4 points holding the empty set and the carrier:
    `space_from_masks` accepts it iff the axioms hold, and reads each U_x
    (the lowest member holding x) as the meet of the opens holding x."""
    accepted = 0
    for middle in range(1 << 14):
        bits = 1 | middle << 1 | 1 << 15
        members = decode(bits)
        try:
            space = space_from_masks("abcd", SetFamily.from_bits(bits))
        except (NotClosedUnderUnion, NotClosedUnderIntersection):
            assert not naive_is_topology(members, 4)
            continue
        assert naive_is_topology(members, 4)
        assert space.min_nbhd == tuple(
            reduce(and_, (m for m in members if m >> x & 1)) for x in range(4))
        accepted += 1
    assert accepted == 355


def test_table_validation_accepts_exactly_the_preorders_n3():
    """Every table of three masks on 3 points: `space_from_table` accepts
    it iff the relation "y in U_x" is reflexive and transitive (29 such
    preorders), and then holds it as the table read off its opens; a
    refused table names a point whose U_x breaks the relation."""
    accepted = 0
    for table in product(range(8), repeat=3):
        rel = {(x, y) for x in range(3) for y in range(3) if table[x] >> y & 1}
        reflexive = all((x, x) in rel for x in range(3))
        transitive = all((x, z) in rel for x, y in rel for w, z in rel if y == w)
        try:
            space = space_from_table("abc", table)
        except NotAPreorder as error:
            assert not (reflexive and transitive)
            assert isinstance(error, SpaceError)
            x = error.point
            assert f"U_{'abc'[x]}" in str(error)
            assert (x, x) not in rel or any((y, z) in rel and (x, z) not in rel
                                            for y in range(3) if (x, y) in rel
                                            for z in range(3))
            continue
        assert reflexive and transitive
        bits = saturated(table, 3)
        assert space.opens.bits == bits and naive_is_topology(decode(bits), 3)
        assert space.min_nbhd == tuple(lowest(bits, 3)) == table
        assert space == space_from_masks("abc", space.opens)
        accepted += 1
    assert accepted == 29


def test_table_refuses_labels_and_sizes_as_masks_do():
    """Bad labels and a 21-point carrier raise what `space_from_masks`
    raises for them; a table of the wrong length or with a mask out of
    range is a `ValueError`, as an out-of-range open is."""
    for names in ([], ["a", "a"], ["a", "b c"], ["a", ""], ["a", 3],
                  [f"p{i}" for i in range(21)]):
        full = (1 << len(names)) - 1
        with pytest.raises((SpaceError, ValueError)) as by_masks:
            space_from_masks(names, [0, full])
        with pytest.raises(type(by_masks.value)) as by_table:
            space_from_table(names, [full] * len(names))
        assert type(by_table.value) is type(by_masks.value)
        assert str(by_table.value) == str(by_masks.value)
    for table in ([3], [3, 3, 3], [3, 4], [3, -1]):
        with pytest.raises(ValueError):
            space_from_table("ab", table)


def test_closed_family_is_complements(spaces3):
    for space in spaces3:
        comp = SetFamily(space.full ^ o for o in space.opens)
        assert space.closed_family() == comp


def test_subspace_relative_opens(e3a):
    sub = e3a.subspace(e3a.mask_of("ac"))
    assert sub.names == ("a", "c")
    assert sub.opens.members == (0b00, 0b01, 0b11)
    with pytest.raises(EmptyCarrier):
        e3a.subspace(0)


def test_subspace_matches_trace_oracle(spaces3):
    rng = random.Random(7)
    for space in spaces3:
        s = rng.randrange(1, 1 << space.n)
        sub = space.subspace(s)
        bits = list(iter_points(s))
        traces = set()
        for o in space.opens:
            t = 0
            for j, x in enumerate(bits):
                if o >> x & 1:
                    t |= 1 << j
            traces.add(t)
        assert set(sub.opens.members) == traces


def test_render_and_labels(e1):
    assert e1.render(0) == "∅"
    assert e1.render(e1.full) == "X"
    assert e1.render(0b101) == "{a,c}"
    assert e1.labels_of(0b110) == ("b", "c")
    assert e1.render_family([0, 0b110, 0b111]) == "{∅,{b,c},X}"
    with pytest.raises(UnknownLabel):
        e1.mask_of(["z"])


def test_check_mask_range(e1):
    with pytest.raises(ValueError):
        e1.interior(1 << 3)
    for query in (e1.is_open, e1.is_closed, e1.closure):
        for mask in (-1, 1 << e1.n, (1 << e1.n + 1) - 1):
            with pytest.raises(ValueError, match=f"^mask {mask} out of range"):
                query(mask)


def test_describe(e1):
    assert e1.describe() == "e1"
    anon = space_from_masks("ab", [0, 1, 3])
    assert anon.describe() == "points={a,b} opens={∅,{a},X}"


def test_canonical_forms_count_the_homeomorphism_classes():
    """The labeled topologies on 1..5 points fall into 1, 3, 9, 33 and
    139 classes up to homeomorphism (OEIS A001930).  The forms are
    computed here, not read off the spaces, which carry their
    generator's."""
    forms = [{spaces_mod._canonical_form(space.min_nbhd)
              for space in enumerate_topologies(n)} for n in range(1, 6)]
    assert [len(f) for f in forms] == [1, 3, 9, 33, 139]
    assert not any(None in f for f in forms)


_CATALOG = [entry.space for entry in catalog_entries()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_form_ignores_the_labels(data):
    """A random relabeling of a random space on up to 9 points, or of a
    catalog space, has the same canonical form."""
    if data.draw(st.booleans(), label="catalog"):
        space = data.draw(st.sampled_from(_CATALOG))
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        space = random_space(rng, data.draw(st.integers(1, 9), label="n"))
    perm = data.draw(st.permutations(range(space.n)), label="perm")
    assert relabeled(space, perm).canonical == space.canonical


@pytest.mark.parametrize("sid", ["discrete:11", "indiscrete:11",
                                 "khalimsky:-9:10"])
def test_wide_spaces_stay_within_the_ordering_budget(sid):
    """Eleven twins in one cell leave one ordering, and a window's
    unequal ends split every cell."""
    space = named_space(sid)
    perm = list(range(space.n))
    random.Random(sid).shuffle(perm)
    assert space.canonical is not None
    assert relabeled(space, perm).canonical == space.canonical


def test_an_over_budget_space_has_no_form_and_tries_no_ordering(monkeypatch):
    """Five disjoint Sierpinski spaces leave 5!*5! orderings: the budget
    refuses them before any is tried."""
    assert factorial(5) ** 2 > CANONICAL_BUDGET

    def refused(labels):
        raise AssertionError("an ordering was tried")

    monkeypatch.setattr(spaces_mod, "_arrangements", refused)
    assert sierpinski_copies(5).canonical is None
