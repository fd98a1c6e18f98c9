import dataclasses

import pytest

import semitop.catalog as catalog_mod
from oracles import naive_is_topology, naive_topology_families
from semitop.catalog import (EmptyWindow, OverBudget, UnknownId, _classes,
                             catalog_entries, catalog_id, discrete_space,
                             enumerate_topologies, indiscrete_space,
                             is_named_id, khalimsky_window, named_space)
from semitop.spaces import (SpaceError, TooManyPoints, _canonical_form,
                            space_from_masks)


def test_fixed_spaces():
    assert named_space("e1").opens.members == (0b000, 0b001, 0b110, 0b111)
    assert named_space("e33").opens.members == (0b000, 0b011, 0b111)
    assert named_space("e3a").opens.members == (0, 1, 2, 3, 7)
    assert named_space("sierpinski").opens.members == (0, 1, 3)


def test_parametric_ids():
    assert named_space("discrete:3") == discrete_space(3)
    assert named_space("indiscrete:4") == indiscrete_space(4)
    assert named_space("khalimsky:-1:1").opens.members == \
        khalimsky_window(-1, 1).space.opens.members


def test_unknown_ids(monkeypatch):
    """A bad id is refused before any space is built, among them each id
    whose numerals are not the ones its space's name prints: a sign,
    leading zeros, a non-ASCII digit, an underscore, a space or a
    negative zero.  So discrete:0021 is a bad id, not a 21-point space."""
    def refused(*args, **kwargs):
        raise AssertionError("a space was built")
    monkeypatch.setattr(catalog_mod, "space_from_table", refused)
    for bad in ("nope", "discrete", "discrete:x", "khalimsky:1", "e2",
                "discrete:+3", "discrete:03", "discrete:\u0663", "discrete: 3",
                "indiscrete:2_0", "khalimsky:-0:2", "khalimsky:+1:3",
                "khalimsky:1:03", "discrete:0021"):
        with pytest.raises(UnknownId, match="unknown space id"):
            named_space(bad)
    monkeypatch.undo()
    for other in ("nope", "discrete", "e2", "dir/discrete:2"):
        assert not is_named_id(other)
    # a family prefix is reserved whatever its parameters
    for sid in ("e1", "khalimsky:-3:3", "discrete:99", "discrete:x",
                "khalimsky:1"):
        assert is_named_id(sid)


def test_catalog_id_names_every_catalog_space():
    for entry in catalog_entries():
        assert catalog_id(entry.space) == entry.id
    for sid in ("discrete:18", "indiscrete:20", "khalimsky:-9:10"):
        assert catalog_id(named_space(sid)) == sid


def test_catalog_id_is_none_for_every_other_space():
    """By name and value: a renamed copy, the name e1 on other labels or
    other opens, an enumerated space, a file path and a malformed
    reserved name each give None, without raising."""
    e1 = named_space("e1")
    others = [dataclasses.replace(e1, name="copy"),
              space_from_masks("xyz", [0b000, 0b001, 0b110, 0b111], name="e1"),
              space_from_masks("abc", [0b000, 0b001, 0b111], name="e1"),
              next(enumerate_topologies(3)),
              dataclasses.replace(e1, name="./e1")]
    assert others[3].name == "enum:3:0"
    pair = named_space("discrete:2")
    others += [dataclasses.replace(pair, name=name)
               for name in ("khalimsky:x:y", "discrete:99", "discrete:+2")]
    for space in others:
        assert catalog_id(space) is None, space.name


def test_window_structure():
    w = khalimsky_window(-3, 3)
    space = w.space
    assert space.names == ("-3", "-2", "-1", "0", "1", "2", "3")
    zero = space.names.index("0")
    assert space.minimal_neighborhood(zero) == w.mask_of_ints([-1, 0, 1])
    for value in (-3, -1, 1, 3):
        assert space.is_open(w.mask_of_ints([value]))
    for value in (-2, 0, 2):
        assert space.is_closed(w.mask_of_ints([value]))
    assert not w.boundary_warning


def test_window_small_cases():
    assert khalimsky_window(-1, 1).space.opens.members == (0, 1, 4, 5, 7)
    single = khalimsky_window(3, 3)
    assert single.space.opens.members == (0, 1)
    assert not single.boundary_warning
    assert khalimsky_window(0, 0).boundary_warning


def test_window_boundary_flags():
    assert khalimsky_window(-2, 2).boundary_warning
    assert khalimsky_window(-3, 2).boundary_warning
    assert khalimsky_window(-2, 3).boundary_warning
    assert not khalimsky_window(-7, 7).boundary_warning


def test_window_errors():
    with pytest.raises(EmptyWindow):
        khalimsky_window(2, 1)
    with pytest.raises(TooManyPoints):
        khalimsky_window(-11, 11)


def test_naive_filter_counts():
    assert [len(naive_topology_families(n)) for n in (1, 2, 3)] == [1, 4, 29]
    with pytest.raises(ValueError):
        naive_topology_families(5)


def test_naive_filter_is_sound():
    for fam in naive_topology_families(3):
        assert naive_is_topology(fam, 3)


def test_enumeration_counts():
    assert [sum(1 for _ in enumerate_topologies(n)) for n in (1, 2, 3, 4)] \
        == [1, 4, 29, 355]
    with pytest.raises(TooManyPoints):
        next(iter(enumerate_topologies(6)))


def test_enumeration_count_n5():
    assert sum(1 for _ in enumerate_topologies(5)) == 6942


def test_class_counts_and_tables_are_canonical():
    """The class generator yields 1, 3, 9, 33, 139 and 718 classes on
    1..6 points (OEIS A001930), ascending, each table its own canonical
    form."""
    assert [len(_classes(n)) for n in range(1, 7)] == [1, 3, 9, 33, 139, 718]
    for n in range(1, 7):
        assert list(_classes(n)) == sorted(set(_classes(n)))
        assert all(_canonical_form(table) == table for table in _classes(n))


def test_class_generator_refuses_a_candidate_past_the_budget(tiny_budget):
    """A candidate without a canonical form stops the generator with a
    `SpaceError` naming n and the budget, not a failed sort."""
    with pytest.raises(OverBudget, match=r"^a 4-point class has no canonical form "
                       r"within CANONICAL_BUDGET = 1 orderings$"):
        _classes(4)
    assert issubclass(OverBudget, SpaceError)


def test_enumerated_spaces_carry_their_computed_form():
    """The class memo of `run_suite` keys an enumerated space on the form
    it carries and any other space on the form it computes: the two
    agree on every labeled topology with n <= 5."""
    for n in range(1, 6):
        for space in enumerate_topologies(n):
            assert vars(space)["canonical"] == _canonical_form(space.min_nbhd)


def test_enumerated_spaces_match_a_full_validation():
    """Each class's table is validated once and its relabelings are built
    without a check: every labeled topology on up to 5 points is the
    space `space_from_masks` builds from its opens, table included.  The
    opens are carried from the relabeling, a second source beside the
    table, and equality reads only the table, so they are compared too."""
    for n in range(1, 6):
        for space in enumerate_topologies(n):
            again = space_from_masks(space.names, space.opens)
            assert again == space and again.min_nbhd == space.min_nbhd
            assert again.opens == space.opens


def test_generator_matches_naive_filter_n4():
    from_table = [space.opens.members for space in enumerate_topologies(4)]
    from_filter = naive_topology_families(4)
    assert from_table == from_filter


def test_enumeration_is_deterministic_and_valid():
    first = [space.opens.members for space in enumerate_topologies(3)]
    second = [space.opens.members for space in enumerate_topologies(3)]
    assert first == second
    assert first == sorted(first)
    assert len(set(first)) == len(first)
    for space, members in zip(enumerate_topologies(3), first):
        assert naive_is_topology(members, 3)
        assert space.name == f"enum:3:{first.index(members)}"


@pytest.mark.parametrize("n", [4, 5])
def test_enumeration_order_is_the_opens_tuple_order(n):
    """The generator sorts family bitsets, not decoded tuples: the order
    and the `enum:n:i` names still follow the ascending opens tuples."""
    spaces = list(enumerate_topologies(n))
    members = [space.opens.members for space in spaces]
    assert all(a < b for a, b in zip(members, members[1:]))
    assert [space.name for space in spaces] == \
        [f"enum:{n}:{i}" for i in range(len(spaces))]


def test_catalog_entries():
    entries = catalog_entries()
    ids = [entry.id for entry in entries]
    assert len(ids) == len(set(ids))
    assert {"e1", "e33", "e3a", "sierpinski", "discrete:2",
            "khalimsky:-7:7"} <= set(ids)
    for entry in entries:
        assert entry.description
        assert is_named_id(entry.id)
        assert entry.space.name == entry.id
        assert entry.space == named_space(entry.id)
