import random

import pytest

from oracles import random_space
from semitop.fileformat import (ParseError, load_topology, parse_topology,
                                serialize_topology)
from semitop.spaces import MissingEmptyOrUniverse

DOC = """\
# three points, one proper open pair
points: a b c

open:
open: a
open: b c
open: a b c
"""


def test_parse_basic():
    space = parse_topology(DOC)
    assert space.names == ("a", "b", "c")
    assert space.opens.members == (0b000, 0b001, 0b110, 0b111)


def test_parse_empty_open_is_empty_set():
    space = parse_topology("points: a\nopen:\nopen: a\n")
    assert space.opens.members == (0, 1)


@pytest.mark.parametrize("text,lineno,fragment", [
    ("points a b\n", 1, "expected 'points:'"),
    ("open: a\npoints: a\n", 1, "before the points line"),
    ("points: a\npoints: a\n", 2, "duplicate points line"),
    ("points:\n", 1, "no labels"),
    ("points: a a\n", 1, "duplicate point label 'a'"),
    ("points: a\nopen: z\n", 2, "unknown point label 'z'"),
    ("points: a\nclosed: a\n", 2, "unknown directive 'closed'"),
    ("# nothing\n", 1, "no points line"),
    ("points: a,b c\n", 1, "bad point label 'a,b'"),
    ("# labels\npoints: a: b\n", 2, "bad point label 'a:'"),
])
def test_parse_errors(text, lineno, fragment):
    with pytest.raises(ParseError) as info:
        parse_topology(text, source="doc.txt")
    assert info.value.line == lineno
    assert info.value.source == "doc.txt"
    assert str(info.value).startswith(f"doc.txt:{lineno}: ")
    assert fragment in str(info.value)


def test_parse_still_validates_topology():
    with pytest.raises(MissingEmptyOrUniverse):
        parse_topology("points: a b\nopen:\nopen: a\n")


def test_round_trip_enumerated(spaces3):
    for space in spaces3:
        again = parse_topology(serialize_topology(space))
        assert again.names == space.names
        assert again.opens == space.opens
        assert again.min_nbhd == space.min_nbhd


def test_round_trip_random():
    rng = random.Random(92)
    for _ in range(25):
        space = random_space(rng, rng.randrange(2, 8))
        again = parse_topology(serialize_topology(space))
        assert again.opens == space.opens


def test_load_topology_names_the_source(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text(DOC, encoding="utf-8")
    space = load_topology(path)
    assert space.name == str(path)
    assert space.opens.members == (0b000, 0b001, 0b110, 0b111)


def test_load_topology_error_carries_path(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("points: a\nopen: q\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_topology(path)
    assert str(path) in str(info.value)


def test_load_topology_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("points: a b\nopen: \xe9\n".encode("latin-1"))
    with pytest.raises(ParseError) as info:
        load_topology(path)
    assert info.value.line == 2
    assert str(info.value) == f"{path}:2: byte 0xe9 is not UTF-8"
