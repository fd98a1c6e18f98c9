"""Finite topological spaces on bitmask subsets.

A space has points 0..n-1 carrying string labels; a subset of the
carrier is an int whose bit i is set iff point i belongs to it.
Families of subsets (the topology, semi-open sets, ...) are `SetFamily`
values: one bitset over the 2**n masks (see `lattice`), iterated in
ascending numeric order.  That ascending order is the canonical order
used everywhere for witness selection, rendering and reports.

Every finite topology is Alexandrov: each point has a smallest open
neighbourhood U_x, and a space is that table.  A space is built from
its opens (`space_from_masks`, which reads the table off the family) or
from the table itself (`space_from_table`, which checks it in O(n**2));
its opens, the sets saturated under the table, are built on first read.
Interior and closure, and with them the tests of one set for openness
and closedness, are O(n) mask loops:

    interior(A) = {x : min_nbhd[x] subset of A}
    closure(A)  = complement(interior(complement(A)))

The table also names the space up to homeomorphism: `canonical` is the
least relabeled table over the orderings that colour refinement leaves
(McKay, J. Algorithms 26, 1998), or None past `CANONICAL_BUDGET`.  An
enumerated space is built with its class's form already assigned.
"""

from dataclasses import dataclass, field
from itertools import product
from math import factorial, prod
from typing import Iterable, Iterator

from .lattice import decode, encode, iter_points, lowest, mirror, saturated

MAX_POINTS = 20

#: the most orderings `FiniteSpace.canonical` tries (7!); a space that
#: needs more has no canonical form
CANONICAL_BUDGET = 5040

_LABEL_FORBIDDEN = set(" \t\r\n,{}#:")


class SpaceError(Exception):
    """Base class for invalid space construction or lookup."""


class EmptyCarrier(SpaceError):
    pass


class DuplicateLabel(SpaceError):
    pass


class UnknownLabel(SpaceError):
    pass


class TooManyPoints(SpaceError):
    pass


class MissingEmptyOrUniverse(SpaceError):
    pass


class _NotClosed(SpaceError):
    """Family closure failure; carries the first offending pair of masks."""

    def __init__(self, message: str, pair: tuple):
        super().__init__(message)
        self.pair = pair


class NotClosedUnderUnion(_NotClosed):
    pass


class NotClosedUnderIntersection(_NotClosed):
    pass


class NotAPreorder(SpaceError):
    """A neighbourhood table that is not reflexive and transitive;
    carries the index of the point whose U_x breaks it."""

    def __init__(self, message: str, point: int):
        super().__init__(message)
        self.point = point


class lazy:
    """An attribute built by `build` on first read and stored in the
    instance dict, which shadows this non-data descriptor from then on,
    so an assigned value shadows it too.

    The standard library's cached property does the same, but on
    CPython 3.11 it takes a lock on every first read: about 4 % of the
    time of `laws --max-points 5`, where each space builds a fresh
    context.
    """

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.build(obj)
        return value


def submasks(mask: int) -> Iterator[int]:
    """Every subset of `mask`, descending in numeric value, ending at 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class SetFamily:
    """Family of subset masks held as one bitset (see `lattice`).

    `in` is a bit test and `len` a bit count; `members` is decoded on
    first use, ascending.
    """

    def __init__(self, masks: Iterable[int]):
        self.bits = encode(masks)

    @classmethod
    def from_bits(cls, bits: int) -> "SetFamily":
        fam = cls.__new__(cls)
        fam.bits = bits
        return fam

    @lazy
    def members(self) -> tuple:
        return decode(self.bits)

    def __contains__(self, mask) -> bool:
        try:
            return self.bits >> mask & 1 == 1
        except ValueError:  # negative shift count: a negative mask
            return False

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, SetFamily) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"SetFamily({list(self.members)!r})"


def _ranks(keys: list) -> list:
    """Each key replaced by its index among the sorted distinct keys."""
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _arrangements(labels: list) -> Iterator[tuple]:
    """The distinct orderings of a multiset of labels, lexicographically
    (the next-permutation step, which skips repeats)."""
    a = sorted(labels)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _is_twin(ups: tuple, x: int, y: int) -> bool:
    """Whether swapping points x and y maps the table onto itself."""
    pair = 1 << x | 1 << y
    for z, u in enumerate(ups):
        if u & pair and u & pair != pair:
            u ^= pair
        if u != ups[y if z == x else x if z == y else z]:
            return False
    return True


def _orderings(labels: list) -> int:
    """How many distinct orderings a multiset of labels has."""
    return factorial(len(labels)) // prod(factorial(labels.count(t))
                                          for t in set(labels))


def _code(spans: list, order: list) -> tuple:
    """The table relabeled so that point order[i] becomes point i."""
    bit = [0] * len(order)
    for i, x in enumerate(order):
        bit[x] = 1 << i
    return tuple([sum([bit[y] for y in spans[x]]) for x in order])


def _canonical_form(ups: tuple) -> tuple | None:
    """The least table, as a tuple of masks, over the orderings that keep
    the colour cells in order and each twin class in index order; None if
    there are more than `CANONICAL_BUDGET` of them.

    A point's colour starts as (|U_x|, |Cl{x}|).  While more than one
    ordering is left, it is refined by the multisets of colours over U_x
    and over Cl{x}, until no cell splits.  Colours and the stopping rule
    are invariant under relabeling, and permuting twins is an
    automorphism, so the least table is the same for homeomorphic spaces.
    """
    n = len(ups)
    points = range(n)
    spans = [[y for y in points if u >> y & 1] for u in ups]
    cls = [[] for _ in points]
    for y, span in enumerate(spans):
        for x in span:
            cls[x].append(y)
    colour = _ranks([(len(s), len(c)) for s, c in zip(spans, cls)])
    twin = list(points)   # twins share every colour
    for x in points:
        if twin[x] == x:
            for y in range(x + 1, n):
                if twin[y] == y and colour[y] == colour[x] and _is_twin(ups, x, y):
                    twin[y] = x
    shift = n.bit_length()   # a count of up to n points fits in one digit
    while True:
        cells = [[] for _ in range(max(colour) + 1)]
        for x in points:
            cells[colour[x]].append(x)
        labels = [[twin[x] for x in cell] for cell in cells]
        total = prod(_orderings(lab) for lab in labels if len(lab) > 1)
        if total == 1:
            return _code(spans, [x for cell in cells for x in cell])
        weight = [1 << shift * c for c in colour]
        finer = _ranks([(c, sum([weight[y] for y in s]), sum([weight[y] for y in d]))
                        for c, s, d in zip(colour, spans, cls)])
        if max(finer) == max(colour):
            break
        colour = finer
    if total > CANONICAL_BUDGET:
        return None
    best = None
    for combo in product(*map(_arrangements, labels)):
        pools = {}
        for x in reversed(points):
            pools.setdefault(twin[x], []).append(x)
        code = _code(spans, [pools[t].pop() for lab in combo for t in lab])
        if best is None or code < best:
            best = code
    return best


@dataclass(frozen=True)
class FiniteSpace:
    """A validated finite topological space.

    Construct through `build_space` (label lists), `space_from_masks`
    (the opens) or `space_from_table` (the minimal open neighbourhood of
    every point); each validates its input.  The space is its labels and
    that table, which alone take part in equality; its opens are built
    on first read.  `name` is a catalog id or file path used in reports.
    """

    names: tuple
    min_nbhd: tuple
    name: str | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return len(self.names)

    @lazy
    def opens(self) -> SetFamily:
        """The sets saturated under the table, all 2**n bits of them."""
        return SetFamily.from_bits(saturated(self.min_nbhd, len(self.names)))

    @lazy
    def full(self) -> int:
        return (1 << len(self.names)) - 1

    @lazy
    def canonical(self) -> tuple | None:
        """The space up to homeomorphism: n masks, the same for every
        relabeling, or None when it needs more than `CANONICAL_BUDGET`
        orderings (see `_canonical_form`)."""
        return _canonical_form(self.min_nbhd)

    def check_mask(self, a: int) -> None:
        if a < 0 or a > self.full:
            raise ValueError(f"mask {a} out of range for {self.n} points")

    def complement(self, a: int) -> int:
        self.check_mask(a)
        return self.full ^ a

    def interior(self, a: int) -> int:
        """Largest open subset of `a`."""
        self.check_mask(a)
        out = 0
        for x, m in enumerate(self.min_nbhd):
            if m & ~a == 0:
                out |= 1 << x
        return out

    def closure(self, a: int) -> int:
        """Smallest closed superset of `a`."""
        return self.full ^ self.interior(self.complement(a))

    def minimal_neighborhood(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise ValueError(f"point index {x} out of range")
        return self.min_nbhd[x]

    def is_open(self, a: int) -> bool:
        return self.interior(a) == a

    def is_closed(self, a: int) -> bool:
        return self.closure(a) == a

    def closed_family(self) -> SetFamily:
        return SetFamily.from_bits(mirror(self.opens.bits, self.n))

    def subspace(self, s: int) -> "FiniteSpace":
        """Relative topology on the points of `s`, original labels kept."""
        self.check_mask(s)
        if s == 0:
            raise EmptyCarrier("subspace carrier is empty")
        keep = list(iter_points(s))
        pos = {old: new for new, old in enumerate(keep)}
        names = tuple(self.names[i] for i in keep)

        def compress(mask):
            out = 0
            for i in iter_points(mask & s):
                out |= 1 << pos[i]
            return out

        # the smallest relative open holding x is U_x ∩ s
        return space_from_table(names, [compress(self.min_nbhd[x]) for x in keep])

    def mask_of(self, labels: Iterable[str]) -> int:
        out = 0
        for lab in labels:
            try:
                out |= 1 << self.names.index(lab)
            except ValueError:
                raise UnknownLabel(f"unknown point label {lab!r}") from None
        return out

    def labels_of(self, a: int) -> tuple:
        self.check_mask(a)
        return tuple(self.names[i] for i in iter_points(a))

    def render(self, a: int) -> str:
        """Subset as text: empty set and carrier get their usual symbols."""
        if a == 0:
            return "∅"
        if a == self.full:
            return "X"
        return "{" + ",".join(self.labels_of(a)) + "}"

    def render_family(self, masks: Iterable[int]) -> str:
        return "{" + ",".join(self.render(m) for m in masks) + "}"

    def describe(self) -> str:
        if self.name is not None:
            return self.name
        pts = ",".join(self.names)
        return f"points={{{pts}}} opens={self.render_family(self.opens)}"


def _validate_names(names: tuple) -> None:
    if len(names) == 0:
        raise EmptyCarrier("a space needs at least one point")
    if len(names) > MAX_POINTS:
        raise TooManyPoints(f"{len(names)} points exceeds the limit of {MAX_POINTS}")
    seen = set()
    for lab in names:
        if not isinstance(lab, str) or not lab or _LABEL_FORBIDDEN & set(lab):
            raise ValueError(f"bad point label {lab!r}")
        if lab in seen:
            raise DuplicateLabel(f"duplicate point label {lab!r}")
        seen.add(lab)


def _pairwise_witness(fam: SetFamily):
    members = fam.members
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if (a | b) not in fam:
                return ("union", a, b)
            if (a & b) not in fam:
                return ("intersection", a, b)


def space_from_masks(names: Iterable[str], masks: Iterable[int], *,
                     name: str | None = None) -> FiniteSpace:
    """Validate a topology given as subset masks and build the space.

    `masks` may be a `SetFamily`.  A family holding the empty set and
    the carrier is closed under pairwise union and intersection iff it
    equals the family of sets saturated under its own minimal
    neighbourhood table (Alexandrov), so that bitset test decides; the
    quadratic pair scan runs only to locate a witness.

    U_x is read as the numerically lowest member holding x.  The test
    stays exact: a saturated family is closed under union and
    intersection, and in a topology U_x lies inside every open holding
    x, so it is also the numerically lowest one.
    """
    names = tuple(names)
    _validate_names(names)
    n = len(names)
    full = (1 << n) - 1
    if isinstance(masks, SetFamily):
        fam = masks
        if fam.bits >> (1 << n):
            raise ValueError(f"a mask is out of range for {n} points")
    else:
        masks = set(masks)
        bad = [m for m in masks if not 0 <= m <= full]
        if bad:
            raise ValueError(f"mask {min(bad)} out of range for {n} points")
        fam = SetFamily(masks)
    if 0 not in fam or full not in fam:
        raise MissingEmptyOrUniverse(
            "the topology must contain the empty set and the whole carrier")

    space = FiniteSpace(names, tuple(lowest(fam.bits, n)), name)
    if space.opens != fam:
        # neither member of a witness pair is the empty set or the carrier
        kind, a, b = _pairwise_witness(fam)
        msg = (f"{space.render(a)} and {space.render(b)} are opens "
               f"but their {kind} is not")
        if kind == "union":
            raise NotClosedUnderUnion(msg, (a, b))
        raise NotClosedUnderIntersection(msg, (a, b))
    return space


def space_from_table(names: Iterable[str], table: Iterable[int], *,
                     name: str | None = None) -> FiniteSpace:
    """Validate a table of minimal open neighbourhoods and build the space.

    `table[x]` is U_x as a mask.  A table of n masks is the table of a
    topology iff it is reflexive (x in U_x) and transitive (y in U_x
    implies U_y inside U_x), checked in O(n**2); the opens are then the
    sets saturated under it, and U_x is the smallest of them holding x
    (Alexandroff, Diskrete Räume, 1937).
    """
    names = tuple(names)
    _validate_names(names)
    n = len(names)
    table = tuple(table)
    if len(table) != n:
        raise ValueError(f"a table for {n} points needs {n} masks, not {len(table)}")
    for x, u in enumerate(table):
        if not 0 <= u < 1 << n:
            raise ValueError(f"U_{names[x]} = {u} is out of range for {n} points")
        if not u >> x & 1:
            raise NotAPreorder(f"U_{names[x]} does not hold {names[x]}", x)
    for x, u in enumerate(table):
        for y in iter_points(u):
            if table[y] & ~u:
                raise NotAPreorder(f"{names[y]} is in U_{names[x]} but U_{names[y]} "
                                   f"is not inside U_{names[x]}", x)
    return FiniteSpace(names, table, name)


def build_space(names: Iterable[str], opens: Iterable[Iterable[str]], *,
                name: str | None = None) -> FiniteSpace:
    """Build a space from point labels and opens given as label lists."""
    names = tuple(names)
    _validate_names(names)
    pos = {lab: i for i, lab in enumerate(names)}
    masks = []
    for subset in opens:
        m = 0
        for lab in subset:
            if lab not in pos:
                raise UnknownLabel(f"unknown point label {lab!r} in an open set")
            m |= 1 << pos[lab]
        masks.append(m)
    return space_from_masks(names, masks, name=name)
