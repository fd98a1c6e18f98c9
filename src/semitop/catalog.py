"""Ready-made spaces: named fixtures, digital-line windows, and every
labeled topology on up to five points, as relabeled homeomorphism classes.

Named ids are reserved words, never file paths: the fixed fixtures
("e1", "e33", "e3a", "sierpinski") plus the parametric families
"discrete:N", "indiscrete:N" and "khalimsky:LO:HI".
"""

from dataclasses import dataclass
from functools import cache, reduce
from itertools import permutations
from operator import and_, itemgetter

from . import spaces
from .lattice import decode, saturated
from .spaces import (MAX_POINTS, FiniteSpace, SpaceError,
                     TooManyPoints, _canonical_form, space_from_masks,
                     space_from_table)

_LETTERS = "abcdefghijklmnopqrst"

#: `enumerate_topologies` lists the labeled topologies on up to this
#: many points
ENUMERATION_LIMIT = 5


class UnknownId(SpaceError):
    pass


class EmptyWindow(SpaceError):
    pass


class OverBudget(SpaceError):
    """A class candidate needs more orderings than `CANONICAL_BUDGET`."""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    space: FiniteSpace


def _letters(n: int) -> tuple:
    if n > len(_LETTERS):
        raise TooManyPoints(f"no label scheme for {n} points")
    return tuple(_LETTERS[:n])


# fixed fixtures: id -> (labels, open masks)
_FIXED = {
    # three points; the only proper opens are {a} and {b,c}
    "e1": ("abc", [0b000, 0b001, 0b110, 0b111]),
    "e33": ("abc", [0b000, 0b011, 0b111]),
    "e3a": ("abc", [0b000, 0b001, 0b010, 0b011, 0b111]),
    "sierpinski": ("ab", [0b00, 0b01, 0b11]),
}
_FAMILY_PREFIXES = ("discrete:", "indiscrete:", "khalimsky:")


def _sized(family: str, n: int) -> tuple:
    """The labels of `family:n`, refusing an oversized n before any
    family of its 2**n subsets is built."""
    if n > MAX_POINTS:
        raise TooManyPoints(f"{family}:{n} has {n} points, limit {MAX_POINTS}")
    return _letters(n)


def discrete_space(n: int) -> FiniteSpace:
    names = _sized("discrete", n)
    return space_from_table(names, [1 << x for x in range(n)],
                            name=f"discrete:{n}")


def indiscrete_space(n: int) -> FiniteSpace:
    names = _sized("indiscrete", n)
    return space_from_table(names, [(1 << n) - 1] * n, name=f"indiscrete:{n}")


def named_space(sid: str) -> FiniteSpace:
    """Resolve a reserved space id.  Only the exact name of the space it
    builds is one: `discrete:03` and `khalimsky:-0:2` are unknown."""
    if sid in _FIXED:
        names, opens = _FIXED[sid]
        return space_from_masks(names, opens, name=sid)
    family, *params = sid.split(":")
    try:
        args = [int(p) for p in params]
    except ValueError:
        raise UnknownId(f"unknown space id {sid!r}") from None
    if sid == ":".join([family, *map(str, args)]):
        if len(args) == 1 and family in ("discrete", "indiscrete"):
            if args[0] < 1:
                raise UnknownId(f"bad point count in {sid!r}")
            maker = discrete_space if family == "discrete" else indiscrete_space
            return maker(args[0])
        if len(args) == 2 and family == "khalimsky":
            return khalimsky_window(*args).space
    raise UnknownId(f"unknown space id {sid!r}")


def is_named_id(sid: str) -> bool:
    """Whether `sid` is reserved: a fixed id, or a parametric family
    prefix whatever its parameters (`named_space` judges those)."""
    return sid in _FIXED or sid.startswith(_FAMILY_PREFIXES)


def catalog_id(space: FiniteSpace) -> str | None:
    """The reserved id of the catalog space that `space` is, by name and
    value, or None: a space read through the API keeps whatever name it
    was given, and a malformed reserved name names no space."""
    sid = space.name or ""
    try:
        return sid if is_named_id(sid) and space == named_space(sid) else None
    except SpaceError:
        return None


@dataclass(frozen=True)
class Window:
    """A finite stretch of the digital line with its subspace topology."""

    space: FiniteSpace
    lo: int
    hi: int
    boundary_warning: bool

    def mask_of_ints(self, ints) -> int:
        out = 0
        for i in ints:
            if not self.lo <= i <= self.hi:
                raise ValueError(f"{i} outside window [{self.lo},{self.hi}]")
            out |= 1 << (i - self.lo)
        return out


def khalimsky_window(lo: int, hi: int) -> Window:
    """Digital-line window [lo, hi].

    On the full line each odd point is open on its own and each even
    point 2n has {2n-1, 2n, 2n+1} as smallest neighbourhood; the window
    carries the subspace topology, so an even endpoint keeps only the
    truncated part of its cell.  `boundary_warning` flags that
    truncation.
    """
    if lo > hi:
        raise EmptyWindow(f"window [{lo},{hi}] has no points")
    w = hi - lo + 1
    if w > MAX_POINTS:
        raise TooManyPoints(f"window [{lo},{hi}] has {w} points, limit {MAX_POINTS}")
    names = tuple(str(i) for i in range(lo, hi + 1))
    mins = []
    for i in range(lo, hi + 1):
        if i % 2:
            cell = [i]
        else:
            cell = [j for j in (i - 1, i, i + 1) if lo <= j <= hi]
        mins.append(sum(1 << (j - lo) for j in cell))
    space = space_from_table(names, mins, name=f"khalimsky:{lo}:{hi}")
    return Window(space, lo, hi, boundary_warning=(lo % 2 == 0 or hi % 2 == 0))


# -- enumeration ------------------------------------------------------

@cache
def _classes(n: int) -> tuple:
    """The canonical tables of the n-point classes up to homeomorphism,
    ascending (OEIS A001930).  Each grows an (n-1)-point class by a
    point p that sees an open A (U_p = A + p) and is seen by the closed
    complement of an open O: a topology iff A lies inside each U_x that
    holds p.  Only a candidate whose p has the greatest colour
    (|U_x|, |Cl{x}|), the one `_canonical_form` starts from, is kept,
    so an A with |A| + 1 below some |U_x| is never tried.  Every class
    arises: deleting a point q of greatest colour leaves a subspace, and
    growing its class's table by U_q and Cl{q} gives the class back with
    p = q.  No candidate through n = 9 passes `CANONICAL_BUDGET`, and
    one that did would raise `OverBudget`.
    """
    if n == 0:
        return ((),)
    p = 1 << n - 1
    forms = set()
    for table in _classes(n - 1):
        opens = decode(saturated(table, n - 1))
        widest = max([u.bit_count() for u in table], default=0)
        wide = [a for a in opens if a.bit_count() + 1 >= widest]
        for o in opens:
            grown = [u if o >> x & 1 else u | p for x, u in enumerate(table)]
            meet = reduce(and_, [u for u in grown if u & p], 2 * p - 1)
            for a in wide:
                if a & ~meet:   # A must lie inside each U_x that holds p
                    continue
                ups = grown + [a | p]
                colour = [(u.bit_count(), sum([v >> x & 1 for v in ups]))
                          for x, u in enumerate(ups)]
                if colour[-1] < max(colour):
                    continue
                form = _canonical_form(tuple(ups))
                if form is None:
                    raise OverBudget(f"a {n}-point class has no canonical form within "
                                     f"CANONICAL_BUDGET = {spaces.CANONICAL_BUDGET} orderings")
                forms.add(form)
    return tuple(sorted(forms))


def enumerate_topologies(n: int):
    """All labeled topologies on n points, ascending by opens tuple.

    Each `_classes(n)` table is validated once, by `space_from_table`,
    and relabeled by every permutation; a relabeled table is reflexive
    and transitive as its class's is, so it is built into a space
    without a second check.  Each distinct table is one topology, and
    its space carries only the table and its class's table as
    `canonical`: the opens are built on first read, as for any space.
    Every family holds the carrier, so its opens tuple is the lower one
    iff it holds the lowest mask where the two differ: the higher family
    of closed sets.  A relabeling commutes with complement, so that
    family is the class's closed sets relabeled, the sum of
    1 << image[c] over them.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise TooManyPoints(f"enumeration supports 1 <= n <= {ENUMERATION_LIMIT}")
    names = _letters(n)
    full = (1 << n) - 1
    relabelings = []
    for order in permutations(range(n)):   # point order[i] becomes i
        image = [0]
        for x in range(n):
            bit = 1 << order.index(x)
            image += [m | bit for m in image]
        # one index makes itemgetter return the mask itself, not a tuple
        relabelings.append((itemgetter(*order) if n > 1 else tuple, image))
    labeled = []
    for form in _classes(n):   # two classes share no table
        closed = [full ^ m for m in decode(space_from_table(names, form).opens.bits)]
        tables = {tuple(map(image.__getitem__, pick(form))): image
                  for pick, image in relabelings}
        labeled += [(sum([1 << image[c] for c in closed]), table, form)
                    for table, image in tables.items()]
    # the keys are distinct, so no table is compared; yielded from the
    # end, so each table is let go as its space is made
    labeled.sort()
    for i in range(len(labeled)):
        _, table, form = labeled.pop()
        space = FiniteSpace(names, table, f"enum:{n}:{i}")
        vars(space)["canonical"] = form
        yield space


def catalog_entries() -> list:
    """The standard fixtures, one validated entry per id."""
    ids = [
        ("e1", "three points, opens generated by {a} and {b,c}"),
        ("e33", "three points, one proper open {a,b}"),
        ("e3a", "three points, opens generated by {a} and {b}"),
        ("sierpinski", "two points, one of them open"),
        ("discrete:2", "two isolated points"),
        ("discrete:3", "three isolated points"),
        ("indiscrete:2", "two points, no proper opens"),
        ("indiscrete:3", "three points, no proper opens"),
        ("khalimsky:-3:3", "digital-line window with odd endpoints"),
        ("khalimsky:-7:7", "wider digital-line window with odd endpoints"),
    ]
    return [CatalogEntry(sid, desc, named_space(sid)) for sid, desc in ids]
