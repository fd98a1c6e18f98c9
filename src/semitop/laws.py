"""Executable registry of checked claims about the semi-kernel
operators, their generalized set classes, and the low separation
axioms.

Every `Law` pairs a stable id with an anchor quoting the statement it
checks and a checker that exhaustively quantifies the statement over
one analysed space.  Checkers return None on success or a `_Fail`
carrying the first offending subsets/points in canonical mask order;
`check_law` and `run_suite` turn a failure into a `Witness`.
`run_suite` folds a stream of spaces into a deterministic `LawReport`:
each space's failures in stream order, and each law's examined count
read off the lists of the laws that run.  Every witness holds the
caller's own space, the failure's masks and point indices, and renders
them in that space's labels only when read.

The checkers read one `SpaceContext` per space and nothing else of the
core: its parts are built on first read from families and columns, and
its g.V_s singletons from SO alone (`g_v_s_singletons`).  The
per-query operators and witness renderers `axiom_profile` and
`set_class` serve `analyze`, `khalimsky` and API users.

A law without a scope speaks of the topology, not of the labels, and a
`semi_only` law of n and the semi-open family SO alone, so `run_suite`
decides the first once per homeomorphism class and the second once per
(n, SO), both planned by the caller before any fork (see `_plan`).  A
failure a space takes from its class is held as the space until a
report reads it (see `LawResult`), then a `Witness` worked out on first
read, on that space.

A quantifier over all masks is an operation on 2**n-bit families (see
`lattice`).  `kern_cols[z]` and the context's `up[x]` are the columns of
the semi-kernel and of v_s, so a pointwise statement about them is a
column identity, and "the value at B lies in F" is `_preimage`.  The
laws that share a statement shape are rows of eight factories, each row
naming a family or an operator's columns by its `SpaceContext` attribute
path ("fams.d_v.bits") read by a getter built once.  `_inside` (every
P-set is a Q-set) fails at the lowest offender of any row, with the
message of the first row it breaks; `_under` (f(B) inside g(B), None
the identity) at the lowest B where a column of f escapes g's;
`_singletons` (each {x}, or with `dual` X∖{x}, in a row's family) at
the lowest point in none; `_iff` (an axiom holds iff each inclusion
does) and `_implies` (one axiom gives another) with no witness;
`_monotone` (a statement about every family B_λ: the columns are
upward-closed) at the lowest rise of the operator, a context part;
`_closed` (a family holds `lattice.unions`, or intersections, of
itself) at the lowest escaping set of the first row that does not;
`_spread` (a family is another spread by the steps a column allows,
`lattice.spread_where`) at the lowest mask where they differ.  Three laws read "a <= C <= F(a)" with
a, or C, in a family and F a closure operator, so F(a) = F(C): each
spreads the family by the steps that keep F, prop-4.9-sandwich g.Λ_s
upward with F the kernel, defn-semi-open-levine the opens upward and
defn-beta-open the regular closed sets downward, with F = Cl.
defn-simply-open spreads the opens upward along the nowhere dense
points.  No definition law is reduced to O = Int A, r = Cl(m) or
u = Int m.
prop-3.2c, the kernel of a kernel, is the column identity "K(B) is the
least kernel-fixed set above B".  A failure reports the lowest bit of
the family of offenders.  The few single kernel values of remark-3.3
and example-4.6 are read off `kern_cols` one mask at a time
(`lattice.image`).  The literal per-mask and pair forms live in the
tests as reference oracles.  Laws run on spaces up to their
`max_points`: every space the package builds (`MAX_POINTS`), or
`FAMILY_CAP` for 25 laws that pass on 18 and 20 points too, kept only
for the examined counts `perfbench/reference.json` pins.  An expected
law that examines no space reports `not exercised`.

Disputed laws are claims the suite expects to fail: reproducing their
documented counterexample keeps the exit code at zero, while a run that
examines the documented space without any failure flags the dispute as
stale.
"""

import gc
import time
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, attrgetter, or_
from typing import Callable, Iterable, NamedTuple

from .axioms import is_r0, is_semi_r0, is_semi_t1, is_semi_t_half, is_t1
from .catalog import catalog_id
from .generalized import derived_set, g_v_s_singletons, generalized_families
from .lattice import (columns, everything, first, fixed, image, join_rows,
                      meet_rows, mirror, spread, spread_where, spreads, sub,
                      sup, unions)
from .semi import (OpennessGrades, SemiAnalysis, grades_from_columns,
                   semi_open_bits)
from .spaces import MAX_POINTS, FiniteSpace, SetFamily, lazy

FAMILY_CAP = 11   # only for the laws-n5 counts perfbench/reference.json pins
WITNESS_CAP = 5   # witnesses per law in the text report

_ANY_FAMILY = "holds for the intersection-of-supersets kernel of any family, so it checks that kern_cols is that kernel, not SO"

class _Fail(NamedTuple):
    subsets: tuple = ()
    points: tuple = ()
    message: str = ""


@dataclass(frozen=True, slots=True)
class Witness:
    """A failure of a law on one space, held as masks and point indices
    and rendered in that space's labels on read.  One that a space takes
    from its class (`_inherited`, built as `LawResult.witnesses` is
    read) holds the law the suite ran instead, and works them out on
    first read, on a fresh context."""

    law_id: str
    space: FiniteSpace = field(compare=False, repr=False)
    subset_masks: tuple
    point_indices: tuple
    message: str
    _law: "Law | None" = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def _inherited(cls, law: "Law", space: FiniteSpace) -> "Witness":
        witness = object.__new__(cls)
        for name, value in (("law_id", law.id), ("space", space), ("_law", law)):
            object.__setattr__(witness, name, value)
        return witness

    def __getattr__(self, name):   # only for a slot not yet set
        fields = ("subset_masks", "point_indices", "message")
        if name not in fields or self._law is None:
            raise AttributeError(name)
        fail = self._law.check(SpaceContext(self.space))
        if fail is None:
            raise RuntimeError(f"{self.law_id} passes on {self.space.describe()} but failed on "
                               "its class's first space: not invariant under relabeling")
        for field_name, value in zip(fields, fail):
            object.__setattr__(self, field_name, value)
        object.__setattr__(self, "_law", None)
        return getattr(self, name)

    @property
    def space_name(self) -> str:
        return self.space.describe()

    @property
    def subsets(self) -> tuple:
        return tuple(self.space.render(m) for m in self.subset_masks)

    @property
    def points(self) -> tuple:
        return tuple(self.space.names[x] for x in self.point_indices)

    def render(self) -> str:
        parts = [f"{self.law_id} @ {self.space_name}: {self.message}"]
        if self.subset_masks:
            parts.append("subsets " + ", ".join(self.subsets))
        if self.point_indices:
            parts.append("points " + ", ".join(self.points))
        return "; ".join(parts)


@dataclass(frozen=True)
class Law:
    id: str
    anchor: str
    check: Callable
    status: str = "expected"          # or "disputed"
    max_points: int = MAX_POINTS
    # None: every space; else a test of catalog spaces, asked only of a
    # space that `catalog.catalog_id` names, so it reads `space.name`
    scope: Callable | None = None
    note: str = ""
    dispute_space: str | None = None
    # the outcome depends on n and SO alone, so `run_suite` decides the
    # law once per semi-open family
    semi_only: bool = False

    def applies(self, space: FiniteSpace) -> bool:
        return self.scope is None or (
            catalog_id(space) is not None and self.scope(space))


class LawScopeError(Exception):
    """Law asked about a space outside its scope or size bound."""


class SpaceContext(SemiAnalysis):
    """The law layer's only way into the core: the space's lazy
    `SemiAnalysis` plus the other parts the checkers read, each built on
    first read from families and columns, then kept.  Those are the
    generalized families, the five axiom verdicts (R0 and semi-R0
    decided on the neighbourhoods U_x and K_x, see `axioms`), the g.V_s
    singletons `gvs` (read off SO by `g_v_s_singletons`, with no
    generalized family) and the tables below.  The semi-kernel and v_s
    have one form each, their columns `kern_cols` and `up`, and one
    fixed-set family, `fix_kern` (the Λ_s-sets) and the core's `fix_vs`
    (read off `up`).  The identity's Int and Cl columns, `in_int` and
    `in_cl`, are built once and read by the openness grades and the
    definition laws, as are the regular closed sets `reg_closed` and the
    steps `nd_steps` along the nowhere dense points; each operator's
    monotonicity test, `kern_rise` and `up_rise`, once.
    `axiom_profile` and `set_class` serve `analyze`, `khalimsky` and API
    users, not the checkers."""

    @lazy
    def fams(self):
        return generalized_families(self)

    @lazy
    def t1(self) -> bool:
        return is_t1(self.space)

    @lazy
    def r0(self) -> bool:
        return is_r0(self.space)

    @lazy
    def semi_t1(self) -> bool:
        return is_semi_t1(self)

    @lazy
    def semi_r0(self) -> bool:
        return is_semi_r0(self)

    @lazy
    def semi_t_half(self) -> bool:
        return is_semi_t_half(self, self.fams)

    @lazy
    def gvs(self) -> int:
        """The mask of the points whose singleton is g.V_s, read off SO."""
        return g_v_s_singletons(self)

    @lazy
    def up(self) -> list:
        """v_s's columns, kept for `_preimage`; the core's fold reads them."""
        return list(super()._vs_columns())

    def _vs_columns(self) -> list:
        return self.up

    @lazy
    def kern_cols(self) -> list:
        """kern_cols[z]: the masks whose semi-kernel holds z.

        The semi-kernel of B is the intersection of the semi-open
        supersets of B, so z is outside it iff B lies under a semi-open
        set that misses z.

        Built from SO on purpose, not taken from the core: the `in_k`
        columns of `generalized_families` are the kernel U_{x in B} K_x,
        which preserves unions whatever SO is, so prop-3.2d and the
        Λ_s half of prop-3.7b would pass vacuously on them.
        """
        n = self.space.n
        ones = everything(n)
        return [ones ^ under for under in spreads(self.semi_open.bits, n, upward=False)]

    @lazy
    def sc_unions(self) -> int:
        """The unions of semi-closed sets, the empty union included."""
        return unions(self.semi_closed.bits, self.space.n) | 1

    @lazy
    def fix_kern(self) -> int:
        """The masks the semi-kernel fixes, read off `kern_cols`."""
        return fixed(self.kern_cols, self.space.n)

    @lazy
    def kern_rise(self) -> tuple | None:
        """The semi-kernel's lowest rise (a, b), or None (`_rise`)."""
        return _rise(self.kern_cols, self.space.n)

    @lazy
    def up_rise(self) -> tuple | None:
        """v_s's lowest rise (a, b), or None (`_rise`)."""
        return _rise(self.up, self.space.n)

    @lazy
    def in_int(self) -> list:
        """in_int[x]: the masks A with x in Int A."""
        n = self.space.n
        return list(meet_rows(self.space.min_nbhd, columns(n), n))

    @lazy
    def in_cl(self) -> list:
        """in_cl[y]: the masks A with y in Cl A."""
        return list(join_rows(self.space.min_nbhd, columns(self.space.n)))

    @lazy
    def grades(self) -> OpennessGrades:
        """The five openness grades of `set_class`, as families."""
        return grades_from_columns(self.space, self.in_int, self.in_cl)

    @lazy
    def reg_closed(self) -> int:
        """The regular closed sets, the masks r with Cl(Int(r)) = r."""
        return fixed(join_rows(self.space.min_nbhd, self.in_int), self.space.n)

    @lazy
    def nd_steps(self) -> list:
        """Per point x, every mask if {x} is nowhere dense, else none."""
        n, nd = self.space.n, self.grades.nowhere_dense.bits
        return [everything(n) if nd >> (1 << x) & 1 else 0 for x in range(n)]


def _first(bad: int, message: str):
    """Fail at the lowest member of a family of offenders, if any."""
    if bad:
        return _Fail((first(bad),), (), message)


def _under_proper_sc(ctx) -> int:
    """The masks inside some semi-closed set other than X."""
    n = ctx.space.n   # everything(n) >> 1: every mask but X, the highest
    return spread(ctx.semi_closed.bits & everything(n) >> 1, n, upward=False)


def _preimage(cols, fam: int, cand: int, n: int) -> int:
    """The b in `cand` whose image {z : b in cols[z]} is in `fam`: both
    split point by point, a branch ending once either side is empty or
    `fam` holds every image that agrees with it so far."""
    has = columns(n)
    out, todo = 0, [(0, cand, fam)]
    while todo:
        z, c, f = todo.pop()
        if c and f.bit_count() == 1 << (n - z):
            out |= c
        elif c and f:
            c_in, f_in = c & cols[z], f & has[z]
            todo += ((z + 1, c_in, f_in), (z + 1, c ^ c_in, f ^ f_in))
    return out


def _dual_union_cols(ctx) -> list:
    """Per point z, the masks b with z in v_s(b) | b^c."""
    ones = everything(ctx.space.n)
    return [(ones ^ has) | up for has, up in zip(columns(ctx.space.n), ctx.up)]


def _rise(cols, n: int) -> tuple | None:
    """The lowest rise (a, b) of f, with z in f(m) iff m in cols[z]: the
    lowest a with a superset b such that f(a) escapes f(b), then the
    lowest such b; None if f is monotone (every column upward-closed)."""
    ones = everything(n)
    bad = 0
    for col in cols:
        bad |= col & spread(ones ^ col, n, upward=False)
    if bad:
        a = first(bad)
        above = sup(a, n)
        return a, min(first(above ^ (above & col)) for col in cols
                      if col >> a & 1 and above & col != above)


# -- checkers built from rows -----------------------------------------

def _inside(*rows):
    """Every P-set is a Q-set, for each row (P, Q, message)."""
    rows = [(attrgetter(p), attrgetter(q), message) for p, q, message in rows]

    def check(ctx):
        bad = 0
        for p, q, _ in rows:
            bad |= p(ctx) ^ (p(ctx) & q(ctx))
        if bad:
            low = first(bad)
            for p, q, message in rows:
                if p(ctx) >> low & 1 and not q(ctx) >> low & 1:
                    return _Fail((low,), (), message)
    return check


def _under(f: str | None, g: str | None, message: str):
    """f(B) lies inside g(B) for every mask B: each column of f inside
    the same column of g; an operator of None is the identity."""
    f, g = (attrgetter(op) if op else lambda ctx: columns(ctx.space.n) for op in (f, g))
    return lambda ctx: _first(reduce(or_, (a ^ (a & b) for a, b in zip(f(ctx), g(ctx))), 0), message)


def _singletons(message: str, *rows):
    """Each {x} (`dual`: X∖{x}) lies in the family of some row (fam,
    dual); a family is read once, and only while a point is in none."""
    rows = [(attrgetter(fam), dual) for fam, dual in rows]

    def check(ctx):
        full = bad = ctx.space.full
        for get, dual in rows:
            if bad:
                bits, flip = get(ctx), full if dual else 0
                for x in range(ctx.space.n):
                    if bad >> x & 1 and bits >> (flip ^ 1 << x) & 1:
                        bad ^= 1 << x
        if bad:
            x = first(bad)
            return _Fail((1 << x,), (x,), message)
    return check


def _iff(verdict: str, *rows):
    """The axiom `verdict` holds iff every P-set is a Q-set, for each row
    (P, Q, label); a P of None is every subset."""
    rows = [(attrgetter(p) if p else lambda ctx: everything(ctx.space.n),
             attrgetter(q), label) for p, q, label in rows]
    holds = attrgetter(verdict)

    def check(ctx):
        v, oks = holds(ctx), [p(ctx) & q(ctx) == p(ctx) for p, q, _ in rows]
        if oks.count(v) < len(oks):
            return _Fail((), (), f"{verdict}={v} but " + ", ".join(
                f"{label}={ok}" for (_, _, label), ok in zip(rows, oks)))
    return check


def _implies(a: str, b: str):
    """Every space with axiom `a` has axiom `b`."""
    has_a, has_b = attrgetter(a), attrgetter(b)
    fail = _Fail((), (), f"{a} space that is not {b}")
    return lambda ctx: fail if has_a(ctx) and not has_b(ctx) else None


def _monotone(rise: str, message: str):
    """The operator whose lowest rise is the part `rise` is monotone."""
    get = attrgetter(rise)
    return lambda ctx: get(ctx) and _Fail(get(ctx), (), message)


def _closed(*rows):
    """Each row's family (fam, what, dual) holds the unions (`dual`: the
    intersections, via complements) of its members."""
    rows = [(attrgetter(fam), what, dual) for fam, what, dual in rows]

    def check(ctx):
        n = ctx.space.n
        for get, what, dual in rows:
            bits = mirror(get(ctx), n) if dual else get(ctx)
            if out := unions(bits, n) ^ bits:
                return _first(mirror(out, n) if dual else out, f"{what} leaves the family")
    return check


def _spread(start: str, steps: str, upward: bool, target: str, message: str):
    """The family `target` is the family `start` spread by the steps
    whose columns are `steps` (`lattice.spread_where`)."""
    start, steps, target = map(attrgetter, (start, steps, target))
    return lambda ctx: _first(spread_where(start(ctx), steps(ctx), ctx.space.n, upward)
                              ^ target(ctx), message)


# -- checkers: the semi-kernel and its dual ---------------------------

def _chk_3_2c(ctx):
    # K is extensive and monotone, so K(b) lies in every fixed set above
    # b: K is idempotent iff K(b) is itself fixed, the least fixed set
    # above b, i.e. z is in K(b) iff b is under no fixed set missing z
    n = ctx.space.n
    ones = everything(n)
    unders = spreads(ctx.fix_kern, n, upward=False)
    return _first(reduce(or_, (col ^ ones ^ under for col, under
                               in zip(ctx.kern_cols, unders))),
                  "semi-kernel not idempotent")


def _chk_3_2d(ctx):
    # K(U B) = U K(B) iff K is monotone and, for each z, the masks whose
    # kernel misses z are closed under unions: being downward closed, they
    # are then the subsets of their union u, so u must be one of them
    if ctx.kern_rise:
        return _Fail(ctx.kern_rise, (), "kernel of union differs from union of kernels")
    n = ctx.space.n
    ones, has = everything(n), columns(n)
    found = []
    for z, col in enumerate(ctx.kern_cols):
        out = ones ^ col
        u = sum(1 << x for x in range(n) if out & has[x])
        if out and col >> u & 1:
            found.append((first(sub(u, n) & col), z))
    if found:
        c, z = min(found)
        return _Fail((c,), (z,), "kernel of a union holds a point outside the members' kernels")


def _chk_3_2f(ctx):
    # z is in K(b^c) iff b^c is in kern_cols[z], i.e. b in its mirror;
    # z is outside v_s(b) iff b is not in up[z]
    n = ctx.space.n
    bad = reduce(or_, (mirror(c, n) ^ everything(n) ^ up for c, up in zip(ctx.kern_cols, ctx.up)))
    return _first(bad, "kernel of complement differs from complement of dual")


def _chk_3_3(ctx):
    b1, b2 = ctx.space.mask_of("b"), ctx.space.mask_of("c")
    kern = ctx.kern_cols
    if image(kern, b1 & b2) == image(kern, b1) & image(kern, b2):
        return _Fail((b1, b2), (), "documented strict pair is not strict here")


def _chk_3_7a(ctx):
    ends = 1 | 1 << ctx.space.full
    if ctx.fix_kern & ends != ends:
        return _Fail((), (), "empty set or carrier moved by the semi-kernel")
    if ctx.fix_vs & ends != ends:
        return _Fail((), (), "empty set or carrier moved by the dual")


def _chk_3_7d(ctx):
    return _first(ctx.fix_kern ^ mirror(ctx.fix_vs, ctx.space.n),
                  "kernel-fixed and dual-fixed complements disagree")


# -- checkers: separation axioms --------------------------------------

def _chk_digital_line(ctx):
    t1, r0, semi_t1, semi_r0 = ctx.t1, ctx.r0, ctx.semi_t1, ctx.semi_r0
    if t1 or r0 or not semi_t1 or not semi_r0:
        return _Fail((), (), f"expected t1=false r0=false semi_t1=true semi_r0=true, got {t1}/{r0}/{semi_t1}/{semi_r0}")
    space = ctx.space
    ints = [int(lab) for lab in space.names]
    for x, value in enumerate(ints):
        bit = 1 << x
        if value % 2 == 0:
            if not space.is_closed(bit):
                return _Fail((bit,), (x,), "even singleton is not closed")
        elif min(ints) < value < max(ints):
            if bit not in ctx.grades.regular_open:
                return _Fail((bit,), (x,), "interior odd singleton is not regular open")


# -- checkers: generalized classes ------------------------------------

def _chk_4_6(ctx):
    a, b = ctx.space.mask_of("ac"), ctx.space.mask_of("bc")
    c = a & b
    if a not in ctx.fams.d_lambda or b not in ctx.fams.d_lambda:
        return _Fail((a, b), (), "documented generalized sets are not generalized here")
    if c in ctx.fams.d_lambda:
        return _Fail((c,), (), "documented intersection failure does not fail")
    if image(ctx.kern_cols, a) == a:
        return _Fail((a,), (), "documented non-kernel-fixed set is kernel-fixed")


def _chk_cantor_bendixson(ctx):
    der = derived_set(ctx.space)
    gvs = ctx.gvs
    diff = der ^ gvs
    if diff:
        x = first(diff)
        return _Fail((der, gvs), (x,), "singleton is dual-generalized but the point is isolated"
                     if gvs >> x & 1 else
                     "point is in the derived set but its singleton is not dual-generalized")


def _chk_4_9(ctx):
    """C escapes when it is not g.Λ_s yet a <= C <= K(a) for a g.Λ_s
    member a.  The kernel of any family is a closure operator, so then
    K(C) = K(a), and adding to m a point x in K(m) keeps K(m): g.Λ_s
    spread upward by those steps, in any order.  The witness is the
    lowest escaping C, then the lowest such a: a <= C, C <= K(a)."""
    n, dl = ctx.space.n, ctx.fams.d_lambda.bits
    escapes = spread_where(dl, ctx.kern_cols, n, upward=True) ^ dl
    if escapes:
        c = first(escapes)
        under = dl & sub(c, n) & next(meet_rows((c,), ctx.kern_cols, n))
        return _Fail((first(under), c), (), "set between a generalized set and its kernel escapes the family")


def _chk_4_10(ctx):
    n = ctx.space.n
    # complement route fails at b when a semi-closed superset of B = b^c
    # misses a point z of the semi-kernel of B
    complement_fails = mirror(reduce(or_, map(and_, ctx.kern_cols, spreads(
        ctx.semi_closed.bits, n, upward=False)), 0), n)
    # semi-open route fails at b when a semi-open subset of b holds a
    # point x outside v_s(b), i.e. b is not in up[x]
    semi_open_fails = reduce(or_, (above ^ (above & up) for above, up in zip(
        spreads(ctx.semi_open.bits, n, upward=True), ctx.up)), 0)
    diff = complement_fails ^ semi_open_fails
    if diff:
        b = first(diff)
        by_complement = not complement_fails >> b & 1
        return _Fail((b,), (), f"complement route {by_complement} vs semi-open route {not by_complement}")


def _chk_4_11(ctx):
    n = ctx.space.n
    cols = _dual_union_cols(ctx)
    bad = _preimage(cols, _under_proper_sc(ctx), ctx.fams.d_v.bits, n)
    if bad:
        b = first(bad)
        t = image(cols, b)
        above = ctx.semi_closed.bits & sup(t, n) & everything(n) >> 1
        return _Fail((b, first(above)), (), "proper semi-closed set above dual-union of a generalized set")


def _chk_4_12(ctx):
    d_v = ctx.fams.d_v.bits
    closed = _preimage(_dual_union_cols(ctx), ctx.semi_closed.bits, d_v, ctx.space.n)
    bad = d_v & (closed ^ ctx.fix_vs)
    if bad:
        b = first(bad)
        closed_side, fixed_side = bool(closed >> b & 1), bool(ctx.fix_vs >> b & 1)
        return _Fail((b,), (), f"semi-closed test {closed_side} vs dual-fixed test {fixed_side}")


def _chk_4_13(ctx):
    # v_s(b) semi-closed and X the only semi-closed set above
    # v_s(b) | b^c, yet b not g.V_s
    n = ctx.space.n
    cand = everything(n) ^ ctx.fams.d_v.bits
    # the semi-closed test on v_s(b) is the costlier split, so it runs
    # on the sets the test on v_s(b) | b^c leaves
    cand ^= _preimage(_dual_union_cols(ctx), _under_proper_sc(ctx), cand, n)
    return _first(_preimage(ctx.up, ctx.semi_closed.bits, cand, n),
                  "hypotheses hold but the set is not dual-generalized")


# -- scopes -----------------------------------------------------------

def _scope_odd_window(space):
    family, *bounds = space.name.split(":")
    return family == "khalimsky" and all(int(bound) % 2 for bound in bounds)


# -- registry ---------------------------------------------------------

def register_laws() -> tuple:
    # remark-4.7 takes the first kind of offender first
    so_in_gl = _inside(("semi_open.bits", "fams.d_lambda.bits", "semi-open set outside the generalized family"))
    sc_in_gv = _inside(("semi_closed.bits", "fams.d_v.bits", "semi-closed set outside the dual generalized family"))
    laws = [
        Law("prop-3.2a", "§3: $B \\subseteq B^{\\Lambda_s}$",
            _under(None, "kern_cols", "subset escapes its semi-kernel"), note=_ANY_FAMILY, semi_only=True),
        Law("prop-3.2b", "§3: If $A \\subseteq B$, then $A^{\\Lambda_s} \\subseteq B^{\\Lambda_s}$",
            _monotone("kern_rise", "semi-kernel not monotone"),
            max_points=FAMILY_CAP, note=_ANY_FAMILY, semi_only=True),
        Law("prop-3.2c", "§3: $B^{\\Lambda_s\\Lambda_s}=B^{\\Lambda_s}$",
            _chk_3_2c, note=_ANY_FAMILY, semi_only=True),
        Law("prop-3.2d", "§3: $[\\bigcup B_\\lambda]^{\\Lambda_s}=\\bigcup B_\\lambda^{\\Lambda_s}$",
            _chk_3_2d, max_points=FAMILY_CAP, semi_only=True),
        Law("prop-3.2e", "§3: If $A \\in SO(X,\\tau)$, then $A=A^{\\Lambda_s}$",
            _inside(("semi_open.bits", "fix_kern", "semi-open set moved by its semi-kernel")), semi_only=True),
        Law("prop-3.2f", "§3: $(B^c)^{\\Lambda_s}=(B^{V_s})^c$",
            _chk_3_2f, max_points=FAMILY_CAP, semi_only=True),
        Law("prop-3.2g", "§3: $B^{V_s} \\subseteq B$",
            _under("up", None, "dual operator escapes its argument"), max_points=FAMILY_CAP, semi_only=True),
        Law("prop-3.2h", "§3: If $B \\in SC(X,\\tau)$, then $B=B^{V_s}$",
            _inside(("semi_closed.bits", "fix_vs", "semi-closed set moved by the dual operator")),
            max_points=FAMILY_CAP, semi_only=True),
        # K(B_1 & B_2 & ...) lies in every K(B_i) iff K is monotone
        Law("prop-3.2i", "§3: $[\\bigcap B_\\lambda]^{\\Lambda_s} \\subseteq \\bigcap B_\\lambda^{\\Lambda_s}$",
            _monotone("kern_rise", "kernel of intersection escapes the kernels"),
            max_points=FAMILY_CAP, note=_ANY_FAMILY, semi_only=True),
        # v_s(B_1 | B_2 | ...) holds every v_s(B_i) iff v_s is monotone;
        # its columns are the context's up[x]
        Law("prop-3.2j", "§3: $[\\bigcup B_\\lambda]^{V_s} \\supseteq \\bigcup B_\\lambda^{V_s}$",
            _monotone("up_rise", "dual of union misses a dual"), max_points=FAMILY_CAP, semi_only=True),
        Law("remark-3.3-strictness",
            "§3: $(B_1 \\bigcap B_2)^{\\Lambda_s}=\\emptyset$ but $B_1^{\\Lambda_s} \\bigcap B_2^{\\Lambda_s}=\\{b,c\\}$",
            _chk_3_3, scope=lambda space: space.name == "e1",
            note="existence claim; the documented pair is B1={b}, B2={c}"),
        Law("prop-3.7a", "§3: The subsets $\\emptyset$ and $X$ are $\\Lambda_s$-sets and $V_s$-sets",
            _chk_3_7a, semi_only=True),
        Law("prop-3.7b", "§3: Every union of $\\Lambda_s$-sets ($V_s$-sets) is a $\\Lambda_s$-set ($V_s$-set)",
            _closed(("fix_kern", "union of kernel-fixed sets", False),
                    ("fix_vs", "union of dual-fixed sets", False)), max_points=FAMILY_CAP,
            note="the V_s half holds for any family: v_s is monotone and deflationary, so its fixed sets are the unions of semi-closed sets",
            semi_only=True),
        Law("prop-3.7c", "§3: Every intersection of $\\Lambda_s$-sets ($V_s$-sets) is a $\\Lambda_s$-set ($V_s$-set)",
            _closed(("fix_kern", "intersection of kernel-fixed sets", True),
                    ("fix_vs", "intersection of dual-fixed sets", True)), max_points=FAMILY_CAP,
            note="the Λ_s half holds for any family: the kernel-fixed sets are the intersections of semi-open sets, and an intersection of such intersections is one",
            semi_only=True),
        Law("prop-3.7d", "§3: $B$ is a $\\Lambda_s$-set if and only if $B^c$ is a $V_s$-set",
            _chk_3_7d, max_points=FAMILY_CAP, semi_only=True),
        Law("prop-3.8", "§3: semi-$T_1$ iff every subset is a $\\Lambda_s$-set iff every subset is a $V_s$-set",
            _iff("semi_t1", (None, "fix_kern", "kernel-fixed-all"), (None, "fix_vs", "dual-fixed-all")),
            max_points=FAMILY_CAP, semi_only=True),
        Law("example-2-digital-line",
            "§2: a semi-$T_1$ space and a semi-$R_0$-space which is neither $T_1$ nor $R_0$",
            _chk_digital_line, scope=_scope_odd_window,
            note="odd-endpoint digital-line windows; even singletons closed, interior odd singletons regular open"),
        Law("cor-3-semi-t1-semi-r0", "§3: Every semi-$T_1$-space is a semi-$R_0$-space",
            _implies("semi_t1", "semi_r0"), semi_only=True),
        Law("sec-2-r0-semi-r0", "§2: Every $R_0$-space is a semi-$R_0$-space",
            _implies("r0", "semi_r0")),
        Law("thm-3-semi-t1-v-sets",
            "§3: semi-$T_1$ iff every preopen set is a $V_s$-set iff every $\\beta$-open set is a $V_s$-set",
            _iff("semi_t1", ("grades.preopen.bits", "fix_vs", "preopen-fixed"),
                 ("grades.beta_open.bits", "fix_vs", "beta-fixed")), max_points=FAMILY_CAP),
        Law("thm-3-semi-r0-v-sets",
            "§3: semi-$R_0$ iff every semi-open, every open and every simply-open set is a $V_s$-set",
            _iff("semi_r0", ("semi_open.bits", "fix_vs", "semi-open-fixed"),
                 ("space.opens.bits", "fix_vs", "open-fixed"),
                 ("grades.simply_open.bits", "fix_vs", "simply-open-fixed")), max_points=FAMILY_CAP,
            note="simply-open also goes by the name locally semi-closed; only the simply-open form is implemented"),
        Law("sec-2-semi-r0-union",
            "§2: semi-$R_0$ iff every semi-open set is a union of semi-closed sets",
            _iff("semi_r0", ("semi_open.bits", "sc_unions", "semi-open-as-union-of-semi-closed")),
            max_points=FAMILY_CAP, semi_only=True),
        Law("sec-3-singleton-dichotomy",
            "§3: every singleton is either locally dense (= preopen) or nowhere dense",
            _singletons("singleton neither preopen nor nowhere dense",
                        ("grades.preopen.bits", False), ("grades.nowhere_dense.bits", False))),
        # O <= A <= Cl(O) gives Cl(A) = Cl(O), Cl being a closure
        # operator, and adding to m a point x in Cl(m) keeps Cl(m): the
        # opens spread upward by those steps, in any order
        Law("defn-semi-open-levine",
            "§2: $A$ is semi-open iff there exists $O \\in \\tau$ with $O \\subseteq A \\subseteq {\\rm Cl}(O)$",
            _spread("space.opens.bits", "in_cl", True, "semi_open.bits",
                    "open-witness and interior/closure forms disagree"), max_points=FAMILY_CAP),
        # m is dense in a regular closed r when m <= r <= Cl(m), i.e. m <= r
        # with Cl(m) = Cl(r), and removing x from m keeps Cl(m) iff x is in
        # Cl(m - {x}): the regular closed sets spread downward by those steps
        Law("defn-beta-open",
            "§3: $\\beta$-open iff dense in some regular closed subspace",
            _spread("reg_closed", "in_cl", False, "grades.beta_open.bits",
                    "dense-in-regular-closed and closure-composite forms disagree"), max_points=FAMILY_CAP),
        # a finite union of nowhere dense sets is nowhere dense, so they are
        # the subsets of N, the union of the nowhere dense singletons, and
        # the u | d are the opens spread upward along the points of N
        Law("defn-simply-open",
            "§3: simply-open iff a union of an open set and a nowhere dense set",
            _spread("space.opens.bits", "nd_steps", True, "grades.simply_open.bits",
                    "open-plus-nowhere-dense and boundary forms disagree"), max_points=FAMILY_CAP),
        Law("sec-3-beta-containments",
            "§3: every preopen set and every semi-open set is $\\beta$-open",
            _inside(("grades.preopen.bits", "grades.beta_open.bits", "preopen or semi-open set that is not beta-open"),
                    ("semi_open.bits", "grades.beta_open.bits", "preopen or semi-open set that is not beta-open"))),
        Law("prop-4.5ab",
            "§4: Every $\\Lambda_s$-set is a $g.\\Lambda_s$-set; every $V_s$-set is a $g.V_s$-set",
            _inside(("fix_kern", "fams.d_lambda.bits", "kernel-fixed set missing from the generalized family"),
                    ("fix_vs", "fams.d_v.bits", "dual-fixed set missing from the dual generalized family")),
            max_points=FAMILY_CAP, semi_only=True),
        Law("prop-4.5cd",
            "§4: unions of $g.\\Lambda_s$-sets are $g.\\Lambda_s$; intersections of $g.V_s$-sets are $g.V_s$",
            _closed(("fams.d_lambda.bits", "union of generalized sets", False),
                    ("fams.d_v.bits", "intersection of dual-generalized sets", True)),
            max_points=FAMILY_CAP, semi_only=True),
        Law("example-4.6-intersection",
            "§4: $A \\bigcap B=\\{c\\}$ is not a $g.\\Lambda_s$-set",
            _chk_4_6, scope=lambda space: space.name == "e33",
            note="documented witnesses A={a,c}, B={b,c}; A is also not a $\\Lambda_s$-set"),
        Law("remark-4.7",
            "§4: If $A \\in SO(X,\\tau)$ then $A$ is a $g.\\Lambda_s$-set; if $A \\in SC(X,\\tau)$ then $A$ is a $g.V_s$-set",
            lambda ctx: so_in_gl(ctx) or sc_in_gv(ctx), semi_only=True),
        Law("prop-4.8-dichotomy",
            "§4: $\\{x\\}$ is a semi-open set or $\\{x\\}^c$ is a $g.\\Lambda_s$-set",
            _singletons("singleton neither semi-open nor complement-generalized",
                        ("semi_open.bits", False), ("fams.d_lambda.bits", True)),
            note="equivalently the singleton itself is a $g.V_s$-set; the half of cor-4-cantor-bendixson that holds: a point of D(X) has a singleton that is not open, hence not semi-open, so its singleton is g.V_s",
            semi_only=True),
        Law("cor-4-cantor-bendixson",
            "§4: the Cantor-Bendixson derivative $D(X)$ is the set of all points whose singleton is a $g.V_s$-set",
            _chk_cantor_bendixson, status="disputed", dispute_space="discrete:2",
            note="fails exactly at an isolated point x with X∖{x} semi-open: for an isolated x, X∖{x} is semi-closed, so {x} is g.V_s iff X∖{x} is a Λ_s-set iff it is semi-open (its only supersets are itself and X); every point of a discrete space is such a point"),
        Law("prop-4.9-sandwich",
            "§4: if $B$ is $g.\\Lambda_s$ and $B \\subseteq C \\subseteq B^{\\Lambda_s}$ then $C$ is $g.\\Lambda_s$",
            _chk_4_9, max_points=FAMILY_CAP, semi_only=True),
        Law("prop-4.10-agreement",
            "§4: $B$ is $g.V_s$ iff $U \\subseteq B^{V_s}$ whenever $U \\subseteq B$ and $U \\in SO(X,\\tau)$",
            _chk_4_10, max_points=FAMILY_CAP, semi_only=True),
        Law("cor-4.11",
            "§4: $B$ $g.V_s$ implies every semi-closed $F \\supseteq B^{V_s} \\bigcup B^c$ is $X$",
            _chk_4_11, max_points=FAMILY_CAP, semi_only=True),
        Law("cor-4.12",
            "§4: for $g.V_s$ sets, $B^{V_s} \\bigcup B^c$ is semi-closed iff $B$ is a $V_s$-set",
            _chk_4_12, max_points=FAMILY_CAP, semi_only=True),
        Law("prop-4.13",
            "§4: if $B^{V_s}$ is semi-closed and $X=F$ for every semi-closed $F \\supseteq B^{V_s} \\bigcup B^c$, then $B$ is $g.V_s$",
            _chk_4_13, max_points=FAMILY_CAP, semi_only=True),
        Law("remark-5.2-semi-closed-sg",
            "§5: Every semi-closed set is sg-closed",
            _inside(("semi_closed.bits", "fams.sg_closed.bits", "semi-closed set that is not sg-closed")), semi_only=True),
        Law("thm-5.3",
            "§5: semi-$T_{1/2}$ iff every $g.V_s$-set is a $V_s$-set",
            _iff("semi_t_half", ("fams.d_v.bits", "fix_vs", "dual-generalized-all-fixed")),
            max_points=FAMILY_CAP, semi_only=True),
    ]
    ids = [law.id for law in laws]
    assert len(ids) == len(set(ids))
    return tuple(laws)


_REGISTRY = None


def registry() -> dict:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {law.id: law for law in register_laws()}
    return _REGISTRY


# -- running ----------------------------------------------------------

def _refusal(law: Law, space: FiniteSpace, sid: str | None) -> str | None:
    """Why `law` does not run on `space`, whose `catalog_id` is `sid`
    (scope, then size cap), or None."""
    if law.scope is not None and (sid is None or not law.scope(space)):
        return f"{law.id} does not apply to {space.describe()}"
    if space.n > law.max_points:
        return f"{law.id} is bounded to {law.max_points} points, space has {space.n}"
    return None


def check_law(law: Law, space, ctx: SpaceContext | None = None):
    """Run one law on one space; None means pass, a Witness means fail."""
    if isinstance(law, str):
        law = registry()[law]
    refusal = _refusal(law, space, catalog_id(space))
    if refusal is not None:
        raise LawScopeError(refusal)
    if ctx is None:
        ctx = SpaceContext(space)
    fail = law.check(ctx)
    return None if fail is None else Witness(law.id, space, *fail)


@dataclass
class LawResult:
    """One law's tally over a suite.  `held` lists its failures in
    stream order: a `Witness`, or the space itself where the space took
    the failure from its class.  Reading `witnesses` turns each held
    space, once, into `Witness._inherited` of `law`, the law the suite
    ran; the counts read `held` and build no witness."""

    law_id: str
    status: str
    examined: int = 0
    held: list = field(default_factory=list)
    dispute_space_examined: bool = False
    named: bool = False               # the caller asked for this law by id
    law: Law | None = field(default=None, repr=False)

    @property
    def witnesses(self) -> list:
        return self._first(len(self.held))

    def _first(self, k: int) -> list:
        held = self.held
        for i in range(min(k, len(held))):
            if not isinstance(held[i], Witness):
                held[i] = Witness._inherited(self.law, held[i])
        return held[:k]

    @property
    def passed(self) -> int:
        return self.examined - len(self.held)

    def verdict(self) -> str:
        failed = len(self.held)
        if self.status == "expected":
            if failed > 0:
                return f"VIOLATED ({failed} spaces)"
            return "ok" if self.examined else "not exercised"
        if failed > 0:
            return f"disputed: confirmed ({failed} spaces)"
        if self.dispute_space_examined:
            return "disputed: STALE (no failure reproduced)"
        return "disputed: not exercised"

    def is_fatal(self) -> bool:
        failed = len(self.held)
        if self.status == "expected":
            return failed > 0 or (self.named and self.examined == 0)
        return failed == 0 and self.dispute_space_examined


@dataclass
class LawReport:
    results: list
    spaces_total: int
    wall_time: float = 0.0
    decided_in_full: int = 0          # spaces decided on their own context

    def exit_code(self) -> int:
        return 1 if any(r.is_fatal() for r in self.results) else 0

    def to_dict(self) -> dict:
        return {
            "spaces": self.spaces_total,
            "laws": [
                {
                    "id": r.law_id,
                    "status": r.status,
                    "examined": r.examined,
                    "passed": r.passed,
                    "verdict": r.verdict(),
                    "witnesses": [
                        {
                            "space": w.space_name,
                            "subsets": [list(w.space.labels_of(m))
                                        for m in w.subset_masks],
                            "points": list(w.points),
                            "message": w.message,
                        }
                        for w in r.witnesses
                    ],
                }
                for r in self.results
            ],
            "exit_code": self.exit_code(),
        }

    def render_text(self) -> str:
        lines = [f"claim suite over {self.spaces_total} spaces"]
        width = max(len(r.law_id) for r in self.results) + 2
        for r in self.results:
            lines.append(f"{r.law_id:<{width}}{r.examined:>6} examined"
                         f"{r.passed:>6} passed  {r.verdict()}")
        shown = [r for r in self.results if r.held]
        if shown:
            lines.append("witnesses:")
            for r in shown:
                for w in r._first(WITNESS_CAP):
                    lines.append("  " + w.render())
                extra = len(r.held) - WITNESS_CAP
                if extra > 0:
                    lines.append(f"  {r.law_id}: ... and {extra} more")
        lines.append(f"exit-code: {self.exit_code()}")
        return "\n".join(lines) + "\n"


def _plan(laws: list, spaces: list) -> tuple:
    """Plan one `run_suite` call in the caller: the runnable lists and,
    for each space, its runs tuple and its job, or None.

    The runnable laws are listed once per (n, catalog id), through
    `_refusal`, as one shared runs tuple (key, laws, scoped): a catalog
    space is fixed by its id, so the key fixes every scope verdict (see
    `Law.scope`).  The unscoped laws are invariant under relabeling, so
    each is decided once per class, keyed by the `FiniteSpace.canonical`
    that an enumerated space carries and any other space computes.  A
    space that runs a law has a job (space, SO or None, laws), decided
    on its own context, when it has no canonical form, is the first of
    its class or runs a scoped law; otherwise it takes every verdict
    from the first job of its class.

    A job that runs a semi-only law carries SO, read here once.  A later
    job of a family (n, SO) already planned leaves the semi-only laws
    out, and the merge gives it the failures of its family's first job.
    It leaves out exactly the laws that job checked: semi-only laws are
    unscoped and their cap reads n alone, so every job of one n runs the
    same ones.
    """
    runnable, keyed, planned, seen, families = {}, [], [], set(), set()
    for space in spaces:
        key = (space.n, catalog_id(space))
        runs = runnable.get(key)
        if runs is None:
            listed = [law for law in laws if _refusal(law, space, key[1]) is None]
            runs = runnable[key] = (key, listed, any(law.scope is not None for law in listed))
        _, listed, scoped = runs
        form, job = space.canonical, None
        if listed and (form is None or scoped or form not in seen):
            seen.add(form)
            so = None
            if any(law.semi_only for law in listed):
                so = semi_open_bits(space)
                if (space.n, so) in families:
                    listed = [law for law in listed if not law.semi_only]
                families.add((space.n, so))
            job = space, so, listed
        keyed.append(runs)
        planned.append(job)
    return runnable, keyed, planned


def _decide(job) -> list:
    """(law id, `_Fail`) for each law of a job (space, SO or None, laws)
    that fails on the space, checked on one fresh context given the
    planned SO.  It keeps nothing, so any process can run any job."""
    space, so, laws = job
    ctx = SpaceContext(space)
    if so is not None:
        ctx.semi_open = SetFamily.from_bits(so)
    return [(law.id, fail) for law in laws if (fail := law.check(ctx)) is not None]


def _decide_share(share: list, send) -> None:
    """A forked child's work: decide its share and send back, in one
    message, each job's failures, or the exception that stopped it."""
    # keep the child's collections off the objects it inherits: walking
    # them would copy every page they sit on
    gc.freeze()
    try:
        out = True, list(map(_decide, share))
    except Exception as exc:
        out = False, exc
    send.send(out)


def _decided(jobs: list, workers: int):
    """`_decide` over `jobs`, lazily and in order.  With more than one
    worker, `jobs` is cut into `workers` contiguous shares: forked
    children decide all but the first, which the caller decides while
    they run, and each child's list is read as the merge reaches it."""
    workers = min(workers, len(jobs))
    if workers < 2:
        yield from map(_decide, jobs)
        return
    import multiprocessing
    fork = multiprocessing.get_context("fork")
    cuts = [len(jobs) * k // workers for k in range(workers + 1)]
    children = []
    try:
        for k in range(1, workers):
            recv, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_decide_share, args=(
                jobs[cuts[k]:cuts[k + 1]], send))
            child.start()
            send.close()
            children.append((child, recv))
        yield from map(_decide, jobs[:cuts[1]])
        for k, (child, recv) in enumerate(children, 1):
            try:
                ok, out = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"worker {k} exited with code {child.exitcode} "
                                   "without sending its decisions") from None
            child.join()
            if not ok:
                raise out
            yield from out
    finally:
        for child, recv in children:
            recv.close()
            if child.exitcode is None:   # the caller stopped first
                child.terminate()
            child.join()


def run_suite(spaces: Iterable[FiniteSpace], law_ids=None,
              workers: int = 1) -> LawReport:
    """Evaluate the registry, or the laws named in `law_ids` (each once,
    in first-seen order; an empty list is an error), over a stream of
    spaces.

    `_plan`, in the caller before any fork, has each law decided once
    per class or per (n, SO); every space a law runs on still counts as
    examined.  Only its jobs are decided, by `_decide`, which keeps
    nothing, over the workers' shares (see `_decided`), so
    `decided_in_full`, their number, and the checks made are the same
    at any worker count.  The merge gives each later job of a family the
    semi-only failures of its first job, and each later space of a class
    the unscoped failures of its class's first job.
    A law's examined count is read off the runnable lists: the spaces
    of each key whose list holds the law.  A failure taken from the
    class is held as the space (see `LawResult`) and worked out when its
    witness is read, so `wall_time` leaves that work out.
    A law's dispute flag is set in the same tally, by a key whose
    catalog id is the law's dispute space and whose list holds it.  A
    named expected law that examines no space fails the report.  The
    report is deterministic in the law registration order and the
    stream order, independent of the worker count.
    """
    reg = registry()
    named = law_ids is not None
    if law_ids is None:
        law_ids = list(reg)
    else:
        law_ids = list(dict.fromkeys(law_ids))   # first-seen order
        if not law_ids:
            raise ValueError("empty law id list: name at least one law, or pass None for all")
        for lid in law_ids:
            if lid not in reg:
                raise KeyError(f"unknown law id {lid!r}")
    spaces = list(spaces)
    started = time.perf_counter()
    results = {lid: LawResult(lid, reg[lid].status, named=named, law=reg[lid])
               for lid in law_ids}
    runnable, keyed, planned = _plan([reg[lid] for lid in law_ids], spaces)
    jobs = [job for job in planned if job is not None]
    decided = _decided(jobs, workers)
    classes, families, counts = {}, {}, {}
    try:
        for space, (key, laws, _), job in zip(spaces, keyed, planned):
            counts[key] = counts.get(key, 0) + 1
            if job is not None:
                fails, so = next(decided), job[1]
                if (space.n, so) in families:
                    fails += families[space.n, so]
                elif so is not None:
                    families[space.n, so] = [(lid, fail) for lid, fail in fails
                                             if reg[lid].semi_only]
                for lid, fail in fails:
                    results[lid].held.append(Witness(lid, space, *fail))
                if space.canonical not in classes:
                    classes[space.canonical] = [lid for lid, _ in fails
                                                if reg[lid].scope is None]
            elif laws:
                for lid in classes[space.canonical]:
                    results[lid].held.append(space)
    finally:
        decided.close()
    for key, count in counts.items():
        for law in runnable[key][1]:
            results[law.id].examined += count
            if key[1] is not None and key[1] == law.dispute_space:
                results[law.id].dispute_space_examined = True

    report = LawReport([results[lid] for lid in law_ids], len(spaces),
                       decided_in_full=len(jobs))
    report.wall_time = time.perf_counter() - started
    return report
