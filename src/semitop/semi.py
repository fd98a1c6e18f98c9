"""Semi-open set machinery for one finite space, on one bit-sliced core.

Every family is a 2**n-bit integer over the subset lattice and every
operator f on masks is held as its n columns, col[z] the masks A with
z in f(A) (see `lattice`; has[x] marks the masks containing x, so
`has` is the identity's columns).  With U_x the minimal neighbourhood
of x, Int and Cl of an operator are column maps, the two row folds of
`lattice` over the table U_x:

    x in Int S(A)  iff  U_x inside S(A)         (`meet_rows`)
    y in Cl S(A)   iff  U_y meets S(A)          (`join_rows`)

Each family of the space then folds composites of them with
`lattice.within` (A inside f(A)) or `lattice.fixed` (f(A) = A):

    SO  = within(Cl Int)                        A inside Cl(Int(A))
    SC  = SO mirrored (bit m -> bit full^m)
    up[x]   = supersets of the semi-closed sets containing x

`up` is the subset-sum spreads of SC & has[x], the columns of v_s, all
n from one lazy `lattice.spreads` pass.  No part keeps it: one fold
reads it once, in point order, for the first two rows below:

    V_s             = fixed(up)                 (`fix_vs`)
    K_x             = X minus v_s(X minus {x})  (`point_kernels`)
    Lambda_s        = V_s mirrored              (prop-3.7d)
    v_s(B)          = the z in some member of SC & sub(B)
    semi_kernel(B)  = X minus v_s(X minus B)    (prop-3.2f)
    semi_closure(B) = the z in every member of SC & sup(B)

Complements swap the semi-open supersets of B and the semi-closed
subsets of X minus B, so these hold for any family taken as SO.  The
downward spreads of SC are not kept (see `generalized`).

The per-query operators AND SC with one `lattice.sub` or `sup` and
test the result against each has[z]: about 2n operations on 2**n-bit
integers per query, so they serve API callers, not the family scans.

The openness grades of `set_class` come as families too
(`openness_grades`), composed on the identity's Int and Cl columns
(`grades_from_columns` takes them from a caller that keeps them):

    preopen       = within(Int Cl)
    beta-open     = within(Cl Int Cl)
    regular open  = fixed(Int Cl)
    nowhere dense = the A in no column of Int Cl
    simply open   = the A in no column of Int Cl R, R(A) = A minus Int A
"""

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import NamedTuple

from .lattice import (columns, everything, fixed, iter_points, join_rows,
                      meet_rows, mirror, spreads, sub, sup, within)
from .spaces import FiniteSpace, SetFamily, lazy


class SemiAnalysis:
    """Semi-open structure of a fixed space, each part built on first
    read.  Only `semi_open` reads the topology; the rest follow from it
    and n, each its literal definition whatever the family, so a
    `semi_open` assigned before any read replaces SO."""

    def __init__(self, space: FiniteSpace):
        self.space = space

    @lazy
    def semi_open(self) -> SetFamily:
        return SetFamily.from_bits(semi_open_bits(self.space))

    @lazy
    def semi_closed(self) -> SetFamily:
        return SetFamily.from_bits(mirror(self.semi_open.bits, self.space.n))

    @lazy
    def point_kernels(self) -> tuple:
        return self._read_vs()[1]

    def _vs_columns(self):
        """The columns `up` of v_s, streamed in point order."""
        return spreads(self.semi_closed.bits, self.space.n, upward=True)

    def _read_vs(self) -> tuple:
        """`fix_vs` and `point_kernels`, both kept, from one pass over `up`."""
        n, full = self.space.n, self.space.full
        kern = [full] * n

        def tap():   # z leaves K_x iff X minus {x} is in up[z]
            for z, col in enumerate(self._vs_columns()):
                for x in range(n):
                    kern[x] ^= (col >> (full ^ 1 << x) & 1) << z
                yield col
        self.fix_vs, self.point_kernels = fixed(tap(), n), tuple(kern)
        return self.fix_vs, self.point_kernels

    # -- per-query operators ------------------------------------------

    def semi_closure(self, b: int) -> int:
        """Intersection of the semi-closed supersets of b."""
        self.space.check_mask(b)
        above = self.semi_closed.bits & sup(b, self.space.n)
        return sum(1 << z for z, has in enumerate(columns(self.space.n))
                   if above & has == above)

    def semi_kernel(self, b: int) -> int:
        """Intersection of the semi-open supersets of b, X minus v_s(X
        minus b)."""
        self.space.check_mask(b)
        return self.space.full ^ self.v_s(self.space.full ^ b)

    def v_s(self, b: int) -> int:
        """Union of the semi-closed subsets of b."""
        self.space.check_mask(b)
        below = self.semi_closed.bits & sub(b, self.space.n)
        return sum(1 << z for z, has in enumerate(columns(self.space.n)) if below & has)

    def is_lambda_s_set(self, b: int) -> bool:
        return self.semi_kernel(b) == b

    def is_v_s_set(self, b: int) -> bool:
        return self.v_s(b) == b

    # -- fixed-point families -----------------------------------------

    def lambda_s_sets(self) -> SetFamily:
        """All subsets equal to their semi-kernel: V_s-set complements."""
        return SetFamily.from_bits(mirror(self.fix_vs, self.space.n))

    @lazy
    def fix_vs(self) -> int:
        """The V_s-sets, the masks v_s fixes (`_read_vs`)."""
        return self._read_vs()[0]

    def v_s_sets(self) -> SetFamily:
        """All subsets equal to the union of their semi-closed subsets."""
        return SetFamily.from_bits(self.fix_vs)


def semi_open_bits(space: FiniteSpace) -> int:
    """SO as one family, the only part of `SemiAnalysis` that reads the
    topology: Cl Int's columns join the meets of least rows (see README)."""
    n, rows, has = space.n, space.min_nbhd, columns(space.n)
    meets, lows = [0] * n, 0   # each least row's meet, at its lowest point
    for y, u in enumerate(rows):   # U_y is least iff U_w = U_y for every w in it
        if u == 1 << y:
            meets[y], lows = has[y], lows | u
        elif u & -u == 1 << y and all(rows[w] == u for w in iter_points(u)):
            meets[y], lows = reduce(and_, (has[z] for z in iter_points(u))), lows | 1 << y
    return within(join_rows([u & lows for u in rows], meets), n)


def semi_open_family(space: FiniteSpace) -> SetFamily:
    return SetFamily.from_bits(semi_open_bits(space))


@dataclass(frozen=True, slots=True)
class SetClass:
    """Openness grades of one subset."""

    preopen: bool
    beta_open: bool
    nowhere_dense: bool
    regular_open: bool
    simply_open: bool


def set_class(space: FiniteSpace, a: int) -> SetClass:
    """Classify `a` by the usual interior/closure composites.

    simply_open uses the operational form: the part of `a` outside its
    interior is nowhere dense.
    """
    space.check_mask(a)
    cl_a = space.closure(a)
    int_cl = space.interior(cl_a)
    rest = a & ~space.interior(a)
    return SetClass(
        preopen=a & ~int_cl == 0,
        beta_open=a & ~space.closure(int_cl) == 0,
        nowhere_dense=int_cl == 0,
        regular_open=a == int_cl,
        simply_open=space.interior(space.closure(rest)) == 0,
    )


class OpennessGrades(NamedTuple):
    """The `SetClass` grades of every mask, one family per field."""

    preopen: SetFamily
    beta_open: SetFamily
    nowhere_dense: SetFamily
    regular_open: SetFamily
    simply_open: SetFamily


def openness_grades(space: FiniteSpace) -> OpennessGrades:
    """Grade every mask at once: the families of `set_class`'s fields."""
    n, rows = space.n, space.min_nbhd
    has = columns(n)
    return grades_from_columns(space, meet_rows(rows, has, n),
                               list(join_rows(rows, has)))


def grades_from_columns(space: FiniteSpace, in_int, in_cl: list) -> OpennessGrades:
    """`openness_grades` from the identity's Int columns (read once, in
    point order) and its Cl columns, for a caller that keeps them."""
    n, rows = space.n, space.min_nbhd
    ones = everything(n)
    in_ic = list(meet_rows(rows, in_cl, n))
    # the columns of R(A) = A minus Int A, then of Int Cl R
    rest = [h ^ (h & i) for h, i in zip(columns(n), in_int)]
    in_icr = meet_rows(rows, list(join_rows(rows, rest)), n)
    return OpennessGrades(
        preopen=SetFamily.from_bits(within(in_ic, n)),
        beta_open=SetFamily.from_bits(within(join_rows(rows, in_ic), n)),
        nowhere_dense=SetFamily.from_bits(ones ^ reduce(or_, in_ic, 0)),
        regular_open=SetFamily.from_bits(fixed(in_ic, n)),
        simply_open=SetFamily.from_bits(ones ^ reduce(or_, in_icr, 0)),
    )
