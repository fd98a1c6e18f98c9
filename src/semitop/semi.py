"""Semi-open set machinery for one finite space, on one bit-sliced core.

Every family is a 2**n-bit integer over the subset lattice (see
`lattice`: has[x] marks the masks containing x, lack[x] the others,
sup(S) the supersets of S).  With U_x the minimal neighbourhood of x,
A is semi-open iff A is inside Cl(Int(A)), i.e. every x in A has some
y in U_x with U_y inside A:

    SO  = AND_x (lack[x] | OR_{y in U_x} sup(U_y))
    SC  = SO mirrored (bit m -> bit full^m)
    K_x = {z : SO & has[x] & lack[z] == 0}        point semi-kernels
    up[x]   = supersets of the semi-closed sets containing x
    down[y] = subsets of the semi-closed sets avoiding y

`up` and `down` are the subset-sum spreads of SC & has[x] and
SC & lack[y], all n of each from one `lattice.spreads` pass.  The
fixed-point families and the per-query operators read off them:

    Lambda_s        = AND_x (lack[x] | sup(K_x))    (`lattice.saturated`)
    V_s             = AND_x (lack[x] | up[x])
    semi_kernel(B)  = union of K_x over x in B
    semi_closure(B) = {y : B not in down[y]}
    v_s(B)          = {x : B in up[x]}      (B in up[x] needs x in B)

Per-query tests read byte views of up/down, O(1) each at any n; each
view is built on the first query that reads it, so a caller that only
reads the families pays for none.

The openness grades of `set_class` come as families too
(`openness_grades`), from the columns of Cl and Int over all masks A:

    in_int[x] = sup(U_x)                        x in Int A
    in_cl[y]  = OR_{z in U_y} has[z]            y in Cl A
    in_ic[x]  = AND_{y in U_x} in_cl[y]         x in Int Cl A

    preopen       = AND_x (lack[x] | in_ic[x])
    beta-open     = AND_x (lack[x] | OR_{y in U_x} in_ic[y])
    nowhere dense = AND_x ~in_ic[x]
    regular open  = AND_x ~(has[x] ^ in_ic[x])
    simply open   = nowhere dense, with has[z] & ~in_int[z] (the part
                    of A outside Int A) in place of has[z]
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .lattice import (columns, everything, meets, mirror, saturated, spreads,
                      sup)
from .spaces import FiniteSpace, SetFamily, iter_points


class SemiAnalysis:
    """Semi-open structure of a fixed space."""

    def __init__(self, space: FiniteSpace):
        self.space = space
        n = space.n
        so = semi_open_bits(space)
        sc = mirror(so, n)
        self.semi_open = SetFamily.from_bits(so)
        self.semi_closed = SetFamily.from_bits(sc)
        self.point_kernels = tuple(meets(so, n))
        self.up = spreads(sc, n, upward=True)
        self.down = spreads(sc, n, upward=False)

    def _views(self, cols) -> list:
        nbytes = ((1 << self.space.n) + 7) // 8
        return [b.to_bytes(nbytes, "little") for b in cols]

    @cached_property
    def _up_view(self) -> list:
        return self._views(self.up)

    @cached_property
    def _down_view(self) -> list:
        return self._views(self.down)

    # -- per-query operators ------------------------------------------

    def semi_closure(self, b: int) -> int:
        """Smallest semi-closed superset of b."""
        self.space.check_mask(b)
        i, bit = b >> 3, 1 << (b & 7)
        out = 0
        for y, view in enumerate(self._down_view):
            if not view[i] & bit:
                out |= 1 << y
        return out

    def semi_kernel(self, b: int) -> int:
        """Intersection of the semi-open supersets of b, via point kernels."""
        self.space.check_mask(b)
        acc = 0
        for x in iter_points(b):
            acc |= self.point_kernels[x]
        return acc

    def v_s(self, b: int) -> int:
        """Union of the semi-closed subsets of b."""
        self.space.check_mask(b)
        i, bit = b >> 3, 1 << (b & 7)
        out = 0
        for x, view in enumerate(self._up_view):
            if view[i] & bit:
                out |= 1 << x
        return out

    def is_lambda_s_set(self, b: int) -> bool:
        return self.semi_kernel(b) == b

    def is_v_s_set(self, b: int) -> bool:
        return self.v_s(b) == b

    # -- fixed-point families -----------------------------------------

    def lambda_s_sets(self) -> SetFamily:
        """All subsets equal to their semi-kernel."""
        return SetFamily.from_bits(saturated(self.point_kernels, self.space.n))

    def v_s_sets(self) -> SetFamily:
        """All subsets equal to the union of their semi-closed subsets."""
        n = self.space.n
        lack = columns(n)[1]
        out = everything(n)
        for x, up in enumerate(self.up):
            out &= lack[x] | up
        return SetFamily.from_bits(out)


def semi_open_bits(space: FiniteSpace) -> int:
    """SO as one family: the only part of `SemiAnalysis` that reads the
    topology; everything else there follows from SO and n."""
    n = space.n
    lack = columns(n)[1]
    # in_int[y]: the masks A with y in Int(A), i.e. U_y inside A
    in_int = [sup(u, n) for u in space.min_nbhd]
    so = everything(n)
    for x, u in enumerate(space.min_nbhd):
        in_cl_int = 0
        for y in iter_points(u):
            in_cl_int |= in_int[y]
        so &= lack[x] | in_cl_int
    return so


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


def closure_columns(space: FiniteSpace, in_s) -> list:
    """Per point y, the masks A with y in Cl S(A), where in_s[z] holds
    the masks A with z in S(A): y is in Cl S(A) iff U_y meets S(A)."""
    out = []
    for u in space.min_nbhd:
        col = 0
        for z in iter_points(u):
            col |= in_s[z]
        out.append(col)
    return out


def openness_grades(space: FiniteSpace) -> OpennessGrades:
    """Grade every mask at once: the families of `set_class`'s fields."""
    n = space.n
    has, lack = columns(n)
    ones = everything(n)
    nbhd = space.min_nbhd

    def in_int_cl(in_s):
        """Per point x, the masks A with x in Int Cl S(A), where in_s[z]
        holds the masks A with z in S(A)."""
        in_cl = closure_columns(space, in_s)
        out = []
        for u in nbhd:
            col = ones
            for y in iter_points(u):
                col &= in_cl[y]
            out.append(col)
        return out

    in_ic = in_int_cl(has)
    in_ic_rest = in_int_cl([has[z] & ~sup(u, n) for z, u in enumerate(nbhd)])
    pre = beta = regular = ones
    dense_somewhere = rest_dense_somewhere = 0
    for x, u in enumerate(nbhd):
        pre &= lack[x] | in_ic[x]
        in_cic = 0
        for y in iter_points(u):
            in_cic |= in_ic[y]
        beta &= lack[x] | in_cic
        regular &= ones ^ has[x] ^ in_ic[x]
        dense_somewhere |= in_ic[x]
        rest_dense_somewhere |= in_ic_rest[x]
    return OpennessGrades(
        preopen=SetFamily.from_bits(pre),
        beta_open=SetFamily.from_bits(beta),
        nowhere_dense=SetFamily.from_bits(ones ^ dense_somewhere),
        regular_open=SetFamily.from_bits(regular),
        simply_open=SetFamily.from_bits(ones ^ rest_dense_somewhere),
    )
