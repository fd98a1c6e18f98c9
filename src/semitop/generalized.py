"""Generalized set classes built on the semi-kernel and its dual.

A subset B is g.Lambda_s when its semi-kernel sits inside every
semi-closed superset of B; since those supersets are closed under
intersection, that is the single containment

    semi_kernel(B) subset-of semi_closure(B)

and the sg-closed condition is the mirror image

    semi_closure(B) subset-of semi_kernel(B)

(a set is inside every semi-open superset of B iff it is inside their
intersection).  B is g.V_s when its complement is g.Lambda_s.

Family-wide, with in_k[x] the masks whose semi-kernel holds x when SO
is closed under unions (the union of has[y] over the y with x in K_y:
`lattice.join_rows` of the transposed point kernels) and down[x] the
masks whose semi-closure misses x (`lattice.spreads` of SC, downward):

    g.Lambda_s = AND_x ~(in_k[x] & down[x])
    sg-closed  = AND_x (in_k[x] | down[x])
    g.V_s      = g.Lambda_s mirrored
"""

from dataclasses import dataclass

from .lattice import columns, everything, join_rows, mirror, spreads, transpose
from .semi import SemiAnalysis
from .spaces import FiniteSpace, SetFamily


@dataclass(frozen=True)
class GeneralizedFamilies:
    """The three generalized families of one space."""

    d_lambda: SetFamily
    d_v: SetFamily
    sg_closed: SetFamily


def is_sg_closed(an: SemiAnalysis, b: int) -> bool:
    """Semi-closure of b inside every semi-open one; two per-query operators."""
    scl = an.semi_closure(b)
    return scl & an.semi_kernel(b) == scl


def is_g_lambda_s(an: SemiAnalysis, b: int) -> bool:
    """Semi-kernel of b inside every semi-closed one; two per-query operators."""
    kern = an.semi_kernel(b)
    return kern & an.semi_closure(b) == kern


def is_g_v_s(an: SemiAnalysis, b: int) -> bool:
    """Complement is g.Lambda_s; two per-query operators."""
    return is_g_lambda_s(an, an.space.complement(b))


def generalized_families(an: SemiAnalysis) -> GeneralizedFamilies:
    """The three families as bitsets, from in_k and down[x], each read
    once as built: the union of the K_x over x in B is the semi-kernel
    of B only when SO is closed under unions, as every SO of a topology is."""
    n = an.space.n
    in_k = join_rows(transpose(an.point_kernels), columns(n))
    escapes, sg = 0, everything(n)
    # down[x] first, so that in_k[x] is not alive while down[x] is built
    for down, in_kern in zip(spreads(an.semi_closed.bits, n, upward=False), in_k):
        escapes |= in_kern & down
        sg &= in_kern | down
    d_lambda = everything(n) ^ escapes
    return GeneralizedFamilies(
        d_lambda=SetFamily.from_bits(d_lambda),
        d_v=SetFamily.from_bits(mirror(d_lambda, n)),
        sg_closed=SetFamily.from_bits(sg),
    )


def derived_set(space: FiniteSpace) -> int:
    """Points that stay in the closure of the rest of the space: x is in
    Cl(X minus {x}) iff U_x meets X minus {x}, i.e. U_x is not {x}."""
    return sum(1 << x for x, u in enumerate(space.min_nbhd) if u != 1 << x)


def g_v_s_singletons(an: SemiAnalysis) -> int:
    """Mask of the points whose singleton is a g.V_s-set, read off SO.

    {x} is g.V_s iff B = X minus {x} is g.Lambda_s.  B has only B and X
    above it, so its semi-kernel is B if B is semi-open and X if not, and
    its semi-closure is B if B is semi-closed ({x} semi-open) and X if
    not.  The kernel escapes the closure only when it is X and the
    closure is B: {x} is g.V_s iff B is semi-open or {x} is not."""
    so, full = an.semi_open.bits, an.space.full
    return sum(1 << x for x in range(an.space.n)
               if so >> (full ^ 1 << x) & 1 or not so >> (1 << x) & 1)
