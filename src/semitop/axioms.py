"""Separation axiom checkers.

Each axiom is decided by its own definition; the textbook equivalences
between them are left to the law registry.  Every `*_witness` helper
returns the first counterexample in canonical order (ascending point
index, then ascending subset mask) or None, scanning the opens (or the
semi-open sets) for one that a closure escapes; `axiom_profile` renders
it.

For T1, semi-T1 and semi-T½ the `is_*` predicate is just "no witness".
R0 and semi-R0 are decided on the points instead, with no scan of a
family.  Both say: every (semi-)open set holding x holds the
(semi-)closure of {x}.  A set lies in each of those sets iff it lies in
their intersection, U_x (the point semi-kernel K_x), so the axiom is
the n containments

    R0       Cl{x}  inside U_x,   Cl{x}  = {y : x in U_y}
    semi-R0  sCl{x} inside K_x,   sCl{x} = {y : {x} not in down[y]}

and the scan finds a witness iff one of them fails.  For R0 this says
that the specialization preorder of `min_nbhd` is symmetric.
"""

from dataclasses import dataclass, field

from .generalized import GeneralizedFamilies, generalized_families
from .lattice import saturated
from .semi import SemiAnalysis
from .spaces import FiniteSpace, SetFamily, iter_points

AXIOM_KEYS = ("t1", "r0", "semi_t1", "semi_r0", "semi_t_half")


@dataclass(frozen=True)
class AxiomProfile:
    """The five axiom verdicts plus a rendered witness per failure."""

    t1: bool
    r0: bool
    semi_t1: bool
    semi_r0: bool
    semi_t_half: bool
    witnesses: dict = field(default_factory=dict, compare=False)

    def items(self):
        return [(k, getattr(self, k)) for k in AXIOM_KEYS]


def t1_witness(space: FiniteSpace):
    """First point whose singleton is not closed."""
    for x in range(space.n):
        if space.closure(1 << x) != 1 << x:
            return x
    return None


def is_t1(space: FiniteSpace) -> bool:
    return t1_witness(space) is None


def _first_escape(fam: SetFamily, hulls, n: int):
    """First (member, point) whose hull escapes the member, or None.

    The bad members are those not saturated under `hulls`; the lowest
    one is first in canonical order, then its first bad point.
    """
    bad = fam.bits & ~saturated(hulls, n)
    if not bad:
        return None
    o = (bad & -bad).bit_length() - 1
    return o, next(x for x in iter_points(o) if hulls[x] & ~o)


def r0_witness(space: FiniteSpace):
    """First (open, point) with the point's closure escaping the open."""
    hulls = [space.closure(1 << x) for x in range(space.n)]
    return _first_escape(space.opens, hulls, space.n)


def is_r0(space: FiniteSpace) -> bool:
    """Cl{x} inside U_x for every x: y in U_x whenever x in U_y."""
    nbhd = space.min_nbhd
    return all(nbhd[x] >> y & 1 for y, u in enumerate(nbhd)
               for x in iter_points(u))


def semi_t1_witness(an: SemiAnalysis):
    """First point whose singleton is not semi-closed."""
    for x in range(an.space.n):
        if 1 << x not in an.semi_closed:
            return x
    return None


def is_semi_t1(an: SemiAnalysis) -> bool:
    return semi_t1_witness(an) is None


def semi_r0_witness(an: SemiAnalysis):
    """First (semi-open, point) with the semi-closure escaping the set."""
    hulls = [an.semi_closure(1 << x) for x in range(an.space.n)]
    return _first_escape(an.semi_open, hulls, an.space.n)


def is_semi_r0(an: SemiAnalysis) -> bool:
    """sCl{x} inside K_x for every x: y is in sCl{x} iff the mask {x}
    is not in down[y]."""
    return all(kern >> y & 1 or down >> (1 << x) & 1
               for x, kern in enumerate(an.point_kernels)
               for y, down in enumerate(an.down))


def semi_t_half_witness(an: SemiAnalysis, fams: GeneralizedFamilies):
    """First sg-closed subset that is not semi-closed."""
    bad = fams.sg_closed.bits & ~an.semi_closed.bits
    return (bad & -bad).bit_length() - 1 if bad else None


def is_semi_t_half(an: SemiAnalysis, fams: GeneralizedFamilies) -> bool:
    return semi_t_half_witness(an, fams) is None


def axiom_profile(space: FiniteSpace,
                  analysis: SemiAnalysis | None = None,
                  families: GeneralizedFamilies | None = None) -> AxiomProfile:
    """Run all five axioms, collecting a witness for each failure."""
    an = analysis if analysis is not None else SemiAnalysis(space)
    fams = families if families is not None else generalized_families(an)
    witnesses = {}

    w = t1_witness(space)
    t1 = w is None
    if w is not None:
        witnesses["t1"] = (f"Cl({space.render(1 << w)}) = "
                           f"{space.render(space.closure(1 << w))}")

    w = r0_witness(space)
    r0 = w is None
    if w is not None:
        o, x = w
        witnesses["r0"] = (f"open {space.render(o)} contains {space.names[x]} "
                           f"but not Cl({space.render(1 << x)}) = "
                           f"{space.render(space.closure(1 << x))}")

    w = semi_t1_witness(an)
    semi_t1 = w is None
    if w is not None:
        witnesses["semi_t1"] = f"{space.render(1 << w)} is not semi-closed"

    w = semi_r0_witness(an)
    semi_r0 = w is None
    if w is not None:
        o, x = w
        witnesses["semi_r0"] = (f"semi-open {space.render(o)} contains "
                                f"{space.names[x]} but not sCl({space.render(1 << x)}) = "
                                f"{space.render(an.semi_closure(1 << x))}")

    w = semi_t_half_witness(an, fams)
    semi_t_half = w is None
    if w is not None:
        witnesses["semi_t_half"] = (f"{space.render(w)} is sg-closed "
                                    "but not semi-closed")

    return AxiomProfile(t1, r0, semi_t1, semi_r0, semi_t_half, witnesses)
