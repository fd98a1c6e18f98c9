"""Separation axiom checkers.

Each axiom is decided by its own definition; the textbook equivalences
between them are left to the law registry.  Every `*_witness` helper
returns None when its axiom holds, else the first counterexample in
canonical order (ascending point index, then ascending subset mask),
which `axiom_profile` renders.

T1, R0 and semi-R0 read relations between points.  A point's closures
are the columns of its neighbourhood U_x and its semi-kernel K_x, the
`lattice.transpose` of their rows: Cl{x} = {y : x in U_y} and sCl{x} =
{y : x in K_y}, the latter for any family assigned as SO.  The
(semi-)open sets holding x meet in U_x (K_x), so R0 (semi-R0) says
Cl{x} inside U_x (sCl{x} inside K_x) for every x: the relation
"y in U_x" ("y in K_x") is symmetric.  `is_r0` and `is_semi_r0` decide
that, and a failing witness is then only located: for R0 the lowest
U_x that Cl{x} escapes, since every bad open holds such a U_x, for
semi-R0 a scan of SO.
"""

from dataclasses import dataclass, field

from .generalized import GeneralizedFamilies, generalized_families
from .lattice import first, saturated, transpose
from .semi import SemiAnalysis
from .spaces import FiniteSpace, iter_points

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


def _escape(o: int, hulls) -> tuple:
    """(o, its first point whose hull escapes o)."""
    return o, next(x for x in iter_points(o) if hulls[x] & ~o)


def t1_witness(space: FiniteSpace):
    """First point whose singleton is not closed."""
    for x, cl in enumerate(transpose(space.min_nbhd)):
        if cl != 1 << x:
            return x
    return None


def is_t1(space: FiniteSpace) -> bool:
    return t1_witness(space) is None


def r0_witness(space: FiniteSpace):
    """First (open, point) with the point's closure escaping the open."""
    if is_r0(space):
        return None
    nbhd = space.min_nbhd
    cl = transpose(nbhd)
    return _escape(min(u for u, c in zip(nbhd, cl) if c & ~u), cl)


def is_r0(space: FiniteSpace) -> bool:
    """Cl{x} inside U_x for every x: y in U_x whenever x in U_y."""
    return transpose(space.min_nbhd) == list(space.min_nbhd)


def semi_t1_witness(an: SemiAnalysis):
    """First point whose singleton is not semi-closed."""
    singles = sum(1 << (1 << x) for x in range(an.space.n))   # the masks 1 << x
    bad = singles ^ (singles & an.semi_closed.bits)
    return first(bad).bit_length() - 1 if bad else None


def is_semi_t1(an: SemiAnalysis) -> bool:
    return semi_t1_witness(an) is None


def semi_r0_witness(an: SemiAnalysis):
    """First (semi-open, point) with the semi-closure escaping the set."""
    if is_semi_r0(an):
        return None
    hulls, so = transpose(an.point_kernels), an.semi_open.bits
    bad = so ^ (so & saturated(hulls, an.space.n))
    return _escape(first(bad), hulls)


def is_semi_r0(an: SemiAnalysis) -> bool:
    """sCl{x} inside K_x for every x: y in K_x whenever x in K_y."""
    return transpose(an.point_kernels) == list(an.point_kernels)


def semi_t_half_witness(an: SemiAnalysis, fams: GeneralizedFamilies):
    """First sg-closed subset that is not semi-closed."""
    bad = fams.sg_closed.bits ^ (fams.sg_closed.bits & an.semi_closed.bits)
    return first(bad) if bad else None


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
                                f"{space.render(transpose(an.point_kernels)[x])}")

    w = semi_t_half_witness(an, fams)
    semi_t_half = w is None
    if w is not None:
        witnesses["semi_t_half"] = (f"{space.render(w)} is sg-closed "
                                    "but not semi-closed")

    return AxiomProfile(t1, r0, semi_t1, semi_r0, semi_t_half, witnesses)
