"""Slow independent reimplementations used to cross-check the package.

Everything here quantifies literally over the relevant family; nothing
reuses the cached kernels, the bit-sliced families, or the
single-containment rewrites from the package.
"""

from semitop.semi import SemiAnalysis
from semitop.spaces import FiniteSpace, space_from_masks

_LETTERS = "abcdefghijklmnopqrst"


def interior_oracle(space: FiniteSpace, a: int) -> int:
    acc = 0
    for o in space.opens:
        if o & a == o:
            acc |= o
    return acc


def closure_oracle(space: FiniteSpace, a: int) -> int:
    acc = space.full
    for o in space.opens:
        f = space.full ^ o
        if f & a == a:
            acc &= f
    return acc


def semi_open_oracle(space: FiniteSpace, a: int) -> bool:
    """Open witness form: some open O with O inside a inside Cl(O)."""
    for o in space.opens:
        if o & a == o and a & ~closure_oracle(space, o) == 0:
            return True
    return False


def semi_kernel_oracle(an: SemiAnalysis, b: int) -> int:
    acc = an.space.full
    for o in an.semi_open:
        if o & b == b:
            acc &= o
    return acc


def semi_closure_oracle(an: SemiAnalysis, b: int) -> int:
    acc = an.space.full
    for f in an.semi_closed:
        if f & b == b:
            acc &= f
    return acc


def v_s_oracle(an: SemiAnalysis, b: int) -> int:
    acc = 0
    for f in an.semi_closed:
        if f & b == f:
            acc |= f
    return acc


def sg_closed_oracle(an: SemiAnalysis, b: int) -> bool:
    """sCl(b) lands inside every semi-open superset of b."""
    scl = semi_closure_oracle(an, b)
    for o in an.semi_open:
        if o & b == b and scl & ~o:
            return False
    return True


def g_lambda_oracle(an: SemiAnalysis, b: int) -> bool:
    """Kernel of b lands inside every semi-closed superset of b."""
    kern = semi_kernel_oracle(an, b)
    for f in an.semi_closed:
        if f & b == b and kern & ~f:
            return False
    return True


def g_v_oracle(an: SemiAnalysis, b: int) -> bool:
    return g_lambda_oracle(an, an.space.full ^ b)


def t1_witness_oracle(space: FiniteSpace):
    for x in range(space.n):
        if closure_oracle(space, 1 << x) != 1 << x:
            return x
    return None


def r0_witness_oracle(space: FiniteSpace):
    """First (open, point) in ascending order, closure escaping the open."""
    cl = [closure_oracle(space, 1 << x) for x in range(space.n)]
    for o in sorted(space.opens):
        for x in range(space.n):
            if o >> x & 1 and cl[x] & ~o:
                return o, x
    return None


def semi_t1_witness_oracle(an: SemiAnalysis):
    """First point whose singleton's complement is not semi-open."""
    space = an.space
    for x in range(space.n):
        if not semi_open_oracle(space, space.full ^ (1 << x)):
            return x
    return None


def semi_r0_witness_oracle(an: SemiAnalysis):
    n = an.space.n
    scl = [semi_closure_oracle(an, 1 << x) for x in range(n)]
    for o in sorted(an.semi_open):
        for x in range(n):
            if o >> x & 1 and scl[x] & ~o:
                return o, x
    return None


def semi_t_half_witness_oracle(an: SemiAnalysis):
    """First sg-closed subset whose complement is not semi-open."""
    space = an.space
    for b in range(1 << space.n):
        if sg_closed_oracle(an, b) and \
                not semi_open_oracle(space, space.full ^ b):
            return b
    return None


def naive_is_topology(masks, n: int) -> bool:
    """Axioms checked directly on a candidate family."""
    fam = set(masks)
    if 0 not in fam or (1 << n) - 1 not in fam:
        return False
    for a in fam:
        for b in fam:
            if a | b not in fam or a & b not in fam:
                return False
    return True


def naive_topology_families(n: int) -> list:
    """Every topology on n labeled points by brute family filtering.

    Tries all 2**(2**n - 2) families containing the empty set and the
    carrier and keeps those closed under pairwise union and
    intersection.  Practical through n = 4; serves as the oracle for
    the table-driven generator.
    """
    if not 1 <= n <= 4:
        raise ValueError("naive filter is only practical for 1 <= n <= 4")
    full = (1 << n) - 1
    middles = list(range(1, full))
    out = []
    for choice in range(1 << len(middles)):
        members = [0, full]
        members += [m for i, m in enumerate(middles) if choice >> i & 1]
        index = frozenset(members)
        ok = True
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if (a | b) not in index or (a & b) not in index:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(sorted(index)))
    out.sort()
    return out


def random_space(rng, n: int, name=None) -> FiniteSpace:
    """Random topology via a random reachability preorder.

    Each point gets a few random out-neighbours; the transitive closure
    of that relation is the specialization preorder and the open sets
    are its up-closed sets.
    """
    nbhd = []
    for x in range(n):
        m = 1 << x
        for _ in range(rng.randrange(3)):
            m |= 1 << rng.randrange(n)
        nbhd.append(m)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = nbhd[x]
            for y in range(n):
                if nbhd[x] >> y & 1:
                    acc |= nbhd[y]
            if acc != nbhd[x]:
                nbhd[x] = acc
                changed = True
    opens = []
    for a in range(1 << n):
        for x in range(n):
            if a >> x & 1 and nbhd[x] & ~a:
                break
        else:
            opens.append(a)
    return space_from_masks(_LETTERS[:n], opens, name=name)


def random_lattice_space(rng, n: int, name=None) -> FiniteSpace:
    """Random topology by closing random generator masks under cup/cap."""
    fam = {0, (1 << n) - 1}
    for _ in range(rng.randrange(1, n + 2)):
        pending = [rng.randrange(1 << n)]
        while pending:
            cur = pending.pop()
            if cur in fam:
                continue
            for m in list(fam):
                for made in (cur | m, cur & m):
                    if made not in fam and made != cur:
                        pending.append(made)
            fam.add(cur)
    return space_from_masks(_LETTERS[:n], sorted(fam), name=name)
