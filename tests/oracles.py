"""Slow independent reimplementations used to cross-check the package.

Everything here quantifies literally over the relevant family.  The
operator oracles reuse none of the cached kernels, the bit-sliced
families or the single-containment rewrites of the package; the law
checker oracles at the end read the same `SpaceContext` entries as the
checkers they mirror and differ from them only in quantifying mask by
mask.
"""

from functools import lru_cache, reduce
from itertools import product
from operator import and_, or_

from semitop.lattice import decode, encode, saturated
from semitop.laws import _Fail
from semitop.semi import SemiAnalysis
from semitop.spaces import (FiniteSpace, SetFamily, _canonical_form,
                            space_from_masks, submasks)

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


@lru_cache(maxsize=8)
def _open_closures(space: FiniteSpace) -> tuple:
    """(O, Cl(O)) for every open O, each closure taken literally once."""
    return tuple((o, closure_oracle(space, o)) for o in space.opens)


def semi_open_oracle(space: FiniteSpace, a: int) -> bool:
    """Open witness form: some open O with O inside a inside Cl(O)."""
    for o, cl in _open_closures(space):
        if o & a == o and a & ~cl == 0:
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


def derived_set_oracle(space: FiniteSpace) -> int:
    """The x with x in Cl(X minus {x}), each closure taken literally."""
    return sum(1 << x for x in range(space.n)
               if closure_oracle(space, space.full ^ 1 << x) >> x & 1)


def levine_sets_oracle(space: FiniteSpace) -> int:
    """The union over the opens O of the interval [O, Cl(O)], as a
    bitset of masks."""
    out = set()
    for o, cl in _open_closures(space):
        out.update(o | gap for gap in submasks(cl & ~o))
    return encode(out)


def dense_in_regular_closed_oracle(space: FiniteSpace) -> int:
    """The masks m dense in some regular closed r (r = Cl(Int(r))):
    m <= r <= Cl(m), as a bitset of masks."""
    masks = range(1 << space.n)
    reg_closed = [r for r in masks
                  if closure_oracle(space, interior_oracle(space, r)) == r]
    out = set()
    for m in masks:
        cl = closure_oracle(space, m)
        if any(m & ~r == 0 and r & ~cl == 0 for r in reg_closed):
            out.add(m)
    return encode(out)


def open_plus_nowhere_dense_oracle(space: FiniteSpace) -> int:
    """The masks u | d with u open and d nowhere dense (Int Cl d empty),
    as a bitset of masks."""
    masks = range(1 << space.n)
    nowhere_dense = [d for d in masks
                     if interior_oracle(space, closure_oracle(space, d)) == 0]
    return encode(u | d for u in space.opens for d in nowhere_dense)


def union_closure_oracle(members) -> tuple:
    """The unions of the non-empty subfamilies of `members`, ascending:
    pairwise unions added until none is new."""
    closed = set(members)
    while new := {a | b for a in closed for b in closed} - closed:
        closed |= new
    return tuple(sorted(closed))


def spread_oracle(members, n: int, upward: bool) -> tuple:
    """Every superset (upward) or subset (downward) of a member,
    ascending: a mask is in it iff it is a member or a point away from
    a mask in it, filled in from the bottom (upward) or the top."""
    inside = [False] * (1 << n)
    for m in members:
        inside[m] = True
    order = range(1 << n) if upward else reversed(range(1 << n))
    for m in order:
        inside[m] = inside[m] or any(
            inside[m ^ 1 << x] for x in range(n) if (m >> x & 1) == upward)
    return tuple(m for m, v in enumerate(inside) if v)


def spread_where_oracle(members, cols, n: int, upward: bool) -> tuple:
    """Point by point in ascending order, every member m lacking x with
    m in cols[x] adds m | {x} (upward), or every member m | {x} with m
    in cols[x] adds m (downward); the members at the end, ascending."""
    out = set(members)
    for x, col in enumerate(cols):
        out |= {m ^ 1 << x for m in out
                if (m >> x & 1) != upward and col >> (m & ~(1 << x)) & 1}
    return tuple(sorted(out))


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


@lru_cache(maxsize=None)
def classes_unfiltered(n: int) -> tuple:
    """The canonical tables of the n-point classes, grown as
    `catalog._classes` grows them but with every candidate topology
    canonicalised, whichever point it was grown by."""
    if n == 0:
        return ((),)
    p = 1 << n - 1
    forms = set()
    for table in classes_unfiltered(n - 1):
        opens = decode(saturated(table, n - 1))
        for a, o in product(opens, opens):
            grown = [u if o >> x & 1 else u | p for x, u in enumerate(table)]
            if all(a & ~u == 0 for u in grown if u & p):
                forms.add(_canonical_form(tuple(grown + [a | p])))
    return tuple(sorted(forms))


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


def relabeled(space: FiniteSpace, perm) -> FiniteSpace:
    """The same space with point x moved to index perm[x], its label
    going with it: a homeomorphic copy with another table."""
    def move(mask):
        return sum(1 << perm[x] for x in range(space.n) if mask >> x & 1)

    names = [None] * space.n
    mins = [0] * space.n
    for x, to in enumerate(perm):
        names[to] = space.names[x]
        mins[to] = move(space.min_nbhd[x])
    return space_from_masks(names, SetFamily.from_bits(saturated(mins, space.n)))


def sierpinski_copies(k: int, isolated: int = 0) -> FiniteSpace:
    """k disjoint Sierpinski spaces, open points o0.. and closed points
    c0.., beside `isolated` isolated points i0..: k!**2 orderings keep
    the kinds apart, and only isolated points can be twins."""
    names, mins = [], []
    for i in range(k):
        names += [f"o{i}", f"c{i}"]
        mins += [1 << 2 * i, 3 << 2 * i]
    for i in range(isolated):
        names.append(f"i{i}")
        mins.append(1 << len(mins))
    return space_from_masks(names, SetFamily.from_bits(saturated(mins, len(names))))


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


# -- literal law checkers ---------------------------------------------
#
# The per-mask forms of the bit-sliced checkers in `semitop.laws`.  Each
# reads the same `SpaceContext` entries as its checker, or a per-mask
# table of operator values built from them by a plain loop (the kernel
# table from `kern_cols`, the `v_s` table from `ctx.up`, the Cl and Int
# tables from `in_cl` and `in_int`), so a corrupted
# entry reaches both, and scans masks, SC, SO or a generalized family in
# ascending order to the first offender.  The verdict laws read the
# context's axiom verdicts, and example-2-digital-line takes the closure
# of each even singleton literally.  prop-3.2b/d/i/j decide by the
# pair scan of their statement (finite associativity extends pairs to
# any finite family), then report the first nested pair a <= b where the
# operator is not monotone, or else the first escaping union.  The
# closure laws test each mask c: it is a union of members iff the
# members inside c cover it, an intersection iff the members above c
# meet in it.  prop-3.2c composes the kernel table with itself at every
# mask.  prop-4.9-sandwich walks the sets between each g.Λ_s member and
# its kernel, then reports the lowest escaping set and the lowest member
# under it.  defn-semi-open-levine and defn-beta-open try every open O
# and every regular closed r for each mask, as their statements read.

def _masks(ctx) -> range:
    return range(1 << ctx.space.n)


def _table(cols, n: int) -> list:
    """table[m]: the points z with mask m in cols[z]."""
    return [sum(1 << z for z, col in enumerate(cols) if col >> m & 1)
            for m in range(1 << n)]


def _kern_table(ctx) -> list:
    """kern[m] is the semi-kernel of m, read off `kern_cols`."""
    return _table(ctx.kern_cols, ctx.space.n)


def _vs_table(ctx) -> list:
    """vs[m] is v_s(m): the points x with m in the context's up[x]."""
    return _table(ctx.up, ctx.space.n)


def prop_3_2a_law_oracle(ctx):
    kern = _kern_table(ctx)
    for b in _masks(ctx):
        if b & ~kern[b]:
            return _Fail((b,), (), "subset escapes its semi-kernel")


def prop_3_2c_law_oracle(ctx):
    kern = _kern_table(ctx)
    for b in _masks(ctx):
        if kern[kern[b]] != kern[b]:
            return _Fail((b,), (), "semi-kernel not idempotent")


def prop_3_2e_law_oracle(ctx):
    kern = _kern_table(ctx)
    for a in ctx.semi_open:
        if kern[a] != a:
            return _Fail((a,), (), "semi-open set moved by its semi-kernel")


def prop_3_2f_law_oracle(ctx):
    full, kern, vs = ctx.space.full, _kern_table(ctx), _vs_table(ctx)
    for b in _masks(ctx):
        if kern[full ^ b] != full ^ vs[b]:
            return _Fail((b,), (), "kernel of complement differs from complement of dual")


def prop_3_2g_law_oracle(ctx):
    vs = _vs_table(ctx)
    for b in _masks(ctx):
        if vs[b] & ~b:
            return _Fail((b,), (), "dual operator escapes its argument")


def prop_3_2h_law_oracle(ctx):
    vs = _vs_table(ctx)
    for f in ctx.semi_closed:
        if vs[f] != f:
            return _Fail((f,), (), "semi-closed set moved by the dual operator")


def prop_3_7d_law_oracle(ctx):
    full, kern, vs = ctx.space.full, _kern_table(ctx), _vs_table(ctx)
    for b in _masks(ctx):
        if (kern[b] == b) != (vs[full ^ b] == full ^ b):
            return _Fail((b,), (), "kernel-fixed and dual-fixed complements disagree")


def prop_3_7a_law_oracle(ctx):
    full, kern, vs = ctx.space.full, _kern_table(ctx), _vs_table(ctx)
    if kern[0] != 0 or kern[full] != full:
        return _Fail((), (), "empty set or carrier moved by the semi-kernel")
    if vs[0] != 0 or vs[full] != full:
        return _Fail((), (), "empty set or carrier moved by the dual")


def prop_3_8_law_oracle(ctx):
    kern, vs = _kern_table(ctx), _vs_table(ctx)
    every_lam = all(kern[m] == m for m in _masks(ctx))
    every_vs = all(vs[m] == m for m in _masks(ctx))
    if not ctx.semi_t1 == every_lam == every_vs:
        return _Fail((), (), f"semi_t1={ctx.semi_t1} but kernel-fixed-all={every_lam}, dual-fixed-all={every_vs}")


def semi_r0_union_law_oracle(ctx):
    unions_ok = True
    for o in ctx.semi_open:
        u = 0
        for f in ctx.semi_closed:
            if f & o == f:
                u |= f
        if u != o:
            unions_ok = False
            break
    if ctx.semi_r0 != unions_ok:
        return _Fail((), (), f"semi_r0={ctx.semi_r0} but semi-open-as-union-of-semi-closed={unions_ok}")


def prop_4_5ab_law_oracle(ctx):
    kern, vs = _kern_table(ctx), _vs_table(ctx)
    for m in _masks(ctx):
        if kern[m] == m and m not in ctx.fams.d_lambda:
            return _Fail((m,), (), "kernel-fixed set missing from the generalized family")
        if vs[m] == m and m not in ctx.fams.d_v:
            return _Fail((m,), (), "dual-fixed set missing from the dual generalized family")


def remark_4_7_law_oracle(ctx):
    for o in ctx.semi_open:
        if o not in ctx.fams.d_lambda:
            return _Fail((o,), (), "semi-open set outside the generalized family")
    for f in ctx.semi_closed:
        if f not in ctx.fams.d_v:
            return _Fail((f,), (), "semi-closed set outside the dual generalized family")


def remark_5_2_law_oracle(ctx):
    for f in ctx.semi_closed:
        if f not in ctx.fams.sg_closed:
            return _Fail((f,), (), "semi-closed set that is not sg-closed")


def thm_5_3_law_oracle(ctx):
    vs = _vs_table(ctx)
    every_fixed = all(vs[b] == b for b in ctx.fams.d_v)
    if ctx.semi_t_half != every_fixed:
        return _Fail((), (), f"semi_t_half={ctx.semi_t_half} but dual-generalized-all-fixed={every_fixed}")


def _vs_fixed(ctx) -> set:
    vs = _vs_table(ctx)
    return {m for m in _masks(ctx) if vs[m] == m}


def semi_t1_v_sets_law_oracle(ctx):
    fixed, g = _vs_fixed(ctx), ctx.grades
    pre = all(m in fixed for m in _masks(ctx) if m in g.preopen)
    beta = all(m in fixed for m in _masks(ctx) if m in g.beta_open)
    if not ctx.semi_t1 == pre == beta:
        return _Fail((), (), f"semi_t1={ctx.semi_t1} but preopen-fixed={pre}, beta-fixed={beta}")


def semi_r0_v_sets_law_oracle(ctx):
    fixed = _vs_fixed(ctx)
    so_fixed = all(o in fixed for o in ctx.semi_open)
    open_fixed = all(o in fixed for o in ctx.space.opens)
    simply_fixed = all(m in fixed
                       for m in _masks(ctx) if m in ctx.grades.simply_open)
    if not ctx.semi_r0 == so_fixed == open_fixed == simply_fixed:
        return _Fail((), (), f"semi_r0={ctx.semi_r0} but semi-open-fixed={so_fixed}, open-fixed={open_fixed}, simply-open-fixed={simply_fixed}")


def semi_t1_semi_r0_law_oracle(ctx):
    if ctx.semi_t1 and not ctx.semi_r0:
        return _Fail((), (), "semi_t1 space that is not semi_r0")


def r0_semi_r0_law_oracle(ctx):
    if ctx.r0 and not ctx.semi_r0:
        return _Fail((), (), "r0 space that is not semi_r0")


def digital_line_law_oracle(ctx):
    verdicts = (ctx.t1, ctx.r0, ctx.semi_t1, ctx.semi_r0)
    if verdicts != (False, False, True, True):
        return _Fail((), (), "expected t1=false r0=false semi_t1=true semi_r0=true, got {}/{}/{}/{}".format(*verdicts))
    space = ctx.space
    ints = [int(lab) for lab in space.names]
    for x, value in enumerate(ints):
        single = 1 << x
        if value % 2 == 0 and closure_oracle(space, single) != single:
            return _Fail((single,), (x,), "even singleton is not closed")
        if value % 2 and min(ints) < value < max(ints) and \
                single not in ctx.grades.regular_open:
            return _Fail((single,), (x,), "interior odd singleton is not regular open")


def singleton_dichotomy_law_oracle(ctx):
    g = ctx.grades
    for x in range(ctx.space.n):
        if 1 << x not in g.preopen and 1 << x not in g.nowhere_dense:
            return _Fail((1 << x,), (x,), "singleton neither preopen nor nowhere dense")


def semi_open_levine_law_oracle(ctx):
    opens, cl = ctx.space.opens, _table(ctx.in_cl, ctx.space.n)
    for m in _masks(ctx):
        witnessed = any(o & ~m == 0 and m & ~cl[o] == 0 for o in opens)
        if witnessed != (m in ctx.semi_open):
            return _Fail((m,), (), "open-witness and interior/closure forms disagree")


def beta_open_law_oracle(ctx):
    space, n = ctx.space, ctx.space.n
    cl, interior = _table(ctx.in_cl, n), _table(ctx.in_int, n)
    # the checker takes Cl of the Int columns through the topology
    reg_closed = [r for r in _masks(ctx) if r == space.closure(interior[r])]
    for m in _masks(ctx):
        dense = any(m & ~r == 0 and r & ~cl[m] == 0 for r in reg_closed)
        if dense != (m in ctx.grades.beta_open):
            return _Fail((m,), (), "dense-in-regular-closed and closure-composite forms disagree")


def simply_open_law_oracle(ctx):
    g = ctx.grades
    for m in _masks(ctx):
        split = any(u & ~m == 0 and (m & ~u) in g.nowhere_dense
                    for u in ctx.space.opens)
        if split != (m in g.simply_open):
            return _Fail((m,), (), "open-plus-nowhere-dense and boundary forms disagree")


def beta_containments_law_oracle(ctx):
    g = ctx.grades
    for m in _masks(ctx):
        if (m in g.preopen or m in ctx.semi_open) and m not in g.beta_open:
            return _Fail((m,), (), "preopen or semi-open set that is not beta-open")


def prop_4_8_law_oracle(ctx):
    """{x} is semi-open or {x}^c is g.Λ_s, as the registry quotes it."""
    full = ctx.space.full
    for x in range(ctx.space.n):
        single = 1 << x
        if single not in ctx.semi_open and full ^ single not in ctx.fams.d_lambda:
            return _Fail((single,), (x,), "singleton neither semi-open nor complement-generalized")


def prop_4_9_law_oracle(ctx):
    kern, dl = _kern_table(ctx), ctx.fams.d_lambda
    found = []
    for a in dl:
        if a & ~kern[a]:
            continue    # no C with a <= C <= K(a)
        for gap in submasks(kern[a] & ~a):
            if (a | gap) not in dl:
                found.append((a | gap, a))
    if found:
        c, a = min(found)
        return _Fail((a, c), (), "set between a generalized set and its kernel escapes the family")


def prop_4_10_law_oracle(ctx):
    sc = ctx.semi_closed.members
    so = ctx.semi_open.members
    kern, vs = _kern_table(ctx), _vs_table(ctx)
    for b in _masks(ctx):
        bc = ctx.space.full ^ b
        kc = kern[bc]
        by_complement = True
        for f in sc:
            if f & bc == bc and kc & ~f:
                by_complement = False
                break
        vs_b = vs[b]
        by_semi_open = True
        for u in so:
            if u & b == u and u & ~vs_b:
                by_semi_open = False
                break
        if by_complement != by_semi_open:
            return _Fail((b,), (), f"complement route {by_complement} vs semi-open route {by_semi_open}")


def cor_4_11_law_oracle(ctx):
    full, vs = ctx.space.full, _vs_table(ctx)
    for b in ctx.fams.d_v:
        t = vs[b] | full ^ b
        for f in ctx.semi_closed:
            if t & ~f == 0 and f != full:
                return _Fail((b, f), (), "proper semi-closed set above dual-union of a generalized set")


def cor_4_12_law_oracle(ctx):
    full, vs = ctx.space.full, _vs_table(ctx)
    for b in ctx.fams.d_v:
        closed_side = (vs[b] | full ^ b) in ctx.semi_closed
        fixed_side = vs[b] == b
        if closed_side != fixed_side:
            return _Fail((b,), (), f"semi-closed test {closed_side} vs dual-fixed test {fixed_side}")


def prop_4_13_law_oracle(ctx):
    full, vs = ctx.space.full, _vs_table(ctx)
    for b in _masks(ctx):
        if vs[b] not in ctx.semi_closed:
            continue
        t = vs[b] | full ^ b
        if all(f == full for f in ctx.semi_closed if t & ~f == 0):
            if b not in ctx.fams.d_v:
                return _Fail((b,), (), "hypotheses hold but the set is not dual-generalized")


def _nested_pair(op, masks):
    """The first (a, b) with a inside b and op(a) escaping op(b)."""
    return next(((a, b) for a in masks for b in masks
                 if a & ~b == 0 and op[a] & ~op[b]), None)


def _is_union_of(c, members) -> bool:
    """c is the union of a non-empty subfamily of `members`."""
    inside = [b for b in members if b & ~c == 0]
    return bool(inside) and reduce(or_, inside) == c


def _first_escaping(fam, masks, full, what, dual=False):
    """The first mask outside fam that is a union of its members (with
    `dual`, an intersection: the members above it meet in it)."""
    for c in masks:
        if c in fam:
            continue
        if dual:
            above = [b for b in fam if c & ~b == 0]
            made = bool(above) and reduce(and_, above, full) == c
        else:
            made = _is_union_of(c, fam)
        if made:
            return _Fail((c,), (), f"{what} leaves the family")
    return None


def prop_3_2b_law_oracle(ctx):
    kern, masks = _kern_table(ctx), _masks(ctx)
    for a in masks:
        for b in masks:
            if a & ~b == 0 and kern[a] & ~kern[b]:
                return _Fail((a, b), (), "semi-kernel not monotone")


def prop_3_2d_law_oracle(ctx):
    kern, masks = _kern_table(ctx), _masks(ctx)
    if all(kern[a | b] == kern[a] | kern[b] for a in masks for b in masks):
        return None
    pair = _nested_pair(kern, masks)
    if pair:
        return _Fail(pair, (), "kernel of union differs from union of kernels")
    missing = [[b for b in masks if not kern[b] >> z & 1]
               for z in range(ctx.space.n)]
    for c in masks:
        for z, without_z in enumerate(missing):
            if kern[c] >> z & 1 and _is_union_of(c, without_z):
                return _Fail((c,), (z,), "kernel of a union holds a point outside the members' kernels")


def prop_3_2i_law_oracle(ctx):
    kern, masks = _kern_table(ctx), _masks(ctx)
    for a in masks:
        for b in masks:
            if kern[a & b] & ~(kern[a] & kern[b]):
                return _Fail((a, b), (), "kernel of intersection escapes the kernels")


def prop_3_2j_law_oracle(ctx):
    vs, masks = _vs_table(ctx), _masks(ctx)
    if all((vs[a] | vs[b]) & ~vs[a | b] == 0 for a in masks for b in masks):
        return None
    return _Fail(_nested_pair(vs, masks), (), "dual of union misses a dual")


def _kern_fixed(ctx) -> set:
    kern = _kern_table(ctx)
    return {m for m in _masks(ctx) if kern[m] == m}


def prop_3_7b_law_oracle(ctx):
    masks, full = _masks(ctx), ctx.space.full
    return (_first_escaping(_kern_fixed(ctx), masks, full, "union of kernel-fixed sets")
            or _first_escaping(_vs_fixed(ctx), masks, full, "union of dual-fixed sets"))


def prop_3_7c_law_oracle(ctx):
    masks, full = _masks(ctx), ctx.space.full
    return (_first_escaping(_kern_fixed(ctx), masks, full,
                            "intersection of kernel-fixed sets", dual=True)
            or _first_escaping(_vs_fixed(ctx), masks, full,
                               "intersection of dual-fixed sets", dual=True))


def prop_4_5cd_law_oracle(ctx):
    masks, full = _masks(ctx), ctx.space.full
    return (_first_escaping(ctx.fams.d_lambda, masks, full,
                            "union of generalized sets")
            or _first_escaping(ctx.fams.d_v, masks, full,
                               "intersection of dual-generalized sets",
                               dual=True))


# -- literal row forms ------------------------------------------------
#
# The forms of the factories `_inside`, `_under`, `_singletons`, `_iff`
# and `_implies` in `semitop.laws`, for rows the registry does not hold.
# Each reads a row's families or operator columns by their
# `SpaceContext` attribute paths and quantifies mask by mask, or point
# by point, in ascending order.

def _read(ctx, path: str):
    return reduce(getattr, path.split("."), ctx)


def inside_rows_oracle(*rows):
    def scan(ctx):
        fams = [(_read(ctx, p), _read(ctx, q), message) for p, q, message in rows]
        for m in _masks(ctx):
            for p, q, message in fams:
                if p >> m & 1 and not q >> m & 1:
                    return _Fail((m,), (), message)
    return scan


def under_oracle(f, g, message: str):
    """An operator of None is the identity."""
    def scan(ctx):
        n = ctx.space.n
        fs, gs = (list(_masks(ctx)) if op is None else _table(_read(ctx, op), n)
                  for op in (f, g))
        for m in _masks(ctx):
            if fs[m] & ~gs[m]:
                return _Fail((m,), (), message)
    return scan


def singletons_oracle(message: str, *rows):
    """A row (fam, dual) with `dual` holds X∖{x}, not {x}."""
    def scan(ctx):
        full = ctx.space.full
        for x in range(ctx.space.n):
            single = 1 << x
            if not any((full ^ single if dual else single) in SetFamily.from_bits(_read(ctx, fam))
                       for fam, dual in rows):
                return _Fail((single,), (x,), message)
    return scan


def iff_rows_oracle(verdict: str, *rows):
    """A P of None is every subset."""
    def scan(ctx):
        v, oks = getattr(ctx, verdict), []
        for p, q, _ in rows:
            every = _masks(ctx) if p is None else SetFamily.from_bits(_read(ctx, p))
            oks.append(all(_read(ctx, q) >> m & 1 for m in every))
        if any(ok != v for ok in oks):
            return _Fail((), (), f"{verdict}={v} but " + ", ".join(
                f"{label}={ok}" for (_, _, label), ok in zip(rows, oks)))
    return scan


def implies_oracle(a: str, b: str):
    def scan(ctx):
        if getattr(ctx, a) and not getattr(ctx, b):
            return _Fail((), (), f"{a} space that is not {b}")
    return scan


LAW_ORACLES = {
    "prop-3.2a": prop_3_2a_law_oracle,
    "prop-3.2b": prop_3_2b_law_oracle,
    "prop-3.2c": prop_3_2c_law_oracle,
    "prop-3.2d": prop_3_2d_law_oracle,
    "prop-3.2e": prop_3_2e_law_oracle,
    "prop-3.2f": prop_3_2f_law_oracle,
    "prop-3.2g": prop_3_2g_law_oracle,
    "prop-3.2h": prop_3_2h_law_oracle,
    "prop-3.2i": prop_3_2i_law_oracle,
    "prop-3.2j": prop_3_2j_law_oracle,
    "prop-3.7a": prop_3_7a_law_oracle,
    "prop-3.7b": prop_3_7b_law_oracle,
    "prop-3.7c": prop_3_7c_law_oracle,
    "prop-3.7d": prop_3_7d_law_oracle,
    "prop-3.8": prop_3_8_law_oracle,
    "prop-4.5ab": prop_4_5ab_law_oracle,
    "prop-4.5cd": prop_4_5cd_law_oracle,
    "example-2-digital-line": digital_line_law_oracle,
    "cor-3-semi-t1-semi-r0": semi_t1_semi_r0_law_oracle,
    "sec-2-r0-semi-r0": r0_semi_r0_law_oracle,
    "thm-3-semi-t1-v-sets": semi_t1_v_sets_law_oracle,
    "thm-3-semi-r0-v-sets": semi_r0_v_sets_law_oracle,
    "sec-2-semi-r0-union": semi_r0_union_law_oracle,
    "sec-3-singleton-dichotomy": singleton_dichotomy_law_oracle,
    "defn-semi-open-levine": semi_open_levine_law_oracle,
    "defn-beta-open": beta_open_law_oracle,
    "defn-simply-open": simply_open_law_oracle,
    "sec-3-beta-containments": beta_containments_law_oracle,
    "prop-4.9-sandwich": prop_4_9_law_oracle,
    "prop-4.10-agreement": prop_4_10_law_oracle,
    "cor-4.11": cor_4_11_law_oracle,
    "cor-4.12": cor_4_12_law_oracle,
    "prop-4.13": prop_4_13_law_oracle,
    "remark-4.7": remark_4_7_law_oracle,
    "prop-4.8-dichotomy": prop_4_8_law_oracle,
    "remark-5.2-semi-closed-sg": remark_5_2_law_oracle,
    "thm-5.3": thm_5_3_law_oracle,
}
