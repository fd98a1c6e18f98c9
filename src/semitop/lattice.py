"""Bit-sliced families over the subset lattice of an n-point carrier.

A family of subsets is one 2**n-bit integer whose bit m is set iff mask
m is a member.  Family-wide questions then become a few big-int
operations per point instead of a loop over all 2**n masks:

    has[x]   the masks containing point x, the one table (`columns`)
    sup(S)   AND of has[x] over x in S: the supersets of S
    sub(S)   the masks in no has[x] with x outside S: the subsets of S
    spread   closure under adding (or removing) points, the subset-sum
             (zeta) transform, Knuth TAOCP 4A section 7.1.3: n shift steps
    spreads  per point x in turn, the spread of the members holding
             (upward) or missing (downward) x: all n from one lazy
             leave-one-out pass of at most n*ceil(log2 n) steps
    spread_where
             a spread whose step between m and m | {x} needs m in cols[x]
    unions   the unions of the non-empty subfamilies of a family
    first    the numerically lowest member of a family
    lowest   per point x, the numerically lowest member holding x: in a
             topology, the smallest open neighbourhood U_x
    mirror   bit m -> bit full^m: the family of complements
    within   {A : A inside f(A)}, from the columns of f (below)
    fixed    {A : f(A) = A}, the fixed sets of f
    image    f(m) for one mask m
    meet_rows, join_rows
             per row, the AND / OR of the columns of S over its points:
             on the table U_x, the columns of Int S and of Cl S

An operator f on masks is held as its n columns, col[z] the masks m
with z in f(m); the tables of values f(m), one per mask, are never
built.
"""

from functools import cache
from typing import Iterator

# bit-reversal of every byte, for `mirror`
_REVERSED = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


@cache
def everything(n: int) -> int:
    """The family of all 2**n masks."""
    return (1 << (1 << n)) - 1


@cache
def columns(n: int) -> tuple:
    """has: per point, the masks with that bit set."""
    has = []
    for i in range(n):
        # 2**i masks with bit i clear, then 2**i with it set, repeated
        col, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while period < 1 << n:
            col |= col << period
            period <<= 1
        has.append(col)
    return tuple(has)


def iter_points(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sup(s: int, n: int) -> int:
    """The masks that are supersets of `s`."""
    return next(meet_rows((s,), columns(n), n))


def sub(s: int, n: int) -> int:
    """The masks that are subsets of `s`, holding no point outside it."""
    return everything(n) ^ next(join_rows((s ^ (1 << n) - 1,), columns(n)))


def within(cols, n: int) -> int:
    """The masks A with A in cols[x] for every point x in A.

    `cols` is read once, in point order; callers pass it lazily (a
    generator) where each column is built for this fold alone, so only
    one 2**n-bit column is alive at a time.
    """
    bad = 0
    for has, col in zip(columns(n), cols):
        bad |= has ^ (has & col)    # A holds x, A not in cols[x]
    return everything(n) ^ bad


def fixed(cols, n: int) -> int:
    """The masks m with z in m iff m in cols[z], for every point z."""
    out = ones = everything(n)
    for has, col in zip(columns(n), cols):
        out &= ones ^ has ^ col
    return out


def image(cols, m: int) -> int:
    """The value at mask m of the operator with columns `cols`."""
    return sum(1 << z for z, col in enumerate(cols) if col >> m & 1)


def transpose(rows) -> list:
    """The transpose of a relation on points: out[x] = {y : x in rows[y]}."""
    return [image(rows, x) for x in range(len(rows))]


def meet_rows(rows, cols, n: int):
    """Per row, lazily, the AND of cols[y] over the points y of the row:
    with cols[y] the masks A with y in S(A), the masks A with the row
    inside S(A)."""
    ones = everything(n)
    for row in rows:
        col = ones
        while row:
            low = row & -row
            col &= cols[low.bit_length() - 1]
            row ^= low
        yield col


def join_rows(rows, cols):
    """Per row, lazily, the OR of cols[y] over the points y of the row:
    with cols[y] the masks A with y in S(A), the masks A with the row
    meeting S(A)."""
    for row in rows:
        col = 0
        while row:
            low = row & -row
            col |= cols[low.bit_length() - 1]
            row ^= low
        yield col


def saturated(hulls, n: int) -> int:
    """The masks A with hulls[x] inside A for every x in A."""
    return within(meet_rows(hulls, columns(n), n), n)


def first(bits: int) -> int:
    """The numerically lowest member of a family, -1 if it is empty, read
    off bits ^ (bits - 1), its bit and those below: no big int negated."""
    return (bits ^ (bits - 1)).bit_length() - 1 if bits else -1


def lowest(bits: int, n: int) -> list:
    """Per point x, the numerically lowest member that contains x (-1
    if none does).  In a topology it is the meet U_x, which lies inside
    every member holding x; in a family not closed under intersection,
    such as the semi-open sets, it need not be."""
    return [first(bits & has) for has in columns(n)]


def _steps(bits: int, points, has, upward: bool) -> int:
    """One spread step along each direction in `points`."""
    if upward:
        for i in points:
            bits |= (bits << (1 << i)) & has[i]
    else:
        for i in points:
            bits |= (bits & has[i]) >> (1 << i)
    return bits


def spread(bits: int, n: int, upward: bool) -> int:
    """Every superset (upward) or subset (downward) of a member."""
    return _steps(bits, range(n), columns(n), upward)


def spread_where(bits: int, cols, n: int, upward: bool) -> int:
    """`spread`, its step between m and m | {x} (m lacking x) taken only
    where m is in cols[x].  Its n steps take the points of a path in
    ascending order: they reach every mask reachable from a member when
    the allowed steps may come in any order, as the steps that keep a
    closure operator's value may (see `laws`)."""
    for i, (has, col) in enumerate(zip(columns(n), cols)):
        s = 1 << i
        bits |= ((bits & col) << s) & has if upward else ((bits & has) >> s) & col
    return bits


def spreads(bits: int, n: int, upward: bool) -> Iterator[int]:
    """Per point x, lazily and in point order, spread(the members of
    `bits` holding x) upward or spread(the members missing x) downward.

    A step along i != x keeps a mask's bit x, and a step along x is idle
    on the members that hold x (upward) or miss it (downward), so the
    x-th column is `bits` spread along every direction but x, then
    masked by x's column.  The points are split in halves and each half
    takes the other half's steps before it is split in turn (the
    leave-one-out sums of "Fourier meets Möbius", Björklund et al., STOC
    2007): at most n*ceil(log2 n) steps, 88 at n = 20 against 400.  Depth
    first, left half first, each half stepped when popped: about log2(n)
    pending halves hold a parent's column each, not n finished columns.
    """
    has = columns(n)
    todo = [(bits, (), 0, n)] if n else []
    while todo:
        fam, steps, lo, hi = todo.pop()
        fam = _steps(fam, steps, has, upward)
        if hi - lo == 1:
            yield fam & has[lo] if upward else (fam | has[lo]) ^ has[lo]
        elif hi - lo == 2:    # most leaves come in pairs: each takes the other's step
            a, b, s = has[lo], has[hi - 1], 1 << lo
            if upward:
                yield (fam | (fam << 2 * s) & b) & a
                yield (fam | (fam << s) & a) & b
            else:
                yield (fam | (fam & b) >> 2 * s | a) ^ a
                yield (fam | (fam & a) >> s | b) ^ b
        else:
            mid = (lo + hi) // 2
            todo += ((fam, range(lo, mid), mid, hi), (fam, range(mid, hi), lo, mid))


def unions(bits: int, n: int) -> int:
    """Every union of a non-empty subfamily of `bits`: the C whose every
    point x lies in a member inside C (C above a member holding x)."""
    out = within(spreads(bits, n, upward=True), n)
    return out & ~1 | bits & 1    # the empty union only if a member


def mirror(bits: int, n: int) -> int:
    """The family of complements: bit m moves to bit full^m."""
    width = 1 << n
    nbytes = (width + 7) // 8
    raw = bits.to_bytes(nbytes, "little")[::-1].translate(_REVERSED)
    return int.from_bytes(raw, "little") >> (nbytes * 8 - width)


def encode(masks) -> int:
    """Bitset of an iterable of non-negative masks."""
    masks = set(masks)
    if not masks:
        return 0
    if min(masks) < 0:
        raise ValueError(f"negative mask {min(masks)}")
    buf = bytearray((max(masks) >> 3) + 1)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def decode(bits: int) -> tuple:
    """The members of a bitset, ascending."""
    return tuple(i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1")
