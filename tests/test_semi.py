import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semitop.generalized as generalized_mod
import semitop.lattice as lattice_mod
import semitop.semi as semi_mod
from oracles import (g_lambda_oracle, g_v_oracle, r0_witness_oracle,
                     random_space, semi_closure_oracle, semi_kernel_oracle,
                     semi_open_oracle, semi_r0_witness_oracle,
                     semi_t1_witness_oracle, semi_t_half_witness_oracle,
                     sg_closed_oracle, t1_witness_oracle, v_s_oracle)
from semitop.axioms import (axiom_profile, r0_witness, semi_r0_witness,
                            semi_t1_witness, semi_t_half_witness, t1_witness)
from semitop.catalog import (_classes, _letters, enumerate_topologies,
                             khalimsky_window, named_space)
from semitop.generalized import (generalized_families, is_g_lambda_s, is_g_v_s,
                                 is_sg_closed)
from semitop.lattice import columns, encode, everything, join_rows, meet_rows
from semitop.semi import (SemiAnalysis, semi_open_bits, semi_open_family,
                          set_class)
from semitop.spaces import SetFamily, space_from_masks, space_from_table


def test_e1_semi_open_family(e1_an):
    assert e1_an.semi_open.members == (0b000, 0b001, 0b110, 0b111)
    assert e1_an.semi_closed.members == (0b000, 0b001, 0b110, 0b111)


def test_analysis_builds_each_part_on_first_read(e33):
    """A new analysis holds only its space; reading SC builds SO on the
    way and no other part; reading either of `fix_vs` and
    `point_kernels` builds both, from one pass over v_s's columns, and
    keeps no column.  Each part is kept."""
    for first in ("fix_vs", "point_kernels"):
        an = SemiAnalysis(e33)
        assert vars(an) == {"space": e33}
        an.semi_closed
        assert set(vars(an)) == {"space", "semi_open", "semi_closed"}
        part = getattr(an, first)
        assert set(vars(an)) == {"space", "semi_open", "semi_closed", "fix_vs",
                                 "point_kernels"}
        assert getattr(an, first) is part
        parts = (an.semi_open, an.semi_closed, an.point_kernels, an.fix_vs)
        assert tuple(map(type, parts)) == (SetFamily, SetFamily, tuple, int)


def test_e1_kernel_values(e1, e1_an):
    b1 = e1.mask_of("b")
    b2 = e1.mask_of("c")
    assert e1_an.semi_kernel(b1) == e1.mask_of("bc")
    assert e1_an.semi_kernel(b2) == e1.mask_of("bc")
    assert e1_an.semi_kernel(b1 & b2) == 0


def test_e33_fixed_point_families(e33_an):
    assert e33_an.lambda_s_sets().members == (0b000, 0b011, 0b111)
    assert e33_an.v_s_sets().members == (0b000, 0b100, 0b111)


def test_e33_operator_values(e33, e33_an):
    assert e33_an.v_s(e33.mask_of("ac")) == e33.mask_of("c")
    assert e33_an.semi_closure(e33.mask_of("a")) == e33.full


def test_semi_open_matches_levine_oracle(spaces3):
    for space in spaces3:
        an = SemiAnalysis(space)
        for a in range(1 << space.n):
            assert (a in an.semi_open) == semi_open_oracle(space, a)


def test_semi_open_family_closure_properties(spaces4):
    for space in spaces4:
        an = SemiAnalysis(space)
        so = an.semi_open.members
        big = 0
        for i, a in enumerate(so):
            big |= a
            for b in so[i:]:
                assert (a | b) in an.semi_open
                assert (space.full ^ ((space.full ^ a) & (space.full ^ b))) \
                    in an.semi_open
        assert big in an.semi_open
        assert space.full in an.semi_open and 0 in an.semi_open


def test_point_kernels_match_singleton_queries(spaces3):
    for space in spaces3:
        an = SemiAnalysis(space)
        for x in range(space.n):
            assert an.semi_kernel(1 << x) == an.point_kernels[x]


def test_operators_match_oracles_exhaustive(spaces3, spaces4):
    for space in spaces3 + spaces4[::7]:
        an = SemiAnalysis(space)
        for b in range(1 << space.n):
            assert an.semi_kernel(b) == semi_kernel_oracle(an, b)
            assert an.semi_closure(b) == semi_closure_oracle(an, b)
            assert an.v_s(b) == v_s_oracle(an, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(3, 8))
def test_operators_match_oracles_random(seed, n):
    rng = random.Random(seed)
    space = random_space(rng, n)
    an = SemiAnalysis(space)
    for _ in range(25):
        b = rng.randrange(1 << n)
        assert an.semi_kernel(b) == semi_kernel_oracle(an, b)
        assert an.semi_closure(b) == semi_closure_oracle(an, b)
        assert an.v_s(b) == v_s_oracle(an, b)


def _core_matches_oracles(space, masks):
    """Families, kernels, operators and four axiom witnesses of the
    bit-sliced core against the literal oracles, on `masks`."""
    an = SemiAnalysis(space)
    fams = generalized_families(an)
    lam = an.lambda_s_sets()
    vs = an.v_s_sets()
    for x in range(space.n):
        assert an.point_kernels[x] == semi_kernel_oracle(an, 1 << x)
    for b in masks:
        semi_open = semi_open_oracle(space, b)
        assert (b in an.semi_open) == semi_open
        assert ((space.full ^ b) in an.semi_closed) == semi_open
        kern = semi_kernel_oracle(an, b)
        dual = v_s_oracle(an, b)
        assert an.semi_kernel(b) == kern
        assert an.semi_closure(b) == semi_closure_oracle(an, b)
        assert an.v_s(b) == dual
        assert (b in lam) == (kern == b)
        assert (b in vs) == (dual == b)
        assert (b in fams.d_lambda) == g_lambda_oracle(an, b)
        assert (b in fams.d_v) == g_v_oracle(an, b)
        assert (b in fams.sg_closed) == sg_closed_oracle(an, b)
    assert t1_witness(space) == t1_witness_oracle(space)
    assert r0_witness(space) == r0_witness_oracle(space)
    assert semi_t1_witness(an) == semi_t1_witness_oracle(an)
    assert semi_r0_witness(an) == semi_r0_witness_oracle(an)
    return an, fams


def test_core_matches_oracles_exhaustive(spaces3, spaces4):
    small = [s for n in (1, 2) for s in enumerate_topologies(n)]
    for space in small + spaces3 + spaces4:
        an, fams = _core_matches_oracles(space, range(1 << space.n))
        assert len(an.semi_closed) == len(an.semi_open)
        assert semi_t_half_witness(an, fams) == semi_t_half_witness_oracle(an)


def test_core_matches_oracles_random_6_to_9():
    rng = random.Random(2024)
    for n in range(6, 10):
        for _ in range(2):
            space = random_space(rng, n)
            masks = rng.sample(range(1 << n), 48) + [0, space.full]
            an, fams = _core_matches_oracles(space, masks)
            assert semi_t_half_witness(an, fams) == \
                semi_t_half_witness_oracle(an)


def test_core_matches_oracles_khalimsky():
    space = khalimsky_window(-7, 7).space
    rng = random.Random(77)
    masks = rng.sample(range(1 << space.n), 40)
    masks += [1 << x for x in range(space.n)]
    an, fams = _core_matches_oracles(space, masks)
    # the literal semi-T1/2 oracle scans all 2**15 masks; compare the
    # bit trick with the ascending scan of the checked families instead
    first = next((b for b in fams.sg_closed if b not in an.semi_closed), None)
    assert semi_t_half_witness(an, fams) == first


def test_fixed_set_predicates_match_families_and_oracles(spaces3, spaces4):
    """is_lambda_s_set / is_v_s_set on every mask of every topology with
    n <= 4, against the fixed-set families and the literal operators."""
    small = [s for n in (1, 2) for s in enumerate_topologies(n)]
    for space in small + spaces3 + spaces4:
        an = SemiAnalysis(space)
        lam, vs = an.lambda_s_sets(), an.v_s_sets()
        for b in range(1 << space.n):
            kern_fixed = semi_kernel_oracle(an, b) == b
            vs_fixed = v_s_oracle(an, b) == b
            assert an.is_lambda_s_set(b) == (b in lam) == kern_fixed
            assert an.is_v_s_set(b) == (b in vs) == vs_fixed


@pytest.mark.parametrize("n", [3])
def test_kernel_values_follow_any_semi_open_family(n):
    """Every one of the 2**2**n families on n points, assigned as SO:
    the kernel values read off the columns of v_s are the literal
    intersections of semi-open supersets whatever the family, closed
    under unions or not, and so are the Λ_s-sets and the three
    generalized predicates built on them.  CI calls this with n = 4
    (65536 families)."""
    space = named_space(f"discrete:{n}")
    for bits in range(1 << (1 << n)):
        an = SemiAnalysis(space)
        an.semi_open = SetFamily.from_bits(bits)
        lam = an.lambda_s_sets()
        for x in range(n):
            assert an.point_kernels[x] == semi_kernel_oracle(an, 1 << x), bits
        for b in range(1 << n):
            kern = semi_kernel_oracle(an, b)
            assert an.semi_kernel(b) == kern, (bits, b)
            assert an.is_lambda_s_set(b) == (b in lam) == (kern == b), (bits, b)
            assert is_g_lambda_s(an, b) == g_lambda_oracle(an, b), (bits, b)
            assert is_g_v_s(an, b) == g_v_oracle(an, b), (bits, b)
            assert is_sg_closed(an, b) == sg_closed_oracle(an, b), (bits, b)


def test_semi_open_family_helper(e1):
    assert semi_open_family(e1).members == (0b000, 0b001, 0b110, 0b111)


def test_set_class_goldens(e33):
    w = khalimsky_window(-3, 3)
    one = w.space.mask_of(["1"])
    assert set_class(w.space, one).regular_open
    assert set_class(e33, e33.mask_of("c")).nowhere_dense
    sp = named_space("sierpinski")
    assert set_class(sp, sp.mask_of("a")).preopen
    assert set_class(sp, sp.mask_of("b")).nowhere_dense


def test_open_sets_are_simply_open(spaces3):
    for space in spaces3:
        for o in space.opens:
            assert set_class(space, o).simply_open


def test_set_class_matches_literal_formulas(spaces4):
    for space in spaces4[::5]:
        for a in range(1 << space.n):
            c = set_class(space, a)
            int_cl = space.interior(space.closure(a))
            cl_int_cl = space.closure(int_cl)
            assert c.preopen == (a & ~int_cl == 0)
            assert c.beta_open == (a & ~cl_int_cl == 0)
            assert c.nowhere_dense == (int_cl == 0)
            assert c.regular_open == (a == int_cl)
            witnessed = any(
                u & a == u
                and space.interior(space.closure(a & ~u)) == 0
                for u in space.opens)
            assert c.simply_open == witnessed


def test_interior_and_closure_columns_match_operators():
    """Every topology on n <= 4 points and every mask m: m is in column x
    of Int (Cl), the meet (join) of the identity's columns over the rows
    U_x, iff x is in the interior (closure) of m."""
    for n in range(1, 5):
        has = columns(n)
        for space in enumerate_topologies(n):
            rows = space.min_nbhd
            for cols, op in ((meet_rows(rows, has, n), space.interior),
                             (join_rows(rows, has), space.closure)):
                cols = list(cols)
                assert len(cols) == n
                for m in range(1 << n):
                    value = op(m)
                    for x, col in enumerate(cols):
                        assert (col >> m & 1) == (value >> x & 1), (space, m, x)


def test_check_mask_enforced(e33_an):
    with pytest.raises(ValueError):
        e33_an.semi_kernel(1 << 5)
    with pytest.raises(ValueError):
        e33_an.v_s(-2)


def test_analyze_pipeline_builds_up_and_down_once(monkeypatch):
    """The analyze pipeline reads one upward spread pass, the columns of
    v_s, to its end in the fold for `fix_vs` and the point kernels, and
    one downward pass, the masks whose semi-closure misses each point,
    to its end in `generalized_families`, keeping neither: no part of
    the analysis is then a list of columns.  The per-query operators
    make no further pass."""
    spreads, passes, read = lattice_mod.spreads, [], []

    def counted(bits, n, upward):
        passes.append(upward)
        for col in spreads(bits, n, upward):
            read.append(upward)
            yield col

    monkeypatch.setattr(semi_mod, "spreads", counted)
    monkeypatch.setattr(generalized_mod, "spreads", counted)
    space = named_space("khalimsky:-7:7")
    an = SemiAnalysis(space)
    an.lambda_s_sets()
    an.v_s_sets()
    assert passes == [True] and read == [True] * space.n
    axiom_profile(space, an, generalized_families(an))
    assert passes == [True, False] and read == [True] * space.n + [False] * space.n
    assert set(vars(an)) <= {"space", "semi_open", "semi_closed",
                             "fix_vs", "point_kernels"}
    assert not any(isinstance(part, list) for part in vars(an).values())
    assert an.semi_closure(space.full) == space.full
    assert an.semi_closure(0) == 0
    assert an.v_s(space.full) == space.full
    assert an.semi_kernel(0) == 0
    assert passes == [True, False]


def test_analyze_pipeline_on_the_widest_window_keeps_no_column_table():
    """On the 20-point window, with the has table, the family of all
    masks and the opens warm, the tracemalloc peak of the analyze
    pipeline stays under 16 columns of 2**20 bits (2 MiB), where the 20
    columns of v_s alone take 20: v_s's columns are streamed, and SO's
    Cl Int columns are built one at a time."""
    space = named_space("khalimsky:-9:10")
    columns(20), everything(20), space.opens
    tracemalloc.start()
    try:
        an = SemiAnalysis(space)
        an.lambda_s_sets(), an.v_s_sets()
        axiom_profile(space, an, generalized_families(an))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 17, peak / (1 << 17)


def _cl_int_family(space) -> int:
    """The masks A inside Cl(Int(A)), one mask at a time."""
    return encode(a for a in range(1 << space.n)
                  if space.closure(space.interior(a)) & a == a)


@pytest.mark.parametrize("upto", [6])
def test_semi_open_bits_match_cl_int_on_every_class(upto):
    """`semi_open_bits` reads Cl Int off the least neighbourhoods (the
    U_y with U_w = U_y for every w in U_y); on every class with n <=
    `upto`, T0 or not, it is the family of the A inside Cl(Int(A)).  CI
    calls this with 7 (5438 classes)."""
    for n in range(1, upto + 1):
        for table in _classes(n):
            space = space_from_table(_letters(n), table)
            assert semi_open_bits(space) == _cl_int_family(space), table


@st.composite
def _preorders(draw):
    """A space on 1-10 points whose point x sees x and up to two drawn
    points, closed transitively: a cycle makes it not T0."""
    n = draw(st.integers(1, 10))
    rows = [1 << x | encode(draw(st.lists(st.integers(0, n - 1), max_size=2)))
            for x in range(n)]
    for _ in range(n.bit_length()):   # each round doubles the paths' length
        rows = list(join_rows(rows, rows))
    return space_from_table(_letters(n), rows)


@settings(max_examples=80, deadline=None)
@given(_preorders())
def test_semi_open_bits_match_cl_int_on_random_preorders(space):
    """As on every class, on preorders up to 10 points."""
    assert semi_open_bits(space) == _cl_int_family(space), space.min_nbhd


def test_semi_open_bits_keep_only_the_least_rows():
    """On a 16-point chain with U_x = {y : y >= x}, every row's lowest
    point is its own x but only U_15 = {15} is least.  `semi_open_bits`
    keeps no meet of the 15 other rows: with the has table warm its
    tracemalloc peak stays under 6 columns of 2**16 bits, where one
    kept meet per row takes 15."""
    n = 16
    space = space_from_table(_letters(n), [(1 << n) - 1 >> x << x for x in range(n)])
    columns(n), everything(n)
    tracemalloc.start()
    try:
        bits = semi_open_bits(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits == _cl_int_family(space)
    assert peak < 6 << 13, peak / (1 << 13)


def test_per_query_operators_on_the_widest_window(count=4):
    """On the 20-point window the per-query operators AND the 2**20-bit
    SC with `sub` or `sup`: v_s, semi_closure and semi_kernel equal
    their literal oracles on seeded masks.  Each oracle scans SO or SC, so
    Tier-1 takes a few masks; CI runs more."""
    space = named_space("khalimsky:-9:10")
    an = SemiAnalysis(space)
    rng = random.Random(33)
    for b in [0, space.full] + [rng.getrandbits(space.n) for _ in range(count)]:
        assert an.v_s(b) == v_s_oracle(an, b), b
        assert an.semi_closure(b) == semi_closure_oracle(an, b), b
        assert an.semi_kernel(b) == semi_kernel_oracle(an, b), b


def test_semi_t1_like_space_has_all_fixed_points():
    space = space_from_masks("ab", [0b00, 0b01, 0b10, 0b11])
    an = SemiAnalysis(space)
    assert len(an.lambda_s_sets()) == 4
    assert len(an.v_s_sets()) == 4
