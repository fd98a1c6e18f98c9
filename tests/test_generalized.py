import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semitop.semi as semi_mod
from oracles import (derived_set_oracle, g_lambda_oracle, g_v_oracle,
                     random_space, sg_closed_oracle)
from semitop.catalog import catalog_entries, enumerate_topologies, named_space
from semitop.generalized import (derived_set, g_v_s_singletons,
                                 generalized_families, is_g_lambda_s, is_g_v_s,
                                 is_sg_closed)
from semitop.lattice import columns, unions
from semitop.semi import SemiAnalysis
from semitop.spaces import SetFamily


def test_e33_families_golden(e33_an):
    fams = generalized_families(e33_an)
    assert fams.d_lambda.members == (0b000, 0b001, 0b010, 0b011, 0b101,
                                     0b110, 0b111)
    assert fams.d_v.members == (0b000, 0b001, 0b010, 0b100, 0b101,
                                0b110, 0b111)
    assert fams.sg_closed.members == (0b000, 0b100, 0b101, 0b110, 0b111)


def test_families_on_the_widest_window_keep_no_downward_columns():
    """On the 20-point window, with the point kernels built and the has
    table warm, `generalized_families` reads the 20 downward spreads as
    they are yielded: its tracemalloc peak stays under 9 columns of
    2**20 bits (1.125 MiB), where the 20 kept downward columns alone
    take 20.  The has table holds one column per point."""
    an = SemiAnalysis(named_space("khalimsky:-9:10"))
    an.point_kernels
    assert len(columns(20)) == 20
    tracemalloc.start()
    try:
        generalized_families(an)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 << 17, peak / (1 << 17)


def test_e33_membership_predicates(e33, e33_an):
    assert is_g_lambda_s(e33_an, e33.mask_of("ac"))
    assert is_g_lambda_s(e33_an, e33.mask_of("bc"))
    assert not is_g_lambda_s(e33_an, e33.mask_of("c"))
    assert is_g_v_s(e33_an, e33.mask_of("a"))
    assert not is_g_v_s(e33_an, e33.mask_of("ab"))
    assert is_sg_closed(e33_an, e33.mask_of("ac"))
    assert not is_sg_closed(e33_an, e33.mask_of("a"))


def test_predicates_match_oracles_exhaustive(spaces3):
    for space in spaces3:
        an = SemiAnalysis(space)
        for b in range(1 << space.n):
            assert is_sg_closed(an, b) == sg_closed_oracle(an, b)
            assert is_g_lambda_s(an, b) == g_lambda_oracle(an, b)
            assert is_g_v_s(an, b) == g_v_oracle(an, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(3, 7))
def test_predicates_match_oracles_random(seed, n):
    rng = random.Random(seed)
    space = random_space(rng, n)
    an = SemiAnalysis(space)
    for _ in range(20):
        b = rng.randrange(1 << n)
        assert is_sg_closed(an, b) == sg_closed_oracle(an, b)
        assert is_g_lambda_s(an, b) == g_lambda_oracle(an, b)
        assert is_g_v_s(an, b) == g_v_oracle(an, b)


def test_families_agree_with_predicates(spaces4):
    for space in spaces4[::9]:
        an = SemiAnalysis(space)
        fams = generalized_families(an)
        for b in range(1 << space.n):
            assert (b in fams.d_lambda) == is_g_lambda_s(an, b)
            assert (b in fams.d_v) == is_g_v_s(an, b)
            assert (b in fams.sg_closed) == is_sg_closed(an, b)


@pytest.mark.parametrize("n", [3])
def test_families_follow_any_union_closed_semi_open_family(n):
    """Every union-closed family with the empty set on n points, assigned
    as SO: there the union of the point kernels is the semi-kernel, so
    the three families meet their literal definitions.  CI calls this
    with n = 4 (2480 families)."""
    space = named_space(f"discrete:{n}")
    seen = 0
    for bits in range(1, 1 << (1 << n), 2):
        if unions(bits, n) != bits:
            continue
        seen += 1
        an = SemiAnalysis(space)
        an.semi_open = SetFamily.from_bits(bits)
        fams = generalized_families(an)
        for b in range(1 << n):
            assert (b in fams.d_lambda) == g_lambda_oracle(an, b), (bits, b)
            assert (b in fams.d_v) == g_v_oracle(an, b), (bits, b)
            assert (b in fams.sg_closed) == sg_closed_oracle(an, b), (bits, b)
    assert seen == {3: 61, 4: 2480}[n]


def test_derived_set_values(sierpinski):
    assert derived_set(named_space("discrete:3")) == 0
    ind = named_space("indiscrete:2")
    assert derived_set(ind) == ind.full
    assert derived_set(sierpinski) == sierpinski.mask_of("b")


def test_g_v_s_singletons_values(sierpinski):
    disc = named_space("discrete:2")
    assert g_v_s_singletons(SemiAnalysis(disc)) == disc.full
    assert derived_set(disc) == 0
    assert g_v_s_singletons(SemiAnalysis(sierpinski)) == \
        sierpinski.mask_of("b")


def test_g_v_s_singletons_is_the_family_and_the_oracle():
    """The SO-only reading agrees with the singletons of the generalized
    family d_v and with the literal per-point oracle, on every space with
    n <= 4, the catalog and seeded random spaces on 6..12 points."""
    rng = random.Random(2026)
    spaces = [s for n in range(1, 5) for s in enumerate_topologies(n)] + \
        [entry.space for entry in catalog_entries()] + \
        [random_space(rng, n) for n in range(6, 13) for _ in range(4)]
    for space in spaces:
        an = SemiAnalysis(space)
        d_v = generalized_families(an).d_v
        singles = sum(1 << x for x in range(space.n) if 1 << x in d_v)
        oracle = sum(1 << x for x in range(space.n) if g_v_oracle(an, 1 << x))
        assert g_v_s_singletons(SemiAnalysis(space)) == singles == oracle, \
            space.describe()


def test_g_v_s_singletons_reads_only_the_semi_open_family(sierpinski, monkeypatch):
    """No spread is built and no column read, so no point kernel: SO
    alone decides."""
    def refused(*args):
        raise AssertionError("read beyond SO")

    monkeypatch.setattr(semi_mod.SemiAnalysis, "_read_vs", refused)
    monkeypatch.setattr(semi_mod, "spreads", refused)
    monkeypatch.setattr(semi_mod, "sub", refused)
    monkeypatch.setattr(semi_mod, "sup", refused)
    disc = named_space("discrete:3")
    assert g_v_s_singletons(SemiAnalysis(disc)) == disc.full
    assert g_v_s_singletons(SemiAnalysis(sierpinski)) == sierpinski.mask_of("b")


def test_derived_set_matches_literal_closures(upto4_and_random):
    """derived_set reads U_x; the oracle takes Cl(X minus {x}) literally."""
    for space in upto4_and_random:
        assert derived_set(space) == derived_set_oracle(space), space.describe()
