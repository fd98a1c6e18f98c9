import random

from oracles import (r0_witness_oracle, random_space, semi_closure_oracle,
                     semi_r0_witness_oracle)
from semitop.axioms import (AXIOM_KEYS, axiom_profile, is_r0, is_semi_r0,
                            is_semi_t1, is_semi_t_half, is_t1, r0_witness,
                            semi_r0_witness)
from semitop.catalog import named_space
from semitop.generalized import generalized_families
from semitop.semi import SemiAnalysis
from semitop.spaces import SetFamily


def _profile(space):
    an = SemiAnalysis(space)
    return axiom_profile(space, an, generalized_families(an))


def test_discrete_satisfies_everything():
    prof = _profile(named_space("discrete:3"))
    assert all(value for _, value in prof.items())
    assert prof.witnesses == {}


def test_indiscrete_profile():
    prof = _profile(named_space("indiscrete:2"))
    assert (prof.t1, prof.r0, prof.semi_t1, prof.semi_r0) == \
        (False, True, False, True)


def test_e3a_profile(e3a):
    prof = _profile(e3a)
    assert prof.semi_t1 and not prof.r0 and not prof.t1
    assert prof.semi_r0


def test_e3a_closed_subspace_drops_semi_r0(e3a):
    sub = e3a.subspace(e3a.mask_of("ac"))
    prof = _profile(sub)
    assert not prof.semi_r0 and not prof.semi_t1


def test_sierpinski_profile(sierpinski):
    prof = _profile(sierpinski)
    assert not prof.semi_r0
    assert prof.semi_t_half


def test_e33_profile(e33):
    prof = _profile(e33)
    assert [value for _, value in prof.items()] == [False] * 5
    assert set(prof.witnesses) == set(AXIOM_KEYS)
    assert prof.witnesses["semi_t_half"] == \
        "{a,c} is sg-closed but not semi-closed"


def test_axiom_profile_computes_own_analysis(e33):
    assert axiom_profile(e33) == _profile(e33)


def test_t1_iff_all_singletons_closed(spaces3):
    for space in spaces3:
        expect = all(space.is_closed(1 << x) for x in range(space.n))
        assert is_t1(space) == expect


def test_r0_literal_definition(spaces3):
    for space in spaces3:
        expect = all(
            space.closure(1 << x) & ~o == 0
            for o in space.opens for x in range(space.n) if o >> x & 1)
        assert is_r0(space) == expect


def test_semi_axioms_literal_definitions(spaces3):
    for space in spaces3:
        an = SemiAnalysis(space)
        expect_t1 = all((1 << x) in an.semi_closed for x in range(space.n))
        assert is_semi_t1(an) == expect_t1
        expect_r0 = all(
            semi_closure_oracle(an, 1 << x) & ~o == 0
            for o in an.semi_open for x in range(space.n) if o >> x & 1)
        assert is_semi_r0(an) == expect_r0


def test_neighbourhood_forms_match_the_witness_scans(upto4_and_random):
    """is_r0 reads U_x and is_semi_r0 reads K_x; each agrees with the
    literal oracle's scan, each witness is the oracle's, and both
    verdicts occur."""
    seen = set()
    for space in upto4_and_random:
        an = SemiAnalysis(space)
        r0, semi_r0 = is_r0(space), is_semi_r0(an)
        assert r0 == (r0_witness_oracle(space) is None), space.describe()
        assert r0_witness(space) == r0_witness_oracle(space), space.describe()
        assert semi_r0 == (semi_r0_witness_oracle(an) is None), space.describe()
        assert semi_r0_witness(an) == semi_r0_witness_oracle(an), space.describe()
        seen.add((r0, semi_r0))
    assert seen == {(True, True), (False, True), (False, False)}


def test_semi_r0_for_any_family(n=3):
    """Every one of the 2**2**n families on n points, assigned as SO:
    y is in sCl{x} iff x is in K_y whatever the family, so is_semi_r0 is
    the literal definition and the witness is the oracle's.  CI calls
    this with n = 4 (65536 families)."""
    space = named_space(f"discrete:{n}")
    verdicts = set()
    for bits in range(1 << (1 << n)):
        an = SemiAnalysis(space)
        an.semi_open = SetFamily.from_bits(bits)
        expect = all(
            semi_closure_oracle(an, 1 << x) & ~o == 0
            for o in an.semi_open for x in range(n) if o >> x & 1)
        assert is_semi_r0(an) == expect, bits
        assert semi_r0_witness(an) == semi_r0_witness_oracle(an), bits
        verdicts.add(expect)
    assert verdicts == {True, False}


def test_semi_t_half_literal_definition(spaces3):
    for space in spaces3:
        an = SemiAnalysis(space)
        fams = generalized_families(an)
        expect = all(f in an.semi_closed for f in fams.sg_closed)
        assert is_semi_t_half(an, fams) == expect


def test_implication_lattice(spaces4):
    for space in spaces4:
        prof = _profile(space)
        if prof.t1:
            assert prof.r0 and prof.semi_t1
        if prof.semi_t1:
            assert prof.semi_r0 and prof.semi_t_half
        if prof.r0:
            assert prof.semi_r0


def test_witnesses_replay(spaces3):
    for space in spaces3:
        an = SemiAnalysis(space)
        prof = axiom_profile(space, an, generalized_families(an))
        for key, value in prof.items():
            assert (key in prof.witnesses) == (not value)
            if not value:
                assert prof.witnesses[key]


def test_random_spaces_profile_consistency():
    rng = random.Random(88)
    for _ in range(20):
        space = random_space(rng, rng.randrange(3, 8))
        prof = _profile(space)
        an = SemiAnalysis(space)
        assert prof.semi_t1 == all(
            (1 << x) in an.semi_closed for x in range(space.n))
