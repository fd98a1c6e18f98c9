"""End-to-end acceptance checks.

Each test checks one numbered criterion and prints a single
`[ACCEPT n] PASS` line (visible with -s) after its assertions hold.
"""

import random
import time

from oracles import naive_topology_families, random_space
from semitop.axioms import axiom_profile
from semitop.catalog import enumerate_topologies, khalimsky_window, named_space
from semitop.generalized import derived_set, g_v_s_singletons, \
    generalized_families
from semitop.laws import registry, run_suite
from semitop.semi import SemiAnalysis, set_class


def _ok(n: int, text: str) -> None:
    print(f"[ACCEPT {n}] PASS: {text}")


def test_accept_1_e1_kernel_values():
    space = named_space("e1")
    b1 = space.mask_of("b")
    b2 = space.mask_of("c")
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        an = SemiAnalysis(space)
        meet = an.semi_kernel(b1 & b2)
        parts = an.semi_kernel(b1) & an.semi_kernel(b2)
        best = min(best, time.perf_counter() - started)
    assert meet == 0
    assert parts == space.mask_of("bc")
    assert best < 1e-3, f"kernel evaluation took {best * 1e3:.3f} ms"
    _ok(1, "E1 kernels: meet collapses to ∅, parts keep {b,c}, under 1 ms")


def test_accept_2_e33_generalized_families():
    space = named_space("e33")
    fams = generalized_families(SemiAnalysis(space))
    assert space.render_family(fams.d_lambda) == \
        "{∅,{a},{b},{a,b},{a,c},{b,c},X}"
    assert space.render_family(fams.d_v) == \
        "{∅,{a},{b},{c},{a,c},{b,c},X}"
    _ok(2, "E33 generalized families match the listed sets exactly")


def test_accept_3_axiom_profiles():
    e3a = named_space("e3a")
    prof = axiom_profile(e3a)
    assert prof.semi_t1 and not prof.r0
    sub = e3a.subspace(e3a.mask_of("ac"))
    assert not axiom_profile(sub).semi_r0
    assert not axiom_profile(named_space("sierpinski")).semi_r0
    ind = axiom_profile(named_space("indiscrete:2"))
    assert ind.semi_r0 and not ind.semi_t1
    _ok(3, "axiom profiles: e3a, its closed subspace, sierpinski, indiscrete")


def test_accept_4_suite_over_three_and_four_point_spaces():
    spaces = list(enumerate_topologies(3)) + list(enumerate_topologies(4))
    started = time.perf_counter()
    report = run_suite(spaces)
    elapsed = time.perf_counter() - started
    assert len(spaces) == 29 + 355
    reg = registry()
    expected = [r for r in report.results
                if reg[r.law_id].status == "expected"]
    assert len(expected) >= 25
    for result in expected:
        law = reg[result.law_id]
        if law.scope is None:
            assert result.examined == sum(
                1 for s in spaces if s.n <= law.max_points)
        assert result.passed == result.examined, result.law_id
        assert not result.witnesses, result.law_id
    assert elapsed < 60, f"suite took {elapsed:.1f}s"
    _ok(4, f"{len(expected)} expected laws pass on all 384 spaces "
           f"in {elapsed:.1f}s")


def test_accept_5_enumeration_counts_vs_naive_oracle():
    for n, count in ((1, 1), (2, 4), (3, 29), (4, 355)):
        generated = [s.opens.members for s in enumerate_topologies(n)]
        assert len(generated) == count
        assert generated == naive_topology_families(n)
    _ok(5, "counts 1, 4, 29, 355 match the naive family filter")


def test_accept_6_disputed_claim_detection():
    space = named_space("discrete:2")
    an = SemiAnalysis(space)
    assert g_v_s_singletons(an) == space.mask_of("ab")
    assert derived_set(space) == 0
    report = run_suite([space], ["cor-4-cantor-bendixson"])
    result = report.results[0]
    assert result.witnesses
    assert "confirmed" in result.verdict()
    assert report.exit_code() == 0
    _ok(6, "discrete:2 confirms the disputed derivative claim at exit 0")


def test_accept_7_khalimsky_windows():
    w = khalimsky_window(-7, 7)
    prof = axiom_profile(w.space)
    assert (prof.t1, prof.r0, prof.semi_t1, prof.semi_r0) == \
        (False, False, True, True)
    for x, label in enumerate(w.space.names):
        if int(label) % 2 == 0:
            assert w.space.is_closed(1 << x)
        elif -7 < int(label) < 7:
            assert set_class(w.space, 1 << x).regular_open
    cut = khalimsky_window(-2, 2)
    assert cut.boundary_warning
    assert not axiom_profile(cut.space).semi_t1
    _ok(7, "odd window is semi-T1/semi-R0 with the right singletons; "
           "even window flags and fails semi-T1")


def test_accept_8_operator_laws_at_larger_n():
    rng = random.Random(20260823)
    samples = 0
    while samples < 1000:
        n = 6 + samples % 5
        space = random_space(rng, n)
        an = SemiAnalysis(space)
        full = space.full
        for _ in range(8):
            b = rng.randrange(1 << n)
            c = rng.randrange(1 << n)
            kern = an.semi_kernel(b)
            assert an.semi_kernel(full ^ b) == full ^ an.v_s(b)
            assert an.semi_kernel(kern) == kern
            assert b & ~kern == 0
            assert kern & ~an.semi_kernel(b | c) == 0
            assert an.v_s(b) & ~b == 0
            samples += 1
    assert samples >= 1000
    _ok(8, f"{samples} random samples at n=6..10: duality, idempotence, "
           f"monotonicity, extensivity, contractivity all hold")
