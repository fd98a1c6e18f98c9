import dataclasses
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semitop.axioms as axioms_mod
import semitop.catalog as catalog_mod
import semitop.laws as laws_mod
import semitop.semi as semi_mod
from oracles import (LAW_ORACLES, dense_in_regular_closed_oracle,
                     iff_rows_oracle, implies_oracle, inside_rows_oracle,
                     levine_sets_oracle, open_plus_nowhere_dense_oracle,
                     random_space, relabeled, semi_open_oracle,
                     sierpinski_copies, singletons_oracle, under_oracle)
from semitop.axioms import AXIOM_KEYS
from semitop.catalog import (_classes, _letters, catalog_entries, catalog_id,
                             enumerate_topologies, named_space)
from semitop.generalized import generalized_families
from semitop.lattice import (columns, encode, everything, image, join_rows,
                             saturated, spread, spread_where, spreads, sub,
                             unions)
from semitop.laws import (FAMILY_CAP, WITNESS_CAP, Law, LawScopeError,
                          SpaceContext, Witness, check_law, register_laws,
                          registry, run_suite)
from semitop.semi import (grades_from_columns, openness_grades, semi_open_bits,
                          set_class)
from semitop.spaces import (MAX_POINTS, FiniteSpace, SetFamily, _canonical_form,
                            lazy, space_from_masks, space_from_table)


def _stream3(spaces3):
    return spaces3 + [entry.space for entry in catalog_entries()]


@pytest.fixture(scope="module")
def stream4():
    """Every topology on 1..4 points (389), then the catalog."""
    return [s for n in range(1, 5) for s in enumerate_topologies(n)] + \
        [entry.space for entry in catalog_entries()]


def test_registry_integrity():
    laws = register_laws()
    assert len(laws) >= 25
    ids = [law.id for law in laws]
    assert len(ids) == len(set(ids))
    for law in laws:
        assert law.anchor.strip()
        assert law.status in ("expected", "disputed")
        if law.status == "disputed":
            assert law.dispute_space
        assert law.max_points >= FAMILY_CAP
        # a scope reads the space's name, which SO does not determine
        assert law.scope is None or not law.semi_only


def test_known_anchors():
    reg = registry()
    assert "$(B^c)^{\\Lambda_s}=(B^{V_s})^c$" in reg["prop-3.2f"].anchor
    assert reg["cor-4-cantor-bendixson"].status == "disputed"
    assert reg["cor-4-cantor-bendixson"].dispute_space == "discrete:2"


def test_check_law_pass(e33):
    assert check_law("prop-3.2d", e33) is None
    assert check_law("example-4.6-intersection", e33) is None


def test_check_law_existence_scope(e1, e33):
    assert check_law("remark-3.3-strictness", e1) is None
    with pytest.raises(LawScopeError):
        check_law("remark-3.3-strictness", e33)


def test_check_law_size_bound():
    wide = named_space("khalimsky:-7:7")
    with pytest.raises(LawScopeError):
        check_law("prop-3.2b", wide)
    assert check_law("prop-3.2a", wide) is None
    assert check_law("prop-3.2b", named_space(f"discrete:{FAMILY_CAP}")) is None
    with pytest.raises(LawScopeError, match=f"bounded to {FAMILY_CAP} points"):
        check_law("prop-3.2b", named_space(f"discrete:{FAMILY_CAP + 1}"))


def test_uncapped_laws_run_on_every_catalog_space_up_to_the_point_limit():
    """A law with no stated cap runs on every space the package builds:
    over the catalog spaces of 16..20 points (discrete, indiscrete and
    five digital-line windows of each width) it examines every space it
    applies to, the expected ones pass, and cor-4-cantor-bendixson is
    confirmed on discrete:18."""
    widths = range(16, MAX_POINTS + 1)
    spaces = [named_space(f"{family}:{n}") for n in widths
              for family in ("discrete", "indiscrete")]
    spaces += [named_space(f"khalimsky:{lo}:{lo + n - 1}") for n in widths
               for lo in range(-10, -5)]
    report = run_suite(spaces)
    assert report.exit_code() == 0
    uncapped = [(law, result) for law, result
                in zip(registry().values(), report.results)
                if law.max_points == MAX_POINTS]
    assert len(uncapped) > len(registry()) // 3
    for law, result in uncapped:
        assert result.examined == sum(map(law.applies, spaces)), law.id
        if law.status == "expected":
            assert not result.witnesses, law.id
        else:
            assert "discrete:18" in [w.space_name for w in result.witnesses]


def test_capped_checkers_pass_past_the_family_cap():
    """Every expected law the registry caps at `FAMILY_CAP` passes, when
    its checker is called directly on one shared context, on the sparse
    20-point window, the dense 18-point space and the 20-point space
    with one open."""
    capped = [law for law in registry().values()
              if law.max_points == FAMILY_CAP and law.status == "expected"]
    assert len(capped) == 25
    for name in ("khalimsky:-9:10", "discrete:18", "indiscrete:20"):
        space = named_space(name)
        assert space.n > FAMILY_CAP
        ctx = SpaceContext(space)
        for law in capped:
            assert law.applies(space), law.id
            assert law.check(ctx) is None, (law.id, name)


def test_check_law_disputed_witness():
    w = check_law("cor-4-cantor-bendixson", named_space("discrete:2"))
    assert isinstance(w, Witness)
    assert w.points == ("a",)
    assert w.subsets == ("∅", "X")
    assert "isolated" in w.message


def test_shared_context_reuse(e33):
    ctx = SpaceContext(e33)
    for lid in ("prop-3.2a", "prop-3.2f", "thm-5.3"):
        assert check_law(lid, e33, ctx) is None


def _grades_match_set_class(ctx, m):
    """The grade families hold m exactly where `set_class` says so."""
    return tuple(m in fam for fam in ctx.grades) == \
        dataclasses.astuple(set_class(ctx.space, m))


def test_context_tables_match_per_call_operators():
    for n in range(1, 5):
        for space in enumerate_topologies(n):
            ctx = SpaceContext(space)
            masks = range(1 << n)
            for m in masks:
                assert image(ctx.kern_cols, m) == ctx.semi_kernel(m)
                assert _grades_match_set_class(ctx, m)
            assert ctx.grades == openness_grades(space)
            assert SetFamily.from_bits(ctx.fix_kern) == ctx.lambda_s_sets()
            assert SetFamily.from_bits(ctx.fix_kern).members == tuple(
                m for m in masks if ctx.semi_kernel(m) == m)
            assert SetFamily.from_bits(ctx.fix_vs) == ctx.v_s_sets()
            assert SetFamily.from_bits(ctx.fix_vs).members == tuple(
                m for m in masks if ctx.v_s(m) == m)
    wide = named_space("khalimsky:-7:7")
    ctx = SpaceContext(wide)
    masks = random.Random(7).sample(range(1 << wide.n), 200)
    for m in masks + [1 << x for x in range(wide.n)]:
        assert _grades_match_set_class(ctx, m)
        assert image(ctx.kern_cols, m) == ctx.semi_kernel(m)


def test_context_builds_only_the_tables_read(monkeypatch):
    """The uncapped laws on a 15-point window build the columns, the two
    fixed-set families and the grades; they never build the core's
    fixed-point families."""
    for name in ("lambda_s_sets", "v_s_sets"):
        monkeypatch.setattr(semi_mod.SemiAnalysis, name, None)
    wide = named_space("khalimsky:-7:7")
    ctx = SpaceContext(wide)
    assert not {"kern_cols", "fix_kern", "fix_vs", "grades"} & set(vars(ctx))
    uncapped = [law for law in registry().values()
                if law.max_points > FAMILY_CAP and law.applies(wide)]
    assert uncapped
    for law in uncapped:
        witness = check_law(law, wide, ctx)
        assert witness is None or law.status == "disputed", law.id
    assert {"kern_cols", "fix_kern", "fix_vs", "grades"} <= set(vars(ctx))


def test_singleton_rows_read_a_family_only_while_a_point_is_in_none():
    """prop-4.8-dichotomy reads g.Λ_s only where a singleton is not
    semi-open, so on a discrete space it builds no generalized family."""
    for name, read in (("discrete:3", False), ("sierpinski", True)):
        ctx = SpaceContext(named_space(name))
        assert registry()["prop-4.8-dichotomy"].check(ctx) is None
        assert ("fams" in vars(ctx)) == read, name


def test_registry_grades_each_mask_once(monkeypatch):
    """One grades pass per space, on the context's Int and Cl columns,
    grades every mask, the digital-line law's singletons included.  On
    the window, where every unnamed law runs, the laws read every
    context part, the analysis's own included."""
    passes = []

    def counted_grades(sp, in_int, in_cl):
        passes.append(sp)
        return grades_from_columns(sp, in_int, in_cl)

    monkeypatch.setattr(laws_mod, "grades_from_columns", counted_grades)
    four = next(s for s in enumerate_topologies(4) if len(s.opens) > 4)
    for space in (four, named_space("khalimsky:-3:3")):
        passes.clear()
        ctx = SpaceContext(space)
        for law in registry().values():
            if law.applies(space):
                check_law(law, space, ctx)
        assert passes == [space]
    parts = {name for cls in SpaceContext.__mro__
             for name, attr in vars(cls).items()
             if isinstance(attr, lazy)}
    assert parts and parts <= set(vars(ctx))


@st.composite
def _closure_operators(draw):
    """(n, columns) of a random extensive monotone operator on n points:
    column z is has[z] plus a few masks, spread upward."""
    n = draw(st.integers(1, 6))
    has = columns(n)
    extra = st.lists(st.integers(0, (1 << n) - 1), max_size=3).map(encode)
    return n, [spread(has[z] | draw(extra), n, upward=True) for z in range(n)]


@settings(max_examples=300, deadline=None)
@given(_closure_operators())
def test_idempotence_identity_matches_the_per_mask_loop(case):
    """prop-3.2c's column identity gives the per-mask loop's `_Fail` on
    any extensive monotone operator, idempotent or not."""
    n, cols = case
    ctx = SpaceContext(named_space(f"discrete:{n}"))
    ctx.kern_cols = cols
    assert registry()["prop-3.2c"].check(ctx) == LAW_ORACLES["prop-3.2c"](ctx)


# oracles quadratic in the subset count, run on at most 8 points
_QUADRATIC = {"prop-3.2b", "prop-3.2d", "prop-3.2i", "prop-3.2j",
              "prop-3.7b", "prop-3.7c", "prop-4.5cd"}

# the odd-endpoint digital-line windows on at most 7 points, where
# example-2-digital-line runs
_WINDOWS = [named_space(f"khalimsky:{lo}:{hi}")
            for lo, hi in ((-1, 1), (-3, 1), (-1, 3), (-3, 3))]


def test_law_checkers_match_literal_oracles():
    """Every bit-sliced checker returns its literal form's `_Fail` on
    the spaces it applies to, and the grades its singletons read are
    `set_class`'s."""
    spaces = [s for n in range(1, 5) for s in enumerate_topologies(n)]
    rng = random.Random(4242)
    spaces += [random_space(rng, n) for n in range(6, 10) for _ in range(2)]
    reg = registry()
    for space in spaces + _WINDOWS:
        ctx = SpaceContext(space)
        assert all(_grades_match_set_class(ctx, 1 << x) for x in range(space.n))
        for lid, oracle in LAW_ORACLES.items():
            if space.n > 8 and lid in _QUADRATIC or not reg[lid].applies(space):
                continue
            assert reg[lid].check(ctx) == oracle(ctx), (lid, space.describe())


@pytest.mark.parametrize("n", [5])
def test_law_checkers_match_literal_oracles_on_every_class(n):
    """Every checker with a literal oracle returns the oracle's `_Fail`
    on a space built from each n-point class table: 139 classes and 5004
    checks at n = 5.  CI calls this with n = 6 (718 classes)."""
    reg = registry()
    checks = 0
    for table in _classes(n):
        space = space_from_masks(_letters(n), SetFamily.from_bits(saturated(table, n)))
        ctx = SpaceContext(space)
        for lid, oracle in LAW_ORACLES.items():
            if reg[lid].applies(space):
                assert reg[lid].check(ctx) == oracle(ctx), (lid, table)
                checks += 1
    # every oracle but the digital line's, which is scoped to windows
    assert checks == len(_classes(n)) * (len(LAW_ORACLES) - 1)


# rows the registry does not hold, each built by its factory and by its
# literal form, with the classes through n = 5 (185) where it fails and
# the first of them: (table, witness masks), or no row fails
_ROWS = {
    "semi-T1 iff g.Λ_s ⊆ V_s": (
        laws_mod._iff, iff_rows_oracle,
        ("semi_t1", ("fams.d_lambda.bits", "fix_vs", "g-lambda-in-v")), 0, None),
    "semi-R0 iff Λ_s ⊆ V_s iff g.Λ_s ⊆ g.V_s": (
        laws_mod._iff, iff_rows_oracle,
        ("semi_r0", ("fix_kern", "fix_vs", "lambda-in-v"),
         ("fams.d_lambda.bits", "fams.d_v.bits", "g-lambda-in-g-v")), 0, None),
    "semi-T½ iff g.Λ_s ⊆ Λ_s": (
        laws_mod._iff, iff_rows_oracle,
        ("semi_t_half", ("fams.d_lambda.bits", "fix_kern", "g-lambda-in-lambda")), 0, None),
    "preopen and β-open ⊆ g.Λ_s": (
        laws_mod._inside, inside_rows_oracle,
        (("grades.preopen.bits", "fams.d_lambda.bits", "preopen set that is not g.Λ_s"),
         ("grades.beta_open.bits", "fams.d_lambda.bits", "β-open set that is not g.Λ_s")),
        0, None),
    "SO ⊆ τ": (
        laws_mod._inside, inside_rows_oracle,
        (("semi_open.bits", "space.opens.bits", "semi-open set that is not open"),),
        138, ((1, 2, 7), (5,))),
    "B^V_s ⊆ B^Λ_s": (
        laws_mod._under, under_oracle,
        ("up", "kern_cols", "dual operator escapes the semi-kernel"), 0, None),
    "B ⊆ B^V_s": (
        laws_mod._under, under_oracle,
        (None, "up", "subset escapes its dual operator"), 153, ((1, 3), (1,))),
    "{x} open or X∖{x} g.Λ_s": (
        laws_mod._singletons, singletons_oracle,
        ("singleton neither open nor complement-generalized",
         ("space.opens.bits", False), ("fams.d_lambda.bits", True)), 0, None),
    "{x} semi-open or X∖{x} Λ_s": (
        laws_mod._singletons, singletons_oracle,
        ("singleton neither semi-open nor complement-kernel-fixed",
         ("semi_open.bits", False), ("fix_kern", True)), 58, ((3, 3), (1,))),
    "semi-R0 implies semi-T1": (
        laws_mod._implies, implies_oracle, ("semi_r0", "semi_t1"), 22, ((3, 3), ())),
    "semi-T½ implies semi-T1": (
        laws_mod._implies, implies_oracle, ("semi_t_half", "semi_t1"), 95, ((1, 3), ())),
}


@pytest.mark.parametrize("upto", [6])
def test_factories_match_literal_scans_on_unregistered_rows(upto):
    """On every class with n <= `upto` (CI calls this with 7), each row
    the registry does not hold returns its literal form's `_Fail`.  The
    rows that hold in every finite space hold on each class; each other
    row fails on its number of classes through n = 5, first at its class
    and witness."""
    rows = {name: (factory(*args), literal(*args))
            for name, (factory, literal, args, _, _) in _ROWS.items()}
    failed = {name: [] for name in _ROWS}
    for n in range(1, upto + 1):
        for table in _classes(n):
            ctx = SpaceContext(space_from_table(_letters(n), table))
            for name, (check, literal) in rows.items():
                fail = check(ctx)
                assert fail == literal(ctx), (name, table)
                if fail is not None:
                    failed[name].append((n, table, fail.subsets))
    for name, (_, _, _, count, first) in _ROWS.items():
        if first is None:
            assert failed[name] == [], name
        else:
            small = [(table, subsets) for n, table, subsets in failed[name] if n <= 5]
            assert (len(small), small[0]) == (count, first), name


# the context entries each checker and its oracle both read, directly
# or through what is built from them (the kernel table and fix_kern
# from kern_cols, the v_s table and fix_vs from up).  `_corrupt` flips
# one bit of an entry, except for the pairs of `_CLOSURES`.  prop-3.2c
# is not here: its identity is idempotence only for an extensive
# monotone kernel, which a flipped bit seldom leaves, so
# `test_idempotence_identity_matches_the_per_mask_loop` draws such
# kernels instead
_INPUTS = {
    "prop-3.2a": ("kern_cols",),
    "prop-3.2b": ("kern_cols",),
    "prop-3.2d": ("kern_cols", "semi_open"),
    "prop-3.2e": ("kern_cols", "semi_open"),
    "prop-3.2f": ("kern_cols", "up"),
    "prop-3.2g": ("up",),
    "prop-3.2h": ("up", "semi_closed"),
    "prop-3.2i": ("kern_cols",),
    "prop-3.2j": ("up",),
    "prop-3.7a": ("kern_cols", "up"),
    "prop-3.7b": ("kern_cols", "up"),
    "prop-3.7c": ("kern_cols", "up"),
    "prop-3.7d": ("kern_cols", "up"),
    "prop-3.8": ("kern_cols", "up", "semi_t1"),
    "prop-4.5ab": ("kern_cols", "up", "d_lambda", "d_v"),
    "prop-4.5cd": ("d_lambda", "d_v"),
    "example-2-digital-line": ("t1", "r0", "semi_t1", "semi_r0", "regular_open"),
    "cor-3-semi-t1-semi-r0": ("semi_t1", "semi_r0"),
    "sec-2-r0-semi-r0": ("r0", "semi_r0"),
    "thm-3-semi-t1-v-sets": ("up", "preopen", "beta_open", "semi_t1"),
    "thm-3-semi-r0-v-sets": ("up", "semi_open", "simply_open", "semi_r0"),
    "sec-2-semi-r0-union": ("semi_open", "semi_closed", "semi_r0"),
    "sec-3-singleton-dichotomy": ("preopen", "nowhere_dense"),
    "defn-semi-open-levine": ("semi_open", "in_cl"),
    "defn-beta-open": ("beta_open", "in_cl", "in_int"),
    "defn-simply-open": ("nowhere_dense", "simply_open"),
    "sec-3-beta-containments": ("semi_open", "preopen", "beta_open"),
    "prop-4.9-sandwich": ("kern_cols", "d_lambda"),
    "prop-4.10-agreement": ("semi_closed", "semi_open"),
    "cor-4.11": ("up", "semi_closed", "d_v"),
    "cor-4.12": ("up", "semi_closed", "d_v"),
    "prop-4.13": ("up", "semi_closed", "d_v"),
    "remark-4.7": ("semi_open", "semi_closed", "d_lambda", "d_v"),
    "prop-4.8-dichotomy": ("semi_open", "d_lambda"),
    "remark-5.2-semi-closed-sg": ("semi_closed", "sg_closed"),
    "thm-5.3": ("d_v", "up", "semi_t_half"),
}


# (law, entry) pairs whose checker rests on a lemma about closure
# operators (Cl(A) = Cl(O) for O <= A <= Cl(O), and its like) or about
# the nowhere dense sets (they are the subsets of one set), which a
# one-bit flip breaks: `_corrupt` draws the entry whole, as the Cl
# columns of another preorder on the same points, the kernel columns
# of another family, or the subsets of a random mask
_CLOSURES = (("defn-semi-open-levine", "in_cl"), ("defn-beta-open", "in_cl"),
             ("prop-4.9-sandwich", "kern_cols"),
             ("defn-simply-open", "nowhere_dense"))


def _flip(fam, m):
    return SetFamily.from_bits(fam.bits ^ 1 << m)


def _corrupt(ctx, lid, entry, rng):
    """Flip one bit of one context entry, or one axiom verdict, before
    any table reads it; for a pair of `_CLOSURES`, draw the entry whole
    (see there)."""
    n = ctx.space.n
    m = rng.randrange(1 << n)
    if (lid, entry) == ("prop-4.9-sandwich", "kern_cols"):
        family = encode(rng.choices(range(1 << n), k=n))
        ctx.kern_cols = [everything(n) ^ under for under
                         in spreads(family, n, upward=False)]
    elif (lid, entry) == ("defn-simply-open", "nowhere_dense"):
        ctx.grades = ctx.grades._replace(
            nowhere_dense=SetFamily.from_bits(sub(m, n)))
    elif (lid, entry) in _CLOSURES:
        ctx.in_cl = list(join_rows(random_space(rng, n).min_nbhd, columns(n)))
    elif entry in AXIOM_KEYS:
        setattr(ctx, entry, not getattr(ctx, entry))
    elif entry in ("kern_cols", "up", "in_cl", "in_int"):
        getattr(ctx, entry)[rng.randrange(ctx.space.n)] ^= 1 << m
    elif entry in ("semi_open", "semi_closed"):
        # the analysis's other parts follow SO on first read: build them
        # first, so that the flip reaches none of them
        for part in ("semi_closed", "up", "point_kernels", "fams"):
            getattr(ctx, part)
        setattr(ctx, entry, _flip(getattr(ctx, entry), m))
    elif entry in ("d_lambda", "d_v", "sg_closed"):
        ctx.fams = dataclasses.replace(
            ctx.fams, **{entry: _flip(getattr(ctx.fams, entry), m)})
    else:
        grades = ctx.grades
        ctx.grades = grades._replace(
            **{entry: _flip(getattr(grades, entry), m)})


def test_law_checkers_match_oracles_on_corrupted_contexts(spaces3):
    """With one flipped bit in an entry both forms read (for a pair of
    `_CLOSURES`, the entry drawn whole), the
    checker fails where its literal form fails, at the same witness."""
    rng = random.Random(11)
    spaces = spaces3 + [random_space(rng, n) for n in (4, 5, 6) for _ in range(4)]
    reg = registry()
    failures = dict.fromkeys(_INPUTS, 0)
    for space in spaces + _WINDOWS:
        for lid, entries in _INPUTS.items():
            if not reg[lid].applies(space):
                continue
            for entry in entries:
                for _ in range(3):
                    ctx = SpaceContext(space)
                    _corrupt(ctx, lid, entry, rng)
                    fail = reg[lid].check(ctx)
                    assert fail == LAW_ORACLES[lid](ctx), (lid, entry)
                    failures[lid] += fail is not None
    assert all(failures.values()), failures


@pytest.mark.parametrize("upto", [5])
def test_closure_draws_match_oracles_on_every_class(upto):
    """On every class with n <= `upto` (CI calls this with 6), with the
    entry of each `_CLOSURES` pair drawn whole, the checker returns its
    oracle's `_Fail`; each law passes on some draws and fails on
    others."""
    reg = registry()
    rng = random.Random(6)
    outcomes = {pair: set() for pair in _CLOSURES}
    for n in range(1, upto + 1):
        for table in _classes(n):
            space = space_from_table(_letters(n), table)
            for lid, entry in _CLOSURES:
                for _ in range(2):
                    ctx = SpaceContext(space)
                    _corrupt(ctx, lid, entry, rng)
                    fail = reg[lid].check(ctx)
                    assert fail == LAW_ORACLES[lid](ctx), (lid, table)
                    outcomes[lid, entry].add(fail is None)
    assert all(seen == {False, True} for seen in outcomes.values()), outcomes


def _identity_kernel(space) -> SpaceContext:
    """A context whose semi-kernel is the identity, K(B) = B."""
    ctx = SpaceContext(space)
    ctx.kern_cols = list(columns(space.n))
    return ctx


def _non_idempotent_kernel() -> SpaceContext:
    """discrete:3 with the extensive, monotone kernel K(a) = {a,b},
    K(b) = {b,c}, K(c) = {c}, K(B) the union over B: K(K(a)) = X."""
    ctx = SpaceContext(named_space("discrete:3"))
    has = columns(3)
    ctx.kern_cols = [has[0], has[0] | has[1], has[1] | has[2]]
    return ctx


def test_documented_examples_fail_on_the_identity_kernel(e1, e33):
    """remark-3.3 and example-4.6 read single kernel values off
    `kern_cols`: under the identity kernel the documented pair is not
    strict and the documented set is kernel-fixed."""
    reg = registry()
    b, c = e1.mask_of("b"), e1.mask_of("c")
    assert reg["remark-3.3-strictness"].check(_identity_kernel(e1)) == \
        laws_mod._Fail((b, c), (), "documented strict pair is not strict here")
    ac = e33.mask_of("ac")
    assert reg["example-4.6-intersection"].check(_identity_kernel(e33)) == \
        laws_mod._Fail((ac,), (), "documented non-kernel-fixed set is kernel-fixed")


def test_every_checker_can_fail(spaces3, e1, e33):
    """Every registered law's checker returns a `_Fail` on some input of
    the test corpus, so a checker that always passes is caught: a plain
    context (the disputed law), one with an entry of `_INPUTS`
    corrupted, the identity kernel on the documented examples, or a
    non-idempotent kernel (prop-3.2c)."""
    reg = registry()
    rng = random.Random(5)
    spaces = spaces3 + _WINDOWS + [e1, e33]

    def inputs(lid):
        for space in spaces:
            yield SpaceContext(space)
            for entry in _INPUTS.get(lid, ()):
                for _ in range(3):
                    ctx = SpaceContext(space)
                    _corrupt(ctx, lid, entry, rng)
                    yield ctx
        yield from (_identity_kernel(e1), _identity_kernel(e33),
                    _non_idempotent_kernel())

    can_fail = {lid for lid, law in reg.items()
                if any(law.check(ctx) is not None for ctx in inputs(lid)
                       if law.applies(ctx.space))}
    assert can_fail == set(reg)


def test_disputed_corollary_fails_exactly_at_isolated_points():
    """cor-4-cantor-bendixson fails on a labeled space with n <= 5 iff
    some isolated point x has X minus {x} semi-open, and its witness
    point is such a point (the law's note)."""
    spaces = [s for n in range(1, 6) for s in enumerate_topologies(n)]
    result, = run_suite(spaces, ["cor-4-cantor-bendixson"]).results
    witnessed = {id(w.space): w.points for w in result.witnesses}
    assert witnessed
    for space in spaces:
        culprits = {space.names[x] for x in range(space.n)
                    if 1 << x in space.opens
                    and semi_open_oracle(space, space.full ^ 1 << x)}
        points = witnessed.get(id(space), ())
        assert bool(points) == bool(culprits), space.describe()
        assert set(points) <= culprits, space.describe()


def test_definition_splits_match_literal_families(upto4_and_random):
    """The spreads of the three definition laws, on their rows' inputs,
    give the families their statements name: the Levine spread is the
    union over the opens O of [O, Cl(O)], the beta-open spread the
    masks dense in some regular closed set, and the simply-open spread
    the u | d with u open and d nowhere dense."""
    for space in upto4_and_random:
        ctx, n = SpaceContext(space), space.n
        opens = space.opens.bits
        assert spread_where(opens, ctx.in_cl, n, upward=True) == \
            levine_sets_oracle(space)
        assert spread_where(ctx.reg_closed, ctx.in_cl, n, upward=False) == \
            dense_in_regular_closed_oracle(space)
        assert spread_where(opens, ctx.nd_steps, n, upward=True) == \
            open_plus_nowhere_dense_oracle(space)


@pytest.mark.parametrize("upto", [6])
def test_nowhere_dense_sets_are_the_subsets_of_their_points(upto):
    """The lemma defn-simply-open rests on: the nowhere dense sets are
    the subsets of N, the union of the nowhere dense singletons, on
    every class with n <= `upto` (CI calls this with 7) and on the three
    spaces of 18 and 20 points."""
    spaces = [space_from_table(_letters(n), table)
              for n in range(1, upto + 1) for table in _classes(n)]
    spaces += [named_space(name) for name in
               ("khalimsky:-9:10", "discrete:18", "indiscrete:20")]
    for space in spaces:
        n, nowhere_dense = space.n, SpaceContext(space).grades.nowhere_dense.bits
        points = sum(1 << x for x in range(n) if nowhere_dense >> (1 << x) & 1)
        assert nowhere_dense == sub(points, n), space.describe()


def test_fixed_set_missing_from_both_families_fails_on_the_kernel_side(e33):
    """When the lowest offender of prop-4.5ab is missing from both
    generalized families, the kernel message wins, as in the per-mask
    form: the empty set is fixed by both operators."""
    ctx = SpaceContext(e33)
    ctx.fams = dataclasses.replace(ctx.fams, d_lambda=_flip(ctx.fams.d_lambda, 0),
                                   d_v=_flip(ctx.fams.d_v, 0))
    fail = registry()["prop-4.5ab"].check(ctx)
    assert fail == LAW_ORACLES["prop-4.5ab"](ctx)
    assert fail.subsets == (0,) and fail.message.startswith("kernel-fixed")


def test_sandwich_reports_the_lowest_escaping_set_then_its_lowest_member():
    """On indiscrete:3 every non-empty set has kernel X.  With g.Λ_s cut
    to {∅, {a}, {b}}, {a,b}, {a,c}, {b,c} and X all escape; {a,b} is the
    lowest, and {a} the lowest member under it."""
    ctx = SpaceContext(named_space("indiscrete:3"))
    ctx.fams = dataclasses.replace(ctx.fams,
                                   d_lambda=SetFamily([0, 0b001, 0b010]))
    fail = registry()["prop-4.9-sandwich"].check(ctx)
    assert fail == LAW_ORACLES["prop-4.9-sandwich"](ctx)
    assert fail.subsets == (0b001, 0b011)


def test_kernel_table_follows_the_semi_open_family():
    """The kernel table is the intersection of the semi-open supersets,
    so prop-3.2d sees a semi-open family that lost a union."""
    space = named_space("discrete:3")
    ctx = SpaceContext(space)
    ab = space.mask_of("ab")
    ctx.semi_open = _flip(ctx.semi_open, ab)   # {a,b} = {a} | {b} leaves SO
    assert image(ctx.kern_cols, ab) == space.full
    w = check_law("prop-3.2d", space, ctx)
    assert w is not None
    assert (w.subsets, w.points) == (("{a,b}",), ("c",))
    assert check_law("prop-3.2d", space) is None


def test_kernel_union_witness_is_the_lowest_union():
    """The kernels of bc and of ac each hold a point that no member's
    kernel holds; prop-3.2d reports the lowest such union, then its
    point."""
    space = named_space("discrete:3")
    ctx = SpaceContext(space)
    has = [SetFamily([m for m in range(8) if m >> x & 1]).bits
           for x in range(3)]
    bc, ac = space.mask_of("bc"), space.mask_of("ac")
    # K(bc) holds a although K(b), K(c) do not; K(ac) holds b likewise
    ctx.kern_cols = [has[0] | 1 << bc, has[1] | 1 << ac, has[2]]
    fail = registry()["prop-3.2d"].check(ctx)
    assert fail == LAW_ORACLES["prop-3.2d"](ctx)
    assert (fail.subsets, fail.points) == ((ac,), (1,))


def _toggled(space, flip) -> SpaceContext:
    """A context whose SO has the masks in `flip` toggled, so members
    leave it and non-members join it: SC, the kernels, `up` and
    `kern_cols` all follow the corrupted family."""
    ctx = SpaceContext(space)
    ctx.semi_open = SetFamily.from_bits(semi_open_bits(space) ^ flip)
    return ctx


def test_kernel_laws_hold_for_any_semi_open_family(spaces3):
    """prop-3.2a/b/c/i, the V_s half of prop-3.7b and the Λ_s half of
    prop-3.7c hold for the operators of any family, as their notes say:
    SO with any one mask toggled, seen by the whole core, never fails
    them."""
    reg = registry()
    kernel_laws = ("prop-3.2a", "prop-3.2b", "prop-3.2c", "prop-3.2i")
    for lid in kernel_laws + ("prop-3.7b", "prop-3.7c"):
        assert "any family" in reg[lid].note
    for space in spaces3:
        for m in range(1 << space.n):
            ctx = _toggled(space, 1 << m)
            for lid in kernel_laws:
                assert reg[lid].check(ctx) is None, (lid, space.describe(), m)
            messages = {getattr(reg[lid].check(ctx), "message", None)
                        for lid in ("prop-3.7b", "prop-3.7c")}
            assert not messages & {"union of dual-fixed sets leaves the family",
                                   "intersection of kernel-fixed sets leaves the family"}


def test_kernel_fixed_sets_follow_the_semi_open_family():
    """discrete:3 without {a,b}: {a} and {b} are still kernel-fixed but
    their union is not, so prop-3.7b fails on its Λ_s half."""
    space = named_space("discrete:3")
    ab = space.mask_of("ab")
    ctx = _toggled(space, 1 << ab)
    w = check_law("prop-3.7b", space, ctx)
    assert (w.subsets, w.message) == (("{a,b}",), "union of kernel-fixed sets leaves the family")


def _closed_on(ctx, bits, what, dual=False):
    """A `_closed` check of one row, whose family is `bits`."""
    ctx.fix_kern = bits
    return laws_mod._closed(("fix_kern", what, dual))(ctx)


def test_unions_report_the_lowest_escaping_union():
    two, three = (SpaceContext(named_space(f"discrete:{n}")) for n in (2, 3))
    fam = SetFamily([0, 0b001, 0b010, 0b011, 0b100])
    assert unions(fam.bits, 3) & ~fam.bits == \
        SetFamily([0b101, 0b110, 0b111]).bits
    fail = _closed_on(three, fam.bits, "union of test sets")
    assert fail.subsets == (0b101,)
    assert fail.message == "union of test sets leaves the family"
    # the empty union is left out unless the empty set is a member
    assert unions(SetFamily([0b01, 0b10]).bits, 2) == \
        SetFamily([0b01, 0b10, 0b11]).bits
    assert _closed_on(two, SetFamily([0, 1, 2, 3]).bits, "x") is None
    # intersections: {b} = {a,b} & {b,c} escapes, X is not an empty meet
    fail = _closed_on(three, SetFamily([0b011, 0b110]).bits, "y", dual=True)
    assert fail.subsets == (0b010,)


def test_expected_laws_hold_on_all_3_point_spaces(spaces3):
    report = run_suite(_stream3(spaces3))
    for result in report.results:
        law = registry()[result.law_id]
        assert result.passed + len(result.witnesses) == result.examined
        if law.status == "expected":
            assert not result.witnesses, result.law_id
    assert report.exit_code() == 0


def test_disputed_confirmation_and_witness_replay(spaces3):
    report = run_suite(_stream3(spaces3))
    disputed = [r for r in report.results
                if registry()[r.law_id].status == "disputed"]
    assert disputed and all(r.witnesses for r in disputed)
    for result in report.results:
        for w in result.witnesses:
            again = check_law(result.law_id, w.space)
            assert again is not None
            assert (again.subsets, again.points, again.message) == \
                (w.subsets, w.points, w.message)


def test_report_is_deterministic(spaces3):
    stream = _stream3(spaces3)
    one = run_suite(stream)
    two = run_suite(stream)
    assert one.render_text() == two.render_text()
    assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())


def test_worker_pool_merges_identically(spaces3):
    stream = _stream3(spaces3)
    seq = run_suite(stream)
    par = run_suite(stream, workers=3)
    assert seq.render_text() == par.render_text()
    assert seq.to_dict() == par.to_dict()


def test_pool_witnesses_hold_the_callers_spaces(spaces3):
    stream = _stream3(spaces3)
    seq = run_suite(stream)
    par = run_suite(stream, workers=2)
    assert par.render_text() == seq.render_text()
    assert par.to_dict() == seq.to_dict()
    witnesses = [w for r in par.results for w in r.witnesses]
    assert witnesses
    assert all(any(w.space is s for s in stream) for w in witnesses)


class _Carrier:
    """A space cut down to its carrier: n, full, check_mask and
    complement.  Reading any part of the topology raises."""

    def __init__(self, space):
        self.n, self.full = space.n, space.full
        self.check_mask, self.complement = space.check_mask, space.complement

    def __getattr__(self, name):
        raise AssertionError(f"a semi-only law read space.{name}")


def _semi_only_context(space):
    """A context built from SO and the carrier alone: SO is handed in,
    and its grades, t1 and r0 raise (they read the topology)."""
    ctx = SpaceContext(_Carrier(space))
    ctx.semi_open = SetFamily.from_bits(semi_open_bits(space))
    return ctx


def test_semi_only_laws_read_only_the_semi_open_family(stream4):
    """Every law declared semi-only gives the same `_Fail` on the full
    context and on one that knows nothing of the space but n and SO: the
    premise of the suite's per-family outcome memo."""
    semi = [law for law in registry().values() if law.semi_only]
    assert semi
    for space in stream4:
        full, guarded = SpaceContext(space), _semi_only_context(space)
        for law in semi:
            if laws_mod._refusal(law, space, catalog_id(space)) is None:
                assert law.check(full) == law.check(guarded), \
                    (law.id, space.describe())


def _outcomes(report, stream):
    """Per law: examined, passed, and each witness keyed by the index of
    its space in the stream."""
    where = {id(space): i for i, space in enumerate(stream)}
    return {r.law_id: (r.examined, r.passed,
                       [(where[id(w.space)], w.subset_masks, w.points, w.message)
                        for w in r.witnesses])
            for r in report.results}


def test_suite_memo_matches_direct_checks(stream4, monkeypatch):
    """The suite's per-family outcomes equal `check_law` on a fresh
    context for each space, at 1 and 2 workers: every witness, the ones
    a later space takes from its class included, equals the one
    `check_law` gives on its space, with an equal hash.  A law patched to
    fail between two calls fails in the second, so no outcome outlives a
    call."""
    direct = {}
    contexts = [SpaceContext(space) for space in stream4]
    for lid, law in registry().items():
        examined, witnesses = 0, []
        for i, (space, ctx) in enumerate(zip(stream4, contexts)):
            if laws_mod._refusal(law, space, catalog_id(space)) is not None:
                continue
            examined += 1
            w = check_law(law, space, ctx)
            if w is not None:
                witnesses.append((i, w))
        direct[lid] = (examined, examined - len(witnesses), witnesses)
    assert any(witnesses for _, _, witnesses in direct.values())

    lid = "prop-3.2e"
    law = registry()[lid]
    assert law.semi_only
    where = {id(space): i for i, space in enumerate(stream4)}
    for workers in (1, 2):
        report = run_suite(stream4, workers=workers)
        inherited = [w for r in report.results for w in r.witnesses
                     if w._law is not None]
        assert inherited
        suite = {r.law_id: (r.examined, r.passed,
                            [(where[id(w.space)], w) for w in r.witnesses])
                 for r in report.results}
        assert suite == direct
        assert [hash(w) for r in report.results for w in r.witnesses] == \
            [hash(w) for _, _, ws in direct.values() for _, w in ws]
        assert all(w._law is None for w in inherited)
        with monkeypatch.context() as m:
            m.setattr(laws_mod, "_REGISTRY", dict(registry()))
            held = run_suite(stream4, [lid], workers=workers).results[0]
            assert held.passed == held.examined == direct[lid][0]
            laws_mod._REGISTRY[lid] = dataclasses.replace(
                law, check=lambda ctx: laws_mod._Fail((0,), (), "forced failure"))
            failed = run_suite(stream4, [lid], workers=workers).results[0]
            assert failed.passed == 0
            assert len(failed.witnesses) == failed.examined == direct[lid][0]


def test_suite_inherits_class_failures_and_one_shared_runs_tuple(stream4):
    """`plan` marks a space as decided on its own context exactly when it
    is the first of its class or runs a scoped law (every space here has
    a form and runs a law), and `_runs` gives every space of one key the
    same tuple.  Every other space takes a failure, worked out on read,
    exactly for the unscoped laws that failed on its class's first
    decided space, at 1 and 2 workers."""
    evaluate = laws_mod._Evaluator(list(registry()))
    keyed, marks, own = evaluate.plan(stream4)
    assert own == [space for space, mark in zip(stream4, marks) if mark]
    shared, firsts, class_fails, expected = {}, {}, {}, {}
    for space, runs, mark in zip(stream4, keyed, marks):
        key, laws, scoped = runs
        assert shared.setdefault(key, runs) is runs
        assert laws == [law for law in registry().values()
                        if laws_mod._refusal(law, space, catalog_id(space)) is None]
        assert scoped == any(law.scope is not None for law in laws)
        first = firsts.setdefault(space.canonical, space)
        assert mark == (first is space or scoped)
        if not mark:
            if id(first) not in class_fails:
                ctx = SpaceContext(first)
                class_fails[id(first)] = [law.id for law in laws
                                          if law.check(ctx) is not None]
            if class_fails[id(first)]:
                expected[id(space)] = class_fails[id(first)]
    assert expected
    for workers in (1, 2):
        inherited = {}
        for r in run_suite(stream4, workers=workers).results:
            for w in r.witnesses:
                if w._law is not None:
                    inherited.setdefault(id(w.space), []).append(r.law_id)
        assert inherited == expected


def test_law_subset_gives_the_rows_of_the_full_run(stream4):
    """A failing law, a semi-only law and a scoped law named alone keep
    the rows the full registry gives them, at 1 and 2 workers: their
    counts come from a shorter runnable list."""
    lids = ["cor-4-cantor-bendixson", "prop-3.2e", "example-2-digital-line"]

    def rows(report):
        outcomes = _outcomes(report, stream4)
        return {r.law_id: (outcomes[r.law_id], r.verdict())
                for r in report.results if r.law_id in lids}

    for workers in (1, 2):
        subset = run_suite(stream4, lids, workers=workers)
        assert [r.law_id for r in subset.results] == lids
        assert all(r.examined for r in subset.results)
        assert rows(subset) == rows(run_suite(stream4, workers=workers))


def _calls(funcs, run):
    """Run `run()`; count the outermost calls of each function in
    `funcs`, those made while none of them runs, so a checker built from
    other checkers counts once.  A call is known by its code object, so
    one through any module's binding counts, and no two of `funcs` may
    share one."""
    counts = dict.fromkeys(funcs, 0)
    by_code = {func.__code__: func for func in funcs}
    assert len(by_code) == len(counts), "functions share a code object"
    depth = 0

    def hook(frame, event, arg):
        nonlocal depth
        if frame.f_code in by_code:
            if event == "call":
                if not depth:
                    counts[by_code[frame.f_code]] += 1
                depth += 1
            elif event == "return":
                depth -= 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, counts


def test_context_makes_one_upward_pass(monkeypatch):
    """A context keeps v_s's columns as its part `up`, and the core's
    fold for `fix_vs` and the point kernels reads that list: whichever
    of the three is read first, the context makes one upward spreads
    pass, and the fold's values are the analysis's own."""
    spreads, passes = semi_mod.spreads, []
    monkeypatch.setattr(semi_mod, "spreads",
                        lambda bits, n, upward: passes.append(upward) or spreads(bits, n, upward))
    space = named_space("khalimsky:-7:7")
    an = semi_mod.SemiAnalysis(space)
    an.fix_vs
    for first in ("up", "fix_vs", "point_kernels"):
        passes.clear()
        ctx = SpaceContext(space)
        getattr(ctx, first)
        assert (ctx.up, ctx.fix_vs, ctx.point_kernels) == (
            list(spreads(an.semi_closed.bits, space.n, True)), an.fix_vs, an.point_kernels)
        assert passes == [True], first


def test_suite_builds_one_analysis_per_semi_open_family(spaces4, monkeypatch):
    """Over the 4-point spaces the suite builds SO, and the point
    kernels, only on the first space of each of the 33 homeomorphism
    classes: a later space takes every verdict, failures too, from its
    class, and no scoped law runs on an enumerated space.  The
    generalized families are built once per distinct SO among the first
    spaces (the semi-only laws that read them are decided once per
    family).  `_refusal` is asked about each law once: n and the
    catalog id (none) are the same on every space."""
    runs = [law for law in registry().values()
            if laws_mod._refusal(law, spaces4[0], catalog_id(spaces4[0])) is None]
    assert all(law.scope is None for law in runs)
    firsts = {}
    for space in spaces4:
        firsts.setdefault(space.canonical, space)
    assert len(firsts) == 33
    families = {semi_open_bits(space) for space in firsts.values()}
    assert len(families) == 18
    kernels, read_vs = [], semi_mod.SemiAnalysis._read_vs
    monkeypatch.setattr(semi_mod.SemiAnalysis, "_read_vs",
                        lambda an: kernels.append(an) or read_vs(an))
    refusals = []
    refusal = laws_mod._refusal
    monkeypatch.setattr(laws_mod, "_refusal",
                        lambda law, space, sid: refusals.append(law) or refusal(law, space, sid))
    report, counts = _calls((semi_open_bits, generalized_families),
                            lambda: run_suite(spaces4))
    assert counts == {semi_open_bits: len(firsts),
                      generalized_families: len(families)}
    assert len(kernels) == len(firsts)
    assert len(refusals) == len(registry())
    assert report.decided_in_full == len(firsts)
    assert all(r.examined == len(spaces4) for r in report.results
               if registry()[r.law_id].scope is None)


@pytest.mark.parametrize("workers", [1, 2])
def test_only_the_first_space_of_a_class_is_decided_in_full(stream4, monkeypatch,
                                                           tmp_path, workers):
    """The caller keeps the class memo: every law is decided on the
    first space of each class, on each space without a form and on each
    space that runs a scoped law, and on no other.  At 1 worker the
    caller decides them all; at 2 it decides the first half, and the
    forked child the rest and nothing else."""
    formless = sierpinski_copies(5, isolated=1)
    stream = stream4 + [formless, relabeled(formless, [10 - x for x in range(11)])]
    expected, seen = [], set()
    for space in stream:
        scoped = any(law.scope is not None
                     and laws_mod._refusal(law, space, catalog_id(space)) is None
                     for law in registry().values())
        if space.canonical is None or scoped or space.canonical not in seen:
            seen.add(space.canonical)
            expected.append(id(space))
    log = tmp_path / "decided"
    decide = laws_mod._Evaluator.decide

    def spy(self, space):
        # a forked child keeps the caller's addresses, so id(space) and
        # a line appended to one file name the space in either process
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {id(space)}\n")
        return decide(self, space)

    monkeypatch.setattr(laws_mod._Evaluator, "decide", spy)
    report = run_suite(stream, workers=workers)
    calls, sent = [], []
    for line in log.read_text().splitlines():
        pid, space = map(int, line.split())
        (calls if pid == os.getpid() else sent).append(space)
    half = len(expected) // 2 if workers == 2 else len(expected)
    assert (calls, sent) == (expected[:half], expected[half:])
    # classes, wider windows, formless spaces, and e1 and e33
    assert report.decided_in_full == len(expected) == 46 + 2 + 2 + 2
    assert _outcomes(report, stream) == _outcomes(run_suite(stream), stream)


def _in_a_child(monkeypatch, act):
    """A fake law that passes in the caller and runs `act` in a forked
    child, over a stream of 1..3 points whose second half the child
    decides."""
    caller = os.getpid()

    def check(ctx):
        if os.getpid() != caller:
            act()

    _with_fake_law(monkeypatch, Law("fake-in-a-child", "$B=B$", check))
    return [s for n in range(1, 4) for s in enumerate_topologies(n)]


def test_a_childs_exception_reaches_the_caller(monkeypatch):
    def act():
        raise ArithmeticError("raised in a child")

    stream = _in_a_child(monkeypatch, act)
    assert run_suite(stream, ["fake-in-a-child"]).results[0].passed == len(stream)
    with pytest.raises(ArithmeticError, match="^raised in a child$"):
        run_suite(stream, ["fake-in-a-child"], workers=2)
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_is_named_with_its_exit_code(monkeypatch):
    stream = _in_a_child(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="^worker 1 exited with code 3 "):
        run_suite(stream, ["fake-in-a-child"], workers=2)
    assert multiprocessing.active_children() == []


def test_the_callers_exception_stops_and_joins_the_children(monkeypatch):
    """The caller's own share raises while the child still decides: the
    child is stopped and joined before the exception leaves run_suite."""
    caller = os.getpid()

    def check(ctx):
        if os.getpid() == caller:
            raise LookupError("raised in the caller")
        time.sleep(0.01)

    _with_fake_law(monkeypatch, Law("fake-in-the-caller", "$B=B$", check))
    stream = [s for n in range(1, 4) for s in enumerate_topologies(n)]
    with pytest.raises(LookupError, match="^raised in the caller$"):
        run_suite(stream, ["fake-in-the-caller"], workers=2)
    assert multiprocessing.active_children() == []


def test_a_serial_suite_imports_no_process_machinery():
    """`import semitop` and a 1-worker suite load none of the modules
    that forking workers needs."""
    code = ("import sys, semitop, semitop.cli\n"
            "from semitop.catalog import enumerate_topologies\n"
            "from semitop.laws import run_suite\n"
            "run_suite([s for n in range(1, 4) for s in enumerate_topologies(n)])\n"
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent',"
            " 'multiprocessing')) or m in ('logging', 'queue')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_runs_builds_a_catalog_space_once_per_call(stream4, monkeypatch):
    """`_Evaluator._runs` asks `catalog_id` once per call, so planning
    and deciding the stream build a catalog space's `named_space` once
    per call on it and never one for an enumerated space; the runnable
    lists are keyed on (n, catalog id)."""
    catalog = {entry.id for entry in catalog_entries()}
    built, named = [], catalog_mod.named_space
    monkeypatch.setattr(catalog_mod, "named_space",
                        lambda sid: built.append(sid) or named(sid))
    calls, runs = [], laws_mod._Evaluator._runs
    monkeypatch.setattr(laws_mod._Evaluator, "_runs",
                        lambda self, space: calls.append(space.name) or runs(self, space))
    evaluate = laws_mod._Evaluator(list(registry()))
    _, _, own = evaluate.plan(stream4)
    for space in own:
        evaluate.decide(space)
    assert sorted(built) == sorted(name for name in calls if name in catalog)
    assert set(built) == catalog
    monkeypatch.undo()
    assert set(evaluate.runnable) == {(space.n, catalog_id(space))
                                      for space in stream4}


def test_family_memo_is_keyed_only_by_semi_only_laws(stream4, monkeypatch):
    """A space enters the (n, SO) memo only when it runs a semi-only law,
    so the memo holds no empty entry, and none at all when no named law
    is semi-only."""
    made = []

    class Kept(laws_mod._Evaluator):
        def __init__(self, law_ids):
            super().__init__(law_ids)
            made.append(self)

    monkeypatch.setattr(laws_mod, "_Evaluator", Kept)
    run_suite(stream4)
    run_suite(stream4, ["sec-2-r0-semi-r0"])
    every, unmemoized = made
    assert every.families and all(every.families.values())
    assert unmemoized.families == {}


def test_suite_computes_no_form_for_an_enumerated_space():
    """An enumerated space carries its class's form from the generator:
    over a fresh copy of `stream4` (its catalog spaces have read no form
    yet) the suite computes a canonical form once per catalog space and
    never for an enumerated space."""
    catalog = [entry.space for entry in catalog_entries()]
    stream = [s for n in range(1, 5) for s in enumerate_topologies(n)] + catalog
    _, counts = _calls((_canonical_form,), lambda: run_suite(stream))
    assert counts == {_canonical_form: len(catalog)}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8), data=st.data())
def test_unscoped_laws_are_invariant_under_relabeling(seed, n, data):
    """The premise of the suite's class memo: a random space and a random
    relabeling of it pass or fail every unscoped law alike."""
    space = random_space(random.Random(seed), n)
    other = relabeled(space, data.draw(st.permutations(range(n))))
    ctx, other_ctx = SpaceContext(space), SpaceContext(other)
    for law in registry().values():
        if law.scope is None and n <= law.max_points:
            assert (check_law(law, space, ctx) is None) == \
                (check_law(law, other, other_ctx) is None), law.id


def _direct_outcomes(stream):
    """`_outcomes` as `check_law` gives them, space by space."""
    out = {}
    for lid, law in registry().items():
        runs = [i for i, s in enumerate(stream)
                if laws_mod._refusal(law, s, catalog_id(s)) is None]
        direct = [(i, w.subset_masks, w.points, w.message) for i in runs
                  if (w := check_law(law, stream[i])) is not None]
        out[lid] = (len(runs), len(runs) - len(direct), direct)
    return out


def test_suite_decides_an_over_budget_space_in_full():
    """A space without a canonical form, and a relabeled copy, are each
    decided in full, with the outcomes of `check_law` on each; the
    isolated point fails cor-4-cantor-bendixson."""
    space = sierpinski_copies(5, isolated=1)
    stream = [space, relabeled(space, [10 - x for x in range(11)]),
              sierpinski_copies(5, isolated=1)]
    assert all(s.canonical is None for s in stream)
    report = run_suite(stream)
    assert report.decided_in_full == len(stream)
    outcomes = _outcomes(report, stream)
    assert outcomes == _direct_outcomes(stream)
    assert outcomes["cor-4-cantor-bendixson"][2]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_scoped_space_before_its_class_is_its_first_decided_space(e1, e33, workers):
    """e1 and e33 run a scoped law and come before the enumerated spaces
    of their classes, so each is the first decided space of its class.
    Ten spaces are decided on their own context (e1, e33, the first of
    each of the 7 other classes, and the second e1), and every law's
    outcomes equal `check_law` on each space."""
    stream = [e1, e33] + list(enumerate_topologies(3)) + [named_space("e1")]
    report = run_suite(stream, workers=workers)
    assert report.decided_in_full == 10
    assert _outcomes(report, stream) == _direct_outcomes(stream)


def test_scoped_laws_never_read_the_class_memo(e1):
    """A second e1 reruns remark-3.3-strictness on itself, so it is
    decided on its own context, with or without an unscoped law beside
    the scoped one."""
    stream = [e1, named_space("e1")]
    alone = run_suite(stream, ["remark-3.3-strictness"])
    assert alone.decided_in_full == 2
    assert alone.results[0].examined == alone.results[0].passed == 2
    mixed = run_suite(stream, ["remark-3.3-strictness", "prop-3.2a"])
    assert mixed.decided_in_full == 2
    assert [(r.examined, r.passed) for r in mixed.results] == [(2, 2), (2, 2)]


def test_suite_takes_no_per_query_route(stream4, monkeypatch):
    """The law layer reaches the core only through `SpaceContext` parts:
    over the n <= 4 stream the suite builds no axiom profile, grades no
    single mask through `set_class` and asks no per-query operator of a
    `SemiAnalysis`."""
    for name in ("axiom_profile", "set_class"):
        assert not hasattr(laws_mod, name)
    calls = []

    def refused(name):
        return lambda *args: calls.append(name)

    monkeypatch.setattr(axioms_mod, "axiom_profile", refused("axiom_profile"))
    monkeypatch.setattr(semi_mod, "set_class", refused("set_class"))
    for name in ("v_s", "semi_closure", "semi_kernel"):
        monkeypatch.setattr(semi_mod.SemiAnalysis, name, refused(name))
    report = run_suite(stream4)
    assert report.exit_code() == 0
    assert calls == []


def test_witnesses_are_rendered_only_when_read(stream4, monkeypatch):
    """The suite keeps each failure as masks and point indices: over the
    n <= 4 stream it renders no subset, and the text report renders only
    the subsets of the witnesses it prints."""
    rendered = []
    render = FiniteSpace.render
    monkeypatch.setattr(FiniteSpace, "render",
                        lambda space, a: rendered.append(a) or render(space, a))
    report = run_suite(stream4)
    assert rendered == []
    shown = [w for r in report.results for w in r.witnesses[:WITNESS_CAP]]
    assert len(shown) < sum(len(r.witnesses) for r in report.results)
    report.render_text()
    assert rendered == [m for w in shown for m in w.subset_masks]


def _checks(run):
    """`_calls` of the registry's checkers, summed: the rows of one
    factory share a code object, so one of them stands for all."""
    codes = {law.check.__code__: law.check for law in registry().values()}
    result, counts = _calls(codes.values(), run)
    return result, sum(counts.values())


def test_a_checker_built_from_checkers_counts_once(e33):
    """remark-4.7 runs two `_inside` rows from its own lambda: one
    `check_law` is one checker run, not three."""
    _, calls = _checks(lambda: check_law("remark-4.7", e33))
    assert calls == 1


def test_text_report_works_out_at_most_the_shown_witnesses(stream4):
    """The text report works out only the inherited witnesses it prints,
    at most `WITNESS_CAP` per law, and `to_dict` all the others, each
    once."""
    report = run_suite(stream4)
    inherited = [[w for w in r.witnesses if w._law is not None]
                 for r in report.results]
    shown = [sum(w._law is not None for w in r.witnesses[:WITNESS_CAP])
             for r in report.results]
    assert 0 < sum(shown) < sum(map(len, inherited))
    _, text = _checks(report.render_text)
    assert text == sum(shown) and max(shown) <= WITNESS_CAP
    _, machine = _checks(report.to_dict)
    assert machine == sum(map(len, inherited)) - sum(shown)
    assert _checks(report.to_dict)[1] == _checks(report.render_text)[1] == 0


def test_witness_keeps_the_law_the_suite_ran(monkeypatch):
    """A witness taken from the class holds the `Law` object the suite
    ran: read after the registry is patched back, it still gives that
    law's failure, where the registry's law passes."""
    stream = list(enumerate_topologies(2))
    lid = "prop-3.2a"
    with monkeypatch.context() as m:
        m.setattr(laws_mod, "_REGISTRY", dict(registry()))
        laws_mod._REGISTRY[lid] = dataclasses.replace(
            registry()[lid], check=lambda ctx: laws_mod._Fail((0,), (), "forced failure"))
        report = run_suite(stream, [lid])
    witnesses = report.results[0].witnesses
    (inherited,) = [w for w in witnesses if w._law is not None]
    assert len(witnesses) == len(stream)
    assert check_law(lid, inherited.space) is None
    assert {w.message for w in witnesses} == {"forced failure"}
    assert inherited == Witness(lid, stream[0], (0,), (), "forced failure")


def test_label_dependent_law_fails_on_read(monkeypatch):
    """An unscoped law that depends on the labels breaks the premise of
    the class memo: the Sierpinski space with {a} open fails it and the
    relabeled copy with {b} open takes that failure from the class, so
    reading its witness raises an error that names the law and the
    space instead of reporting a silent pass."""
    fake = Law("fake-label-dependent", "$B=B$",
               lambda ctx: laws_mod._Fail((1,), (0,), "{a} is open")
               if 1 in ctx.space.opens else None)
    _with_fake_law(monkeypatch, fake)
    first, later = (s for s in enumerate_topologies(2)
                    if s.canonical == named_space("sierpinski").canonical)
    report = run_suite([first, later], [fake.id])
    assert report.decided_in_full == 1
    eager, inherited = report.results[0].witnesses
    assert eager.message == "{a} is open"
    error = f"fake-label-dependent passes on {later.describe()} but failed"
    with pytest.raises(RuntimeError, match=error):
        inherited.render()
    with pytest.raises(RuntimeError, match=error):
        report.render_text()


def test_no_scope_is_asked_about_an_unreserved_name(spaces3, e1, monkeypatch):
    """A space whose name is not a reserved catalog id holds no scope,
    so the suite and `check_law` never call one on an `enum:` space; the
    catalog space the scope names still runs the law."""
    asked = []
    law = registry()["remark-3.3-strictness"]
    scope = law.scope
    _with_fake_law(monkeypatch, dataclasses.replace(
        law, scope=lambda space: asked.append(space.name) or scope(space)))
    report = run_suite(spaces3 + [e1], [law.id])
    assert asked and set(asked) == {"e1"}
    assert report.results[0].examined == report.results[0].passed == 1
    asked.clear()
    with pytest.raises(LawScopeError):
        check_law(law.id, spaces3[0])
    assert asked == []


def test_law_id_filter(spaces3):
    report = run_suite(spaces3, ["prop-3.2a", "prop-3.8"])
    assert [r.law_id for r in report.results] == ["prop-3.2a", "prop-3.8"]
    with pytest.raises(KeyError):
        run_suite(spaces3, ["no-such-law"])


def test_repeated_law_ids_run_once(spaces3):
    report = run_suite(spaces3, ["prop-3.8", "prop-3.2a", "prop-3.8"])
    assert [r.law_id for r in report.results] == ["prop-3.8", "prop-3.2a"]
    assert all(r.examined == len(spaces3) for r in report.results)
    assert report.render_text() == \
        run_suite(spaces3, ["prop-3.8", "prop-3.2a"]).render_text()


def test_empty_law_id_list_is_rejected(spaces3):
    with pytest.raises(ValueError, match="empty law id list"):
        run_suite(spaces3, [])


def test_examined_respects_caps(spaces3):
    wide = named_space("khalimsky:-7:7")
    report = run_suite(spaces3 + [wide], ["prop-3.2a", "prop-3.2b",
                                          "prop-3.2f"])
    by_id = {r.law_id: r for r in report.results}
    assert by_id["prop-3.2a"].examined == 30
    assert by_id["prop-3.2b"].examined == 29   # FAMILY_CAP skips the window
    assert by_id["prop-3.2f"].examined == 29
    assert FAMILY_CAP < wide.n


def _with_fake_law(monkeypatch, law):
    reg = dict(registry())
    reg[law.id] = law
    monkeypatch.setattr(laws_mod, "_REGISTRY", reg)


def test_expected_failure_sets_exit_code(monkeypatch, e33):
    fake = Law("fake-always-fails", "$B=B$", lambda ctx: laws_mod._Fail(
        (0,), (), "forced failure"), status="expected")
    _with_fake_law(monkeypatch, fake)
    report = run_suite([e33], ["fake-always-fails"])
    assert report.exit_code() == 1
    assert "VIOLATED" in report.results[0].verdict()
    assert report.to_dict()["exit_code"] == 1


def test_stale_dispute_detection(monkeypatch, e33):
    fake = Law("fake-stale-dispute", "$B=B$", lambda ctx: None,
               status="disputed", dispute_space="e33")
    _with_fake_law(monkeypatch, fake)
    report = run_suite([e33], ["fake-stale-dispute"])
    assert report.exit_code() == 1
    assert "STALE" in report.results[0].verdict()


@pytest.mark.parametrize("workers", [1, 2])
def test_dispute_flag_survives_the_class_memo(monkeypatch, workers):
    """The disputed law, patched to pass everywhere, is stale once the
    catalog's discrete:2 runs, even when that space takes its pass from
    the class memo after a renamed copy; the copy alone exercises
    nothing."""
    lid = "cor-4-cantor-bendixson"
    law = registry()[lid]
    _with_fake_law(monkeypatch, dataclasses.replace(law, check=lambda ctx: None))
    space = named_space(law.dispute_space)
    pair = dataclasses.replace(space, name="pair")

    def verdict(report):
        return next(r.verdict() for r in report.results if r.law_id == lid)

    report = run_suite([pair, space], workers=workers)
    assert report.decided_in_full == 1
    assert verdict(report) == "disputed: STALE (no failure reproduced)"
    assert report.exit_code() == 1
    alone = run_suite([pair], workers=workers)
    assert verdict(alone) == "disputed: not exercised"
    assert alone.exit_code() == 0


def test_unexercised_dispute_is_not_fatal(monkeypatch, e1):
    fake = Law("fake-stale-dispute", "$B=B$", lambda ctx: None,
               status="disputed", dispute_space="e33")
    _with_fake_law(monkeypatch, fake)
    report = run_suite([e1], ["fake-stale-dispute"])
    assert report.exit_code() == 0
    assert "not exercised" in report.results[0].verdict()


def test_render_text_caps_witnesses(spaces3):
    report = run_suite(spaces3, ["cor-4-cantor-bendixson"])
    text = report.render_text()
    assert text.count("cor-4-cantor-bendixson @") == WITNESS_CAP
    assert "more" in text
    assert text.endswith("exit-code: 0\n")


def test_machine_dict_shape(spaces3):
    report = run_suite(spaces3[:5])
    doc = report.to_dict()
    assert doc["spaces"] == 5
    assert doc["exit_code"] == 0
    for rec, result in zip(doc["laws"], report.results):
        assert set(rec) == {"id", "status", "examined", "passed", "verdict",
                            "witnesses"}
        for w, witness in zip(rec["witnesses"], result.witnesses):
            assert isinstance(w["subsets"], list)
            for labels in w["subsets"]:
                assert labels == sorted(labels, key=witness.space.names.index)
    doc = run_suite([named_space("discrete:2")],
                    ["cor-4-cantor-bendixson"]).to_dict()
    assert doc["laws"][0]["witnesses"][0]["subsets"] == [[], ["a", "b"]]
    # a witness lists its labels in point order, as the text report
    # renders them, not sorted as strings
    window = run_suite([named_space("khalimsky:-7:7")], ["cor-4-cantor-bendixson"])
    (witness,) = window.results[0].witnesses
    evens = window.to_dict()["laws"][0]["witnesses"][0]["subsets"][0]
    assert evens == ["-6", "-4", "-2", "0", "2", "4", "6"]
    assert witness.subsets[0] == "{" + ",".join(evens) + "}"
