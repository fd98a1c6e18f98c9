"""Tests of the benchmark's own parts: generator, oracle, checks, tracer."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import semi_open_bits  # noqa: E402
from semitop import (SemiAnalysis, axiom_profile,  # noqa: E402
                     enumerate_topologies, generalized_families,
                     load_topology, named_space)


def _files(directory: Path) -> dict:
    return {p.name: p.read_text("utf-8") for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.generate(11, tmp_path / "a")
    b = gen.generate(11, tmp_path / "b")
    c = gen.generate(12, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    summary = a["summary"]
    assert summary["spaces"] == len(gen.POINTS) * len(gen.DENSITIES)
    assert summary["above_route_limit"] + summary["below_route_limit"] \
        == summary["spaces"]
    assert [s["n"] for s in a["spaces"]] == [s["n"] for s in c["spaces"]]


def test_large_spaces_keep_their_classes_across_seeds(tmp_path):
    a = gen.generate(1, tmp_path / "a")["spaces"]
    b = gen.generate(2, tmp_path / "b")["spaces"]
    large = [(x, y) for x, y in zip(a, b) if x["n"] >= gen.FIXED_FROM]
    assert large
    for x, y in large:
        assert (x["opens"], x["sc"]) == (y["opens"], y["sc"])
    assert any(x["semi_open"] != y["semi_open"] for x, y in large)
    routes = {x["route"] for x in a if x["n"] == max(gen.POINTS)}
    assert routes == {"plain", "reach-index"}


def test_generated_files_load_with_the_recorded_sizes(tmp_path):
    manifest = gen.generate(5, tmp_path)
    for entry in manifest["spaces"][::7]:
        space = load_topology(tmp_path / entry["file"])
        assert space.n == entry["n"]
        assert len(space.opens) == entry["opens"]
        assert len(SemiAnalysis(space).semi_closed) == entry["sc"]


def test_oracle_agrees_with_the_package_on_small_spaces():
    spaces = list(enumerate_topologies(3)) + [named_space("e1"),
                                              named_space("khalimsky:-3:3")]
    for space in spaces:
        want = semi_open_bits(space.n, space.opens)
        assert checks.family_bits(SemiAnalysis(space).semi_open) == want


def test_oracle_check_flags_a_corrupted_family():
    space = named_space("khalimsky:-3:3")
    family = list(SemiAnalysis(space).semi_open)
    want = semi_open_bits(space.n, space.opens)
    ok = checks.Checks()
    checks.semi_open_matches_oracle(ok, "k", family, want)
    assert ok.attempted == 1 and not ok.failures
    for corrupted in (family[1:], family + [0b1010]):
        bad = checks.Checks()
        checks.semi_open_matches_oracle(bad, "k", corrupted, want)
        assert len(bad.failures) == 1


def _analyze(sid):
    space = named_space(sid)
    an = SemiAnalysis(space)
    fams = generalized_families(an)
    prof = axiom_profile(space, an, fams)
    lam, vs = an.lambda_s_sets(), an.v_s_sets()
    return (workloads.analyze_text(space, an, lam, vs, fams, prof),
            workloads.analyze_facts(space, an, lam, vs, fams, prof))


def test_analyze_check_flags_a_corrupted_family_size():
    text, facts = _analyze("e33")
    ref = {"sha256": checks.digest(text), "spaces": [facts]}
    ok = checks.Checks()
    checks.analyze_against_reference(ok, text, [facts], ref)
    assert not ok.failures
    bad_facts = dict(facts, sizes=dict(facts["sizes"], **{
        "g-v-s-sets": facts["sizes"]["g-v-s-sets"] - 1}))
    bad = checks.Checks()
    checks.analyze_against_reference(bad, text, [bad_facts], ref)
    want = facts["sizes"]["g-v-s-sets"]
    assert bad.failures == [f"e33 g-v-s-sets: {want - 1}, reference {want}"]


def test_laws_checks_flag_a_changed_verdict():
    facts = {"spaces": 2, "exit_code": 0, "laws": {
        "prop-3.2a": {"status": "expected", "examined": 2, "passed": 2,
                      "verdict": "ok"}}}
    ref = {"sha256": checks.digest("report"), "spaces": 2,
           "laws": {"prop-3.2a": {"examined": 2, "passed": 2,
                                  "verdict": "ok"}}}
    ok = checks.Checks()
    checks.laws_against_reference(ok, "report", facts, ref)
    assert ok.attempted == 5 and not ok.failures
    broken = {"spaces": 2, "exit_code": 1, "laws": {
        "prop-3.2a": {"status": "expected", "examined": 2, "passed": 1,
                      "verdict": "VIOLATED (1 spaces)"}}}
    bad = checks.Checks()
    checks.laws_against_reference(bad, "report!", broken, ref)
    assert len(bad.failures) == 3
    mid = checks.Checks()
    checks.expected_laws_pass(mid, broken)
    assert mid.failures == ["prop-3.2a: VIOLATED (1 spaces)"]


def test_self_times_subtract_child_spans():
    spans = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("c", 1, 2.0, 3.0),
             ("b", 0, 5.0, 6.0), ("a", -1, 20.0, 21.0)]
    got = tracing.self_times(spans)
    assert got == {"a": 10.0 - 4.0 + 1.0, "b": 2.0 + 1.0, "c": 1.0}


def test_tracer_round_trips_through_its_side_file(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    outer = tracer.wrap("outer", lambda f: f())
    inner = tracer.wrap("inner", lambda: 7)
    assert outer(inner) == 7
    tracer.counts["semi.masks"] += 8
    spans, counts = tracing.read_side_file(tracer.write())
    assert [s[:2] for s in spans] == [("outer", -1), ("inner", 0)]
    assert counts == {"semi.masks": 8}


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "laws-mid", "--seed", "1",
                     "--seconds", "1"]) == 2
