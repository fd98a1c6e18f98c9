import hashlib
import json
import os
from pathlib import Path

import pytest

import semitop.catalog as catalog_mod
import semitop.cli as cli_mod
import semitop.laws as laws_mod
import semitop.spaces as spaces_mod
from semitop.axioms import axiom_profile
from semitop.catalog import enumerate_topologies, named_space
from semitop.cli import main
from semitop.fileformat import (load_topology, parse_topology,
                                serialize_topology)
from semitop.laws import Law, registry, run_suite
from semitop.spaces import build_space

E33_EXPECTED = """\
space: e33
points: a b c
opens: {∅,{a,b},X}
semi-open: {∅,{a,b},X}
semi-closed: {∅,{c},X}
lambda-s-sets: {∅,{a,b},X}
v-s-sets: {∅,{c},X}
g-lambda-s-sets: {∅,{a},{b},{a,b},{a,c},{b,c},X}
g-v-s-sets: {∅,{a},{b},{c},{a,c},{b,c},X}
sg-closed: {∅,{c},{a,c},{b,c},X}
t1: false
r0: false
semi-t1: false
semi-r0: false
semi-t-half: false
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_e33_golden(capsys):
    code, out, _ = run_cli(capsys, "analyze", "e33")
    assert code == 0
    assert out.startswith(E33_EXPECTED)
    assert "semi-t-half-witness: {a,c} is sg-closed but not semi-closed" in out


def test_analyze_discrete_all_true(capsys):
    code, out, _ = run_cli(capsys, "analyze", "discrete:2")
    assert code == 0
    for key in ("t1", "r0", "semi-t1", "semi-r0", "semi-t-half"):
        assert f"{key}: true" in out
    assert "witness" not in out


def test_analyze_e3a(capsys):
    code, out, _ = run_cli(capsys, "analyze", "e3a")
    assert code == 0
    assert "semi-t1: true" in out
    assert "r0: false" in out


def test_analyze_file_and_errors(capsys, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("points: a b\nopen:\nopen: a\nopen: a b\n",
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert f"space: {path}" in out

    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.txt"))
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("points: a\nopen: zz\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and "unknown point label" in err

    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"points: a\nopen: \xe9\n")
    code, out, err = run_cli(capsys, "analyze", str(latin1))
    assert code == 2 and out == ""
    assert err == f"error: {latin1}:2: byte 0xe9 is not UTF-8\n"

    # reserved ids with bad parameters report the id, not a missing file
    for sid, fragment in (("discrete:0", "bad point count in 'discrete:0'"),
                          ("khalimsky:1", "unknown space id 'khalimsky:1'")):
        code, _, err = run_cli(capsys, "analyze", sid)
        assert code == 2 and fragment in err
        assert "No such file" not in err


def test_oversized_named_space_reports_its_size(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a space past the point limit")

    monkeypatch.setattr(catalog_mod, "space_from_masks", no_build)
    monkeypatch.setattr(catalog_mod, "space_from_table", no_build)
    for sid in ("discrete:21", "indiscrete:40"):
        code, out, err = run_cli(capsys, "analyze", sid)
        assert code == 2 and out == ""
        assert err == f"error: {sid} has {sid.split(':')[1]} points, limit 20\n"


_N4_SHA256 = {
    "text": "1e97198863ce84d66befe57b2cb065d166534854f9464cca11f5712c5aac6efb",
    "machine": "c5ff1ef121e46bc58c5975378e001324e78b5b9ee30eaf5222d23d6464485f8a",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fmt", sorted(_N4_SHA256))
def test_laws_n4_report_is_pinned(capsys, fmt, workers):
    """The whole n <= 4 report, witnesses included, byte for byte: a
    checker rewrite that moves any count or witness changes the hash."""
    code, out, _ = run_cli(capsys, "laws", "--max-points", "4",
                           "--format", fmt, "--workers", workers)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _N4_SHA256[fmt]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_laws_reports_the_spaces_decided_in_full_on_stderr(capsys, workers):
    """stderr gives, after the wall time, how many spaces were decided in
    full: one per homeomorphism class (46 on 1..4 points, and the two
    wider windows), and e1 and e33, which run a scoped law, at either
    worker count, since the caller keeps the class memo.  stdout is the
    pinned report."""
    code, out, err = run_cli(capsys, "laws", "--max-points", "4",
                             "--workers", workers)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _N4_SHA256["text"]
    wall, full = err.splitlines()
    assert wall.startswith("wall-time: ")
    decided, total = full.removeprefix("decided-in-full: ").split(" ")[0].split("/")
    assert total == "399" and full.endswith(" spaces")
    assert int(decided) == 50


def test_claim_reports_the_spaces_decided_in_full_on_stderr(capsys):
    """Of 44 spaces, only the first of each of the 15 classes (13 on
    1..3 points, and the two wider windows): a later space takes the
    law's failure from its class as it takes a pass, and the law is
    unscoped, so nothing runs on the space itself."""
    code, out, err = run_cli(capsys, "claim", "cor-4-cantor-bendixson",
                             "--max-points", "3")
    assert code == 0
    assert "disputed: confirmed" in out
    assert err.splitlines()[1] == "decided-in-full: 15/44 spaces"


@pytest.mark.parametrize("argv, exit_code, line", [
    (("claim", "example-4.6-intersection", "--max-points", "5"), 0,
     "decided-in-full: 1/7341 spaces"),
    (("laws", "--law", "prop-3.2b", "--space", "discrete:18"), 1,
     "decided-in-full: 0/1 spaces"),
])
def test_a_space_that_runs_no_law_is_not_decided_in_full(capsys, argv,
                                                          exit_code, line):
    """A space that runs no law is not counted: the scoped law runs on
    e33 alone, and `FAMILY_CAP` keeps prop-3.2b off 18 points (a named
    law that examines nothing fails the report)."""
    code, _, err = run_cli(capsys, *argv)
    assert code == exit_code
    assert err.splitlines()[1] == line


def test_laws_exits_2_when_a_class_has_no_canonical_form(capsys, tiny_budget):
    """Past `CANONICAL_BUDGET` the class generator's error reaches the
    user as exit 2 with its message, not a traceback."""
    code, out, err = run_cli(capsys, "laws", "--max-points", "4")
    assert (code, out) == (2, "")
    assert err == ("error: a 4-point class has no canonical form within "
                   "CANONICAL_BUDGET = 1 orderings\n")


_LARGE_ANALYZE_SHA256 = {
    "khalimsky:-9:10": "21c28060d829a74820cf720c089f31d70395c1ce7c9c6daa32baea46e7cd83a9",
    "discrete:18": "2f95337e9c6a2c2a1aa08162520b1cc1335aeac6f871da93a4386cd1f3ad71da",
}


@pytest.mark.parametrize("sid", sorted(_LARGE_ANALYZE_SHA256))
def test_large_analyze_report_is_pinned(capsys, sid):
    """The whole analyze report on the 18- and 20-point spaces, byte for
    byte: a rewrite of the per-point spreads that moves any family, class
    or witness changes the hash."""
    code, out, _ = run_cli(capsys, "analyze", sid)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _LARGE_ANALYZE_SHA256[sid]


def test_named_space_resolved_once(capsys, monkeypatch):
    calls = []

    def counting(sid, **kw):
        calls.append(sid)
        return named_space(sid, **kw)

    monkeypatch.setattr(catalog_mod, "named_space", counting)
    monkeypatch.setattr(cli_mod, "named_space", counting)
    code, _, _ = run_cli(capsys, "analyze", "khalimsky:-3:3")
    assert code == 0 and calls == ["khalimsky:-3:3"]


def test_analyze_is_deterministic(capsys):
    one = run_cli(capsys, "analyze", "khalimsky:-3:3")
    two = run_cli(capsys, "analyze", "khalimsky:-3:3")
    assert one == two


def test_laws_default_stream(capsys):
    code, out, err = run_cli(capsys, "laws", "--max-points", "3")
    assert code == 0
    assert out.splitlines()[0] == "claim suite over 44 spaces"
    assert "disputed: confirmed" in out
    assert "VIOLATED" not in out
    assert out.rstrip().endswith("exit-code: 0")
    assert "wall-time:" in err


def test_laws_space_filter_disputed(capsys):
    code, out, _ = run_cli(capsys, "laws", "--law", "cor-4-cantor-bendixson",
                           "--space", "discrete:2")
    assert code == 0
    assert "claim suite over 1 spaces" in out
    assert "cor-4-cantor-bendixson @ discrete:2" in out


def test_laws_machine_format(capsys):
    code, out, _ = run_cli(capsys, "laws", "--max-points", "2",
                           "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_code"] == 0
    assert any(rec["id"] == "prop-3.2f" for rec in doc["laws"])


def test_laws_with_file(capsys, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("points: a b\nopen:\nopen: a b\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "laws", "--max-points", "1", str(path))
    assert code == 0
    assert "claim suite over 12 spaces" in out


def _examined(out: str) -> dict:
    """Law id -> examined count, from a machine report."""
    return {rec["id"]: rec["examined"] for rec in json.loads(out)["laws"]}


# the discrete topology on the points 1, 2, 3: T1, so example-2-digital-line
# fails on it wherever it runs
_DISCRETE_123 = serialize_topology(named_space("discrete:3")).translate(
    str.maketrans("abc", "123"))


def test_file_named_like_a_reserved_id_keeps_its_path(capsys, tmp_path,
                                                      monkeypatch):
    """A path to a file named like a reserved id names the space by the
    argument text, so no law scoped to that id runs on the file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e1").write_text(serialize_topology(named_space("e1")),
                                 encoding="utf-8")
    (tmp_path / "khalimsky:1:3").write_text(_DISCRETE_123, encoding="utf-8")
    code, out, _ = run_cli(capsys, "analyze", "./e1")
    assert code == 0 and out.startswith("space: ./e1\n")
    # a positional file joins the default stream, whose catalog holds e1
    # and odd windows
    _, out, _ = run_cli(capsys, "laws", "--format", "machine",
                        "--max-points", "1")
    default = _examined(out)
    for spec, law_id in (("./e1", "remark-3.3-strictness"),
                         ("./khalimsky:1:3", "example-2-digital-line")):
        for route, expected in ((("--space", spec), 0),
                                ((spec,), default[law_id])):
            code, out, _ = run_cli(capsys, "laws", "--format", "machine",
                                   "--max-points", "1", *route)
            assert code == 0, route
            assert _examined(out)[law_id] == expected, route


def test_reserved_name_from_the_api_needs_the_catalog_space(capsys, tmp_path,
                                                            monkeypatch):
    """`load_topology(Path("./e1"))` names its space e1, as the path
    prints.  The e1- and e33-scoped laws run only on the catalog space
    itself (equality ignores the name): a look-alike with other labels,
    or with the same labels and other opens, is outside their scope, so
    the documented labels are never looked up on it."""
    monkeypatch.chdir(tmp_path)
    for name, like in (("e1", "discrete:2"), ("e33", "discrete:3")):
        (tmp_path / name).write_text(serialize_topology(named_space(like)),
                                     encoding="utf-8")
    looks = [load_topology(Path(f"./{name}")) for name in ("e1", "e33")]
    assert [space.name for space in looks] == ["e1", "e33"]
    ids = ["remark-3.3-strictness", "example-4.6-intersection"]
    report = run_suite(looks)
    examined = {r.law_id: r.examined for r in report.results}
    assert [examined[lid] for lid in ids] == [0, 0]
    assert report.exit_code() == 0
    # the default stream still examines each law once, on its catalog space
    code, out, _ = run_cli(capsys, "laws", "--format", "machine",
                           "--max-points", "1", "--law", ids[0], "--law", ids[1])
    assert code == 0
    assert _examined(out) == dict.fromkeys(ids, 1)
    # so does the dispute flag: two indiscrete points named discrete:2
    # leave the disputed corollary not exercised, not stale
    fake = build_space(["a", "b"], [[], ["a", "b"]], name="discrete:2")
    report = run_suite([fake], ["cor-4-cantor-bendixson"])
    assert report.results[0].verdict() == "disputed: not exercised"
    assert report.exit_code() == 0


def test_positional_reserved_id_is_never_read_as_a_file(capsys, tmp_path,
                                                        monkeypatch):
    """Positional spaces resolve as --space does: a reserved id names the
    catalog space or is a bad id, even when a file of that name exists."""
    monkeypatch.chdir(tmp_path)
    for name in ("e1", "khalimsky:x:y"):
        (tmp_path / name).write_text(_DISCRETE_123, encoding="utf-8")
    code, out, _ = run_cli(capsys, "laws", "--format", "machine",
                           "--max-points", "1", "--law",
                           "remark-3.3-strictness", "e1")
    assert code == 0
    rec = json.loads(out)["laws"][0]
    assert (rec["examined"], rec["passed"]) == (2, 2)   # catalog e1, then e1
    code, out, err = run_cli(capsys, "laws", "--max-points", "1",
                             "khalimsky:x:y")
    assert code == 2 and out == ""
    assert err == "error: unknown space id 'khalimsky:x:y'\n"


def test_an_id_that_is_not_its_spaces_name_is_unknown(capsys):
    """A numeral the space's name would not print is a bad id, exit 2,
    not a space under another name."""
    for sid in ("discrete:+3", "discrete:03", "discrete:\u0663",
                "indiscrete:2_0", "khalimsky:-0:2", "discrete:0021"):
        code, out, err = run_cli(capsys, "analyze", sid)
        assert code == 2 and out == ""
        assert err == f"error: unknown space id {sid!r}\n"


def test_window_scope_skips_a_name_without_integer_bounds():
    """A space built through the API keeps whatever name it is given; a
    name shaped like a window id is outside the scope unless the space
    is that odd window: other bounds, no window at all (lo > hi), or an
    odd window's name on other labels or opens."""
    names = ("khalimsky:x:y", "khalimsky:1:3:5", "khalimsky:1",
             "khalimsky:-1:1", "khalimsky:1:-1")
    spaces = [parse_topology(_DISCRETE_123, name=name) for name in names]
    spaces += [build_space(["a", "b", "c"], [[], ["a"], ["a", "b", "c"]],
                           name=name) for name in names[-2:]]
    for space in spaces:
        report = run_suite([space], ["example-2-digital-line"])
        assert report.results[0].examined == 0, space.describe()
    window = parse_topology(serialize_topology(named_space("khalimsky:-1:1")),
                            name="khalimsky:-1:1")
    assert run_suite([window], ["example-2-digital-line"]).results[0].passed == 1


def test_laws_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "laws", "--law", "no-such-law")
    assert code == 2 and "unknown law id" in err
    # the stream flags are checked before any output, by both subcommands
    for argv in (("laws",), ("claim", "prop-3.2a")):
        for bad in ("0", "6"):
            code, out, err = run_cli(capsys, *argv, "--max-points", bad)
            assert code == 2 and out == "", (argv, bad)
            assert "--max-points" in err
        # a space that cannot be resolved too, before the claim's header
        for bad in ("/nonexistent", "discrete:99"):
            code, out, err = run_cli(capsys, *argv, "--space", bad)
            assert code == 2 and out == "", (argv, bad)
            assert err.startswith("error: ") and "Traceback" not in err
    code, out, err = run_cli(capsys, "claim", "--list", "--max-points", "9")
    assert code == 2 and out == "" and "--max-points" in err
    # --list resolves the spaces it is given before it lists
    for argv in (("--space", "/nonexistent"), ("nosuchfile",)):
        code, out, err = run_cli(capsys, "claim", "--list", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "Traceback" not in err


def test_workers_must_be_positive(capsys):
    cpus = os.cpu_count() or 1
    for argv in (("laws", "--max-points", "1"), ("claim", "prop-3.2a")):
        for bad in ("0", "-3"):
            code, out, err = run_cli(capsys, *argv, "--workers", bad)
            assert code == 2 and out == ""
            assert f"--workers must be at least 1, got {bad}" in err
            assert "Traceback" not in err
        # rejected before any child is forked
        code, out, err = run_cli(capsys, *argv, "--workers", str(cpus + 1))
        assert code == 2 and out == ""
        assert err == f"error: --workers must be at most {cpus}, got {cpus + 1}\n"


def test_workers_need_the_fork_start_method(capsys, monkeypatch):
    """Without fork, --workers past 1 exits 2 before any output; one
    worker forks nothing and still runs."""
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    for argv in (("laws", "--max-points", "1"), ("claim", "prop-3.2a")):
        code, out, err = run_cli(capsys, *argv, "--workers", "2")
        assert code == 2 and out == ""
        assert err == ("error: --workers 2 needs the fork start method, "
                       "which this platform lacks\n")
        code, out, _ = run_cli(capsys, *argv, "--workers", "1")
        assert code == 0 and out


def test_laws_exit_one_on_expected_failure(capsys, monkeypatch):
    fake = Law("fake-cli-fails", "$B=B$",
               lambda ctx: laws_mod._Fail((0,), (), "forced"),
               status="expected")
    reg = dict(registry())
    reg[fake.id] = fake
    monkeypatch.setattr(laws_mod, "_REGISTRY", reg)
    code, out, _ = run_cli(capsys, "laws", "--law", "fake-cli-fails",
                           "--space", "e33")
    assert code == 1
    assert "VIOLATED" in out and "exit-code: 1" in out


def test_named_law_that_examines_nothing_fails(capsys):
    for law_id, space in (("prop-3.2b", "khalimsky:-7:7"),      # size cap
                          ("remark-3.3-strictness", "e33")):    # scope
        for cmd in (("laws", "--law", law_id), ("claim", law_id)):
            code, out, _ = run_cli(capsys, *cmd, "--space", space)
            assert code == 1, (cmd, space)
            assert "not exercised" in out and "exit-code: 1" in out


def test_unnamed_law_that_examines_nothing_is_not_fatal(capsys):
    code, out, _ = run_cli(capsys, "laws", "--space", "e33")
    assert code == 0
    line = next(l for l in out.splitlines()
                if l.startswith("remark-3.3-strictness"))
    assert line.endswith("not exercised")


def test_laws_deterministic_output(capsys):
    one = run_cli(capsys, "laws", "--max-points", "3")
    two = run_cli(capsys, "laws", "--max-points", "3")
    assert one[1] == two[1]


def test_khalimsky_odd_window(capsys):
    code, out, _ = run_cli(capsys, "khalimsky", "-7", "7")
    assert code == 0
    assert "boundary-warning: none" in out
    assert "semi-t1: true" in out and "semi-r0: true" in out
    assert "t1: false" in out and "r0: false" in out
    assert "-6 (even): closed=true regular-open=false" in out
    assert "1 (odd): closed=false regular-open=true" in out


def test_khalimsky_reads_only_the_table(capsys, monkeypatch):
    """Closedness and the axioms are read off the table: the report on
    20 points builds no family of opens."""
    def refused(table, n):
        raise AssertionError(f"opens built on {n} points")
    monkeypatch.setattr(spaces_mod, "saturated", refused)
    code, out, _ = run_cli(capsys, "khalimsky", "-9", "10")
    assert code == 0 and "10 (even): closed=true regular-open=false" in out


def test_khalimsky_even_window(capsys):
    code, out, _ = run_cli(capsys, "khalimsky", "-2", "2")
    assert code == 0
    assert "boundary-warning: even endpoint" in out
    assert "semi-t1: false" in out


_KHALIMSKY_SHA256 = {
    ("-7", "7"): "e0db84473433e0d0758e05f12b62be863fb0abf8902b0fd698d9da8083050756",
    ("-2", "2"): "da05c75f57388377f73e0f9cacb331aef9c8e9927661d31a930eeaf99ba9d949",
    ("-8", "9"): "f8a7df2ecf49cea4808b7fb2ca24e89b30abfde1711722c9d0db0295bdafe2ce",
    ("0", "1"): "cfb151f734db1ba5d9dce0805439bef41f3c8a8c1309e4f321a334c78bc3ade6",
}


@pytest.mark.parametrize("window", sorted(_KHALIMSKY_SHA256))
def test_khalimsky_report_is_pinned(capsys, window):
    """The whole khalimsky report, byte for byte, on odd and even
    windows: the axiom verdicts, the R0 and semi-R0 witnesses and the
    per-point lines."""
    code, out, _ = run_cli(capsys, "khalimsky", *window)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _KHALIMSKY_SHA256[window]


def test_khalimsky_bad_window(capsys):
    code, _, err = run_cli(capsys, "khalimsky", "2", "1")
    assert code == 2 and "error:" in err


def test_enumerate_stdout(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--points", "2")
    assert code == 0
    assert out.count("points: a b") == 4
    assert out.count("---") == 3
    assert "# 4 topologies on 2 points" in out


def test_enumerate_n5_stdout_is_pinned(capsys):
    """The labels and opens of every labeled topology on 5 points, in
    order: a rewrite of the orbit expansion or of its sort that moves or
    drops any family changes the hash."""
    code, out, _ = run_cli(capsys, "enumerate", "--points", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7dea07ec217c22748b2110d8409b2d2bc41ef2ae6713918cf5ef6e2e9ac8409e"


def test_enumerate_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "spaces"
    code, out, _ = run_cli(capsys, "enumerate", "--points", "3",
                           "--out", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("topology_3_*.txt"))
    assert len(files) == 29
    by_opens = {s.opens.members: s for s in enumerate_topologies(3)}
    for path in files:
        space = load_topology(path)
        original = by_opens.pop(space.opens.members)
        assert axiom_profile(space) == axiom_profile(original)
    assert not by_opens


def test_enumerate_refuses_a_bad_count_before_any_output(capsys, tmp_path):
    """The enumeration is read as a stream, and its point count is checked
    on the first read: a bad --points exits 2 with nothing printed and no
    directory made."""
    out_dir = tmp_path / "spaces"
    for extra in ([], ["--out", str(out_dir)]):
        code, out, err = run_cli(capsys, "enumerate", "--points", "6", *extra)
        assert (code, out) == (2, "")
        assert err == "error: enumeration supports 1 <= n <= 5\n"
    assert not out_dir.exists()


def test_claim_metadata_and_run(capsys):
    code, out, _ = run_cli(capsys, "claim", "prop-3.2f", "--max-points", "2")
    assert code == 0
    assert "law: prop-3.2f" in out
    assert "status: expected" in out
    assert "anchor:" in out and "$(B^c)^{\\Lambda_s}=(B^{V_s})^c$" in out
    assert "exit-code: 0" in out


def test_claim_disputed(capsys):
    code, out, _ = run_cli(capsys, "claim", "cor-4-cantor-bendixson",
                           "--space", "discrete:2")
    assert code == 0
    assert "status: disputed" in out
    assert "dispute-space: discrete:2" in out
    assert "disputed: confirmed" in out


def test_claim_list(capsys):
    code, out, _ = run_cli(capsys, "claim", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(registry())
    assert any(line.startswith("prop-3.2a") for line in lines)


def test_claim_errors(capsys):
    code, out, err = run_cli(capsys, "claim", "wat")
    assert (code, out) == (2, "")
    assert err == "error: unknown law id 'wat'; see `semitop claim --list`\n"
    code, _, err = run_cli(capsys, "claim")
    assert code == 2
