"""Command line front end.

Five subcommands: `analyze` prints the full operator/axiom breakdown of
one space, `laws` runs the claim registry over a space stream, `enumerate`
lists every topology on n labeled points, `khalimsky` builds a digital
line window, and `claim` runs one registry entry by id.

Output is deterministic byte-for-byte for a fixed invocation; timing
and the number of spaces decided on their own context (not taken from
an earlier space of their homeomorphism class) go to stderr.  Exit codes:
0 success, 1 a claim expected to hold failed somewhere (or a disputed
claim went stale, or a named law examined no space), 2 bad input.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from .axioms import AXIOM_KEYS, axiom_profile
from .catalog import (ENUMERATION_LIMIT, catalog_entries,
                      enumerate_topologies, is_named_id, khalimsky_window,
                      named_space)
from .fileformat import ParseError, load_topology, serialize_topology
from .generalized import generalized_families
from .laws import registry, run_suite
from .semi import SemiAnalysis, set_class
from .spaces import FiniteSpace, SpaceError

# analyze prints set families in full up to this many points, and
# switches to counts beyond it
_PRINT_CAP = 8


def resolve_space(spec: str) -> FiniteSpace:
    """A reserved id is never read as a file, even with bad parameters.
    A file keeps `spec` as its name, unnormalised (`Path("./e1")` would
    print as the reserved `e1`)."""
    if is_named_id(spec):
        return named_space(spec)
    return load_topology(spec)


def _axiom_lines(prof) -> list:
    lines = []
    for key, value in prof.items():
        lines.append(f"{key.replace('_', '-')}: {str(value).lower()}")
    for key in AXIOM_KEYS:
        if key in prof.witnesses:
            lines.append(f"{key.replace('_', '-')}-witness: {prof.witnesses[key]}")
    return lines


def _family_line(space: FiniteSpace, key: str, fam) -> str:
    if space.n <= _PRINT_CAP:
        return f"{key}: {space.render_family(fam)}"
    return f"{key}: {len(fam)} sets"


def cmd_analyze(args) -> int:
    space = resolve_space(args.space)
    an = SemiAnalysis(space)
    fams = generalized_families(an)
    prof = axiom_profile(space, an, fams)
    lines = [
        f"space: {space.describe()}",
        "points: " + " ".join(space.names),
        _family_line(space, "opens", space.opens),
        _family_line(space, "semi-open", an.semi_open),
        _family_line(space, "semi-closed", an.semi_closed),
        _family_line(space, "lambda-s-sets", an.lambda_s_sets()),
        _family_line(space, "v-s-sets", an.v_s_sets()),
        _family_line(space, "g-lambda-s-sets", fams.d_lambda),
        _family_line(space, "g-v-s-sets", fams.d_v),
        _family_line(space, "sg-closed", fams.sg_closed),
    ]
    lines += _axiom_lines(prof)
    print("\n".join(lines))
    return 0


def _space_stream(args) -> list:
    spaces = []
    if args.spaces:
        for spec in args.spaces:
            spaces.append(resolve_space(spec))
    else:
        for n in range(1, args.max_points + 1):
            spaces.extend(enumerate_topologies(n))
        spaces.extend(entry.space for entry in catalog_entries())
    for spec in args.files:
        spaces.append(resolve_space(spec))
    return spaces


def _check_law_ids(law_ids) -> None:
    reg = registry()
    for lid in law_ids:
        if lid not in reg:
            raise SpaceError(f"unknown law id {lid!r}; see `semitop claim --list`")


def _check_stream_flags(args) -> None:
    """Reject a bad --max-points or --workers before any output."""
    if not 1 <= args.max_points <= ENUMERATION_LIMIT:
        raise SpaceError(f"--max-points must be between 1 and {ENUMERATION_LIMIT}")
    # each worker past the first is a forked child that runs from the
    # start of the suite, so cap them at the CPUs
    if args.workers < 1:
        raise SpaceError(f"--workers must be at least 1, got {args.workers}")
    if args.workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SpaceError(f"--workers {args.workers} needs the fork start "
                             "method, which this platform lacks")
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        raise SpaceError(f"--workers must be at most {cpus}, got {args.workers}")


def _emit_report(report, fmt: str) -> int:
    if fmt == "machine":
        print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    else:
        print(report.render_text(), end="")
    print(f"wall-time: {report.wall_time:.3f}s", file=sys.stderr)
    # the caller keeps the class memo, so this is the same at any worker count
    print(f"decided-in-full: {report.decided_in_full}/{report.spaces_total} spaces",
          file=sys.stderr)
    return report.exit_code()


def cmd_laws(args) -> int:
    _check_stream_flags(args)
    if args.laws:
        _check_law_ids(args.laws)
    spaces = _space_stream(args)
    report = run_suite(spaces, args.laws or None, workers=args.workers)
    return _emit_report(report, args.format)


def cmd_enumerate(args) -> int:
    spaces = enumerate_topologies(args.points)   # a bad --points raises on first read
    count = 0
    if args.out:
        out_dir = Path(args.out)
        for count, space in enumerate(spaces, 1):
            if count == 1:
                out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"topology_{args.points}_{count - 1:04d}.txt"
            path.write_text(serialize_topology(space), encoding="utf-8")
        print(f"wrote {count} topologies to {out_dir}")
    else:
        for count, space in enumerate(spaces, 1):
            print("---\n" * (count > 1) + serialize_topology(space), end="")
        print(f"# {count} topologies on {args.points} points")
    return 0


def cmd_khalimsky(args) -> int:
    window = khalimsky_window(args.lo, args.hi)
    space = window.space
    lines = [f"space: {space.describe()}"]
    if window.boundary_warning:
        lines.append("boundary-warning: even endpoint truncates a minimal "
                     "neighborhood; interior claims do not transfer")
    else:
        lines.append("boundary-warning: none")
    lines += _axiom_lines(axiom_profile(space))
    for x, label in enumerate(space.names):
        value = int(label)
        parity = "even" if value % 2 == 0 else "odd"
        c = set_class(space, 1 << x)
        closed = space.is_closed(1 << x)
        lines.append(f"{label} ({parity}): closed={str(closed).lower()} "
                     f"regular-open={str(c.regular_open).lower()}")
    print("\n".join(lines))
    return 0


def cmd_claim(args) -> int:
    reg = registry()
    if args.list:
        width = max(len(lid) for lid in reg) + 2
        for lid, law in reg.items():
            print(f"{lid:<{width}}{law.status:<10}{law.anchor}")
        return 0
    if not args.id:
        raise SpaceError("claim needs a law id (or --list)")
    _check_law_ids([args.id])
    _check_stream_flags(args)
    law = reg[args.id]
    print(f"law: {law.id}")
    print(f"status: {law.status}")
    print(f"anchor: {law.anchor}")
    if law.note:
        print(f"note: {law.note}")
    if law.dispute_space:
        print(f"dispute-space: {law.dispute_space}")
    print(f"max-points: {law.max_points}")
    args.laws = [args.id]
    return cmd_laws(args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semitop",
        description="finite-space laboratory for semi-open set operators, "
                    "generalized set classes and low separation axioms")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="print families, operator fixed points and axioms of one space")
    pa.add_argument("space",
                    help="named id (e1, e33, e3a, sierpinski, discrete:N, "
                         "indiscrete:N, khalimsky:LO:HI) or a topology file")
    pa.set_defaults(func=cmd_analyze)

    def stream_flags(sp):
        sp.add_argument("files", nargs="*", metavar="FILE",
                        help="extra spaces to append to the stream "
                             "(topology file or named id, as --space)")
        sp.add_argument("--max-points", type=int, default=4,
                        help="enumerate all topologies up to this size "
                             f"(default 4, limit {ENUMERATION_LIMIT})")
        sp.add_argument("--space", action="append", dest="spaces",
                        metavar="SPACE",
                        help="run on this space instead of the default "
                             "stream (repeatable; named id or file)")
        sp.add_argument("--format", choices=("text", "machine"),
                        default="text")
        sp.add_argument("--workers", type=int, default=1)

    pl = sub.add_parser("laws", help="run the claim registry over a space stream")
    stream_flags(pl)
    pl.add_argument("--law", action="append", dest="laws", metavar="ID",
                    help="restrict to this law id (repeatable)")
    pl.set_defaults(func=cmd_laws)

    pe = sub.add_parser("enumerate",
                        help="emit every topology on n labeled points")
    pe.add_argument("--points", type=int, required=True)
    pe.add_argument("--out", metavar="DIR",
                    help="write one file per topology instead of stdout")
    pe.set_defaults(func=cmd_enumerate)

    pk = sub.add_parser("khalimsky", help="build and profile a digital line window")
    pk.add_argument("lo", type=int)
    pk.add_argument("hi", type=int)
    pk.set_defaults(func=cmd_khalimsky)

    pc = sub.add_parser("claim", help="show and run a single registry entry")
    pc.add_argument("id", nargs="?", help="law id, e.g. prop-3.2f")
    pc.add_argument("--list", action="store_true",
                    help="list all registered law ids and anchors")
    stream_flags(pc)
    pc.set_defaults(func=cmd_claim)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpaceError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
