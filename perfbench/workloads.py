"""Inputs and pipelines of the benchmark workloads.

Every call into the package goes through an `api` dict of the public
entry points the CLI uses, so that the traced run can swap in wrapped
versions of the same callables (see `tracing.install`).

    laws-n5        run_suite over every topology on 1..5 points plus
                   the catalog, all laws, 1 worker
    laws-n5-w2     the same at 2 workers
    laws-mid       run_suite over the seeded files of gen.py, 1 worker
    analyze-large  the `analyze` pipeline on two 18-20 point spaces
"""

import json
from pathlib import Path

from semitop import (SemiAnalysis, axiom_profile, catalog_entries,
                     enumerate_topologies, generalized_families,
                     load_topology, named_space, run_suite)
# the line formatters of `semitop analyze`, so the report is the CLI's
from semitop.cli import _axiom_lines, _family_line

ANALYZE_SPACES = ("khalimsky:-9:10", "discrete:18")


def analyze_text(space, an, lam, vs, fams, prof) -> str:
    """The report `semitop analyze` prints for one space."""
    lines = [f"space: {space.describe()}",
             "points: " + " ".join(space.names)]
    lines += [_family_line(space, key, masks) for key, masks in (
        ("opens", space.opens), ("semi-open", an.semi_open),
        ("semi-closed", an.semi_closed), ("lambda-s-sets", lam),
        ("v-s-sets", vs), ("g-lambda-s-sets", fams.d_lambda),
        ("g-v-s-sets", fams.d_v), ("sg-closed", fams.sg_closed))]
    lines += _axiom_lines(prof)
    return "\n".join(lines) + "\n"


def plain_api() -> dict:
    return {
        "enumerate": lambda n: list(enumerate_topologies(n)),
        "catalog": lambda: [entry.space for entry in catalog_entries()],
        "named": named_space,
        "load": load_topology,
        "suite": lambda spaces, workers: run_suite(spaces, workers=workers),
        "analysis": SemiAnalysis,
        "lambda_sets": lambda an: an.lambda_s_sets(),
        "v_sets": lambda an: an.v_s_sets(),
        "families": generalized_families,
        "profile": axiom_profile,
        "render_report": lambda report: report.render_text(),
        "render_analysis": analyze_text,
    }


def build_inputs(workload: str, api: dict, mid_dir: Path | None) -> list:
    """Build and validate the input spaces (the part timed as set-up)."""
    if workload in ("laws-n5", "laws-n5-w2"):
        spaces = []
        for n in range(1, 6):
            spaces.extend(api["enumerate"](n))
        spaces.extend(api["catalog"]())
        return spaces
    if workload == "laws-mid":
        manifest = json.loads((mid_dir / "manifest.json").read_text("utf-8"))
        return [api["load"](mid_dir / s["file"]) for s in manifest["spaces"]]
    if workload == "analyze-large":
        return [api["named"](sid) for sid in ANALYZE_SPACES]
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, api: dict, spaces: list, workers: int):
    """Run the pipeline; return (rendered report, facts to check)."""
    if workload == "analyze-large":
        texts, facts = [], []
        for space in spaces:
            an = api["analysis"](space)
            lam = api["lambda_sets"](an)
            vs = api["v_sets"](an)
            fams = api["families"](an)
            prof = api["profile"](space, an, fams)
            texts.append(
                api["render_analysis"](space, an, lam, vs, fams, prof))
            facts.append(analyze_facts(space, an, lam, vs, fams, prof))
            del an, lam, vs, fams, prof
        return "".join(texts), facts
    report = api["suite"](spaces, workers)
    text = api["render_report"](report)
    return text, laws_facts(report)


def analyze_facts(space, an, lam, vs, fams, prof) -> dict:
    return {
        "space": space.describe(),
        "sizes": {
            "opens": len(space.opens),
            "semi-open": len(an.semi_open),
            "semi-closed": len(an.semi_closed),
            "lambda-s-sets": len(lam),
            "v-s-sets": len(vs),
            "g-lambda-s-sets": len(fams.d_lambda),
            "g-v-s-sets": len(fams.d_v),
            "sg-closed": len(fams.sg_closed),
        },
        "axioms": dict(prof.items()),
    }


def laws_facts(report) -> dict:
    return {
        "spaces": report.spaces_total,
        "exit_code": report.exit_code(),
        "laws": {r.law_id: {"status": r.status, "examined": r.examined,
                            "passed": r.passed, "verdict": r.verdict()}
                 for r in report.results},
    }
