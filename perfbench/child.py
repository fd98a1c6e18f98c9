"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py '{"workload": "laws-n5", "mode": "run",
                                 "workers": 1, "mid_dir": null}'

`run.py` starts one per repetition, so that peak RSS covers this
process and its pool children only.  Modes:

    setup  import the package and build the inputs, report setup_s
    run    also run the pipeline untraced and check its output
    trace  the same with every layer wrapped by `tracing.install`;
           adds the per-layer metrics (needs "side_dir")

The last stdout line is a JSON object with the measurements.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import (Checks, analyze_against_reference,  # noqa: E402
                    expected_laws_pass, laws_against_reference,
                    semi_open_matches_oracle)
from tracing import Tracer, install, read_side_file, self_times  # noqa: E402
from workloads import build_inputs, plain_api, run  # noqa: E402

HERE = Path(__file__).resolve().parent


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def check_output(workload, text, facts, spaces, mid_dir) -> Checks:
    from semitop.semi import SemiAnalysis

    checks = Checks()
    ref = json.loads((HERE / "reference.json").read_text("utf-8"))
    if workload in ("laws-n5", "laws-n5-w2"):
        laws_against_reference(checks, text, facts, ref["laws-n5"])
    elif workload == "laws-mid":
        expected_laws_pass(checks, facts)
        manifest = json.loads((mid_dir / "manifest.json").read_text("utf-8"))
        for space, entry in zip(spaces, manifest["spaces"], strict=True):
            checks.expect(len(space.opens) == entry["opens"],
                          f"{entry['file']}: {len(space.opens)} opens loaded, "
                          f"{entry['opens']} written")
            semi_open_matches_oracle(
                checks, entry["file"], SemiAnalysis(space).semi_open,
                int(entry["semi_open"], 16))
    else:
        analyze_against_reference(checks, text, facts, ref["analyze-large"])
    return checks


def suite_counts(spaces) -> Counter:
    """Law evaluations and skips, split as `run_suite` decides them."""
    from semitop.laws import registry

    out = Counter({"laws.evaluated": 0, "laws.skipped_scope": 0,
                   "laws.skipped_cap": 0})
    for space in spaces:
        for law in registry().values():
            if not law.applies(space):
                out["laws.skipped_scope"] += 1
            elif space.n > law.max_points:
                out["laws.skipped_cap"] += 1
            else:
                out["laws.evaluated"] += 1
    return out


def layer_metrics(tracer, workload, spaces, run_start, run_s):
    """Per-layer self times and counts from every process's side file."""
    from semitop.laws import registry

    tracer.write()
    self_s = Counter()
    counts = Counter()
    spans_total = 0
    covered = 0.0
    for path in sorted(tracer.side_dir.glob("spans-*.tsv")):
        spans, file_counts = read_side_file(path)
        self_s += self_times(spans)
        counts += file_counts
        spans_total += len(spans)
        if path.name == f"spans-{tracer.pid}.tsv":
            covered = sum(end - start for _, parent, start, end in spans
                          if parent < 0 and start >= run_start)
    law_layers = [f"laws.law.{lid}" for lid in registry()]
    layers = ["catalog.enumerate", "catalog.named_space", "spaces.validate",
              "fileformat.load", "semi.analysis", "semi.lambda_s_sets",
              "semi.v_s_sets", "generalized.families", "axioms.profile",
              "laws.context", "laws.suite", "cli.render"] + law_layers
    out = {f"{layer}_s": self_s[layer] for layer in layers}
    out["laws.check_s"] = sum(self_s[layer] for layer in law_layers)
    out["catalog.spaces"] = len(spaces)
    if workload != "analyze-large":
        counts += suite_counts(spaces)
    for key in ("laws.evaluated", "laws.skipped_scope", "laws.skipped_cap",
                "semi.masks", "semi.sc_probes", "semi.bulk_spaces",
                "semi.plain_spaces"):
        out[key] = counts[key]
    out["trace.run_s"] = run_s
    out["trace.spans"] = spans_total
    out["trace.unaccounted_frac"] = (run_s - covered) / run_s
    return out


def main() -> None:
    cfg = json.loads(sys.argv[1])
    workload, mode = cfg["workload"], cfg["mode"]
    mid_dir = Path(cfg["mid_dir"]) if cfg.get("mid_dir") else None

    api = plain_api()
    tracer = None
    if mode == "trace":
        tracer = Tracer(Path(cfg["side_dir"]))
        api = install(tracer, api)
    spaces = build_inputs(workload, api, mid_dir)
    out = {"setup_s": time.perf_counter() - T0}
    if mode != "setup":
        cpu0 = cpu_seconds()
        run_start = time.perf_counter()
        text, facts = run(workload, api, spaces, cfg["workers"])
        out["run_s"] = time.perf_counter() - run_start
        out["run_cpu_s"] = cpu_seconds() - cpu0
        out["peak_rss_mb"] = peak_rss_mb()
        checks = check_output(workload, text, facts, spaces, mid_dir)
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, workload, spaces,
                                          run_start, out["run_s"])
            examined = 0 if workload == "analyze-large" else \
                sum(r["examined"] for r in facts["laws"].values())
            counted = out["layers"]["laws.evaluated"]
            checks.expect(examined == counted,
                          f"report examined {examined} law-space pairs, "
                          f"the trace counted {counted}")
        out["attempted"] = checks.attempted
        out["failures"] = checks.failures
    print(json.dumps(out))


if __name__ == "__main__":
    main()
