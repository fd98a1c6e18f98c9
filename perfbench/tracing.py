"""Span tracing for the traced benchmark run.

The tracer wraps the package's entry points from the outside: the
callables the workloads use, plus the module attributes that
`run_suite` and `SpaceContext` look up at call time (the space
validator, `SemiAnalysis`, `generalized_families`, `axiom_profile`,
`SpaceContext` and each registered law's checker).  Nothing under
`src/` is edited.

Spans (layer, parent span, start, end) stay in memory and are written
to one side file per process when the run ends; pool workers forked by
`run_suite` inherit the wrappers and write their own file when they
exit.  A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

import dataclasses
import json
import multiprocessing.util
import os
import time
from collections import Counter
from pathlib import Path

# family-wide scans switch to the reach index above this many
# (subset, semi-closed set) probes; see gen.ROUTE_LIMIT
from gen import ROUTE_LIMIT


class Tracer:
    def __init__(self, side_dir: Path):
        self.side_dir = side_dir
        self._start(os.getpid())

    def _start(self, pid: int) -> None:
        self.pid = pid
        self.spans = []      # [layer, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []

    def _enter(self, layer: str) -> list:
        if os.getpid() != self.pid:
            # first span in a forked pool worker: start an empty trace
            # and write it when the worker exits
            self._start(os.getpid())
            multiprocessing.util.Finalize(self, self.write, exitpriority=10)
        rec = [layer, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn, after=None):
        """`fn` with every call recorded as a span of `layer`."""
        def traced(*args, **kwargs):
            rec = self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if after is not None:
                after(out)
            return out
        return traced

    def write(self) -> Path:
        path = self.side_dir / f"spans-{self.pid}.tsv"
        lines = ["# counts " + json.dumps(self.counts, sort_keys=True)]
        lines += [f"{i}\t{p}\t{layer}\t{s:.9f}\t{e:.9f}"
                  for i, (layer, p, s, e) in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def read_side_file(path: Path):
    """(spans, counts) as written by `Tracer.write`."""
    spans, counts = [], Counter()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# counts "):
            counts.update(json.loads(line[len("# counts "):]))
            continue
        _, parent, layer, start, end = line.split("\t")
        spans.append((layer, int(parent), float(start), float(end)))
    return spans, counts


def self_times(spans) -> Counter:
    """Seconds per layer, each span less the time its children cover."""
    child = [0.0] * len(spans)
    for layer, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for i, (layer, _, start, end) in enumerate(spans):
        out[layer] += end - start - child[i]
    return out


def install(tracer: Tracer, api: dict) -> dict:
    """Wrap the package entry points; return the traced workload api."""
    import semitop.catalog as catalog
    import semitop.laws as laws
    import semitop.spaces as spaces

    validate = tracer.wrap("spaces.validate", spaces.space_from_masks)
    spaces.space_from_masks = validate
    catalog.space_from_masks = validate

    def count_analysis(an) -> None:
        size = 1 << an.space.n
        probes = size * len(an.semi_closed)
        tracer.counts["semi.masks"] += size
        tracer.counts["semi.sc_probes"] += probes
        route = "bulk" if probes > ROUTE_LIMIT else "plain"
        tracer.counts[f"semi.{route}_spaces"] += 1

    analysis = tracer.wrap("semi.analysis", api["analysis"],
                           after=count_analysis)
    families = tracer.wrap("generalized.families", api["families"])
    profile = tracer.wrap("axioms.profile", api["profile"])
    laws.SemiAnalysis = analysis
    laws.generalized_families = families
    laws.axiom_profile = profile
    laws.SpaceContext = tracer.wrap("laws.context", laws.SpaceContext)
    reg = {lid: dataclasses.replace(
               law, check=tracer.wrap(f"laws.law.{lid}", law.check))
           for lid, law in laws.registry().items()}
    laws.registry = lambda: reg

    traced = dict(api, analysis=analysis, families=families, profile=profile)
    for key, layer in (("enumerate", "catalog.enumerate"),
                       ("catalog", "catalog.named_space"),
                       ("named", "catalog.named_space"),
                       ("load", "fileformat.load"),
                       ("suite", "laws.suite"),
                       ("lambda_sets", "semi.lambda_s_sets"),
                       ("v_sets", "semi.v_s_sets"),
                       ("render_report", "cli.render"),
                       ("render_analysis", "cli.render")):
        traced[key] = tracer.wrap(layer, api[key])
    return traced
