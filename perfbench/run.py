"""semitop benchmark.

    python3 perfbench/run.py --workload laws-n5 --seed 1 --seconds 8 --trace 0

Run from the root of a semitop checkout; the package is imported from
`src/`.  Every repetition runs in a fresh process (`child.py`), one
after another.  With `--trace 0` the run repeats the workload until
`--seconds` have passed (at least once), sets up at least three times
in all, and reports the medians of the end-to-end metrics.  With
`--trace 1` it runs the workload once untraced and once traced and
reports the per-layer metrics, including the tracing overhead against
the untraced run_s.  The last stdout line is the JSON result; the lines
before it print the same metrics for a reader.  Scratch files (laws-mid
inputs, trace side files) go to perfbench/.work/<workload>/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKERS = {"laws-n5": 1, "laws-n5-w2": 2, "laws-mid": 1, "analyze-large": 1}
SETUP_SAMPLES = 3
DEADLINE_S = 170   # the whole run ends well inside 180 s


class BenchError(Exception):
    pass


def run_child(root: Path, cfg: dict, deadline: float) -> dict:
    """One repetition in a fresh process; its parsed JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next repetition")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cfg['mode']} repetition overran the deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"{cfg['mode']} repetition exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def untraced(root: Path, cfg: dict, seconds: int, deadline: float):
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        began = time.monotonic()
        reps.append(run_child(root, dict(cfg, mode="run"), deadline))
        if time.monotonic() + 1.5 * (time.monotonic() - began) > deadline:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(root, dict(cfg, mode="setup"),
                                deadline)["setup_s"])
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("run_s", "run_cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in reps)
    notes = [f"{len(reps)} repetition(s), {len(setups)} set-up(s)"]
    return metrics, reps, notes


def traced(root: Path, cfg: dict, work: Path, deadline: float):
    base = run_child(root, dict(cfg, mode="run"), deadline)
    reps = [base]
    speedup = cpu_ratio = 0.0
    if cfg["workers"] > 1:
        serial = run_child(root, dict(cfg, mode="run", workers=1), deadline)
        reps.append(serial)
        speedup = serial["run_s"] / base["run_s"]
        cpu_ratio = base["run_cpu_s"] / serial["run_cpu_s"]
    side = work / "trace"
    side.mkdir()
    tr = run_child(root, dict(cfg, mode="trace", side_dir=str(side)),
                   deadline)
    reps.append(tr)
    metrics = dict(tr["layers"])
    metrics["laws.pool_speedup"] = speedup
    metrics["laws.pool_cpu_ratio"] = cpu_ratio
    metrics["trace.untraced_run_s"] = base["run_s"]
    metrics["trace.overhead_frac"] = tr["run_s"] / base["run_s"] - 1
    notes = [f"spans written to {side.relative_to(root)}",
             "semi.sc_probes is computed as the sum of 2^n*|SC| over the "
             "analysed spaces, not counted probe by probe"]
    if cfg["workers"] == 1:
        notes.append("laws.pool_* are 0: this workload runs no pool")
    return metrics, reps, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="semitop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "semitop" / "__init__.py").is_file():
        print(f"error: {root} holds no src/semitop; run from the root of a "
              "semitop checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = {"workload": args.workload, "workers": WORKERS[args.workload],
           "mid_dir": None}
    if args.workload == "laws-mid":
        import gen
        mid_dir = work / "mid"
        summary = gen.generate(args.seed, mid_dir)["summary"]
        print("laws-mid inputs: " + json.dumps(summary), file=sys.stderr)
        cfg["mid_dir"] = str(mid_dir)

    try:
        if args.trace:
            metrics, reps, notes = traced(root, cfg, work, deadline)
        else:
            metrics, reps, notes = untraced(root, cfg, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          + "; ".join(notes))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':<40} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} checks failed)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
