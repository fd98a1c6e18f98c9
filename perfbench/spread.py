"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads laws-mid --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json.  With --trace it also makes one traced run
per workload.  With --out it writes everything it measured as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workloads:
        runs = [bench(workload, seed, spec["run_seconds"], 0)
                for seed in seeds_of(args.seeds)]
        if any(not r["correct"] for r in runs):
            raise SystemExit(f"{workload}: a run failed its output checks")
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound,
                             "values": values}
            flag = "" if (q3 - q1) / med < bound / 3 else "  <-- over bound/3"
            print(f"{workload:<14}{name:<13}median {med:<10.5g}"
                  f"spread {(q3 - q1) / med:<8.4f}bound {bound}{flag}",
                  flush=True)
        record[workload] = {"seeds": args.seeds, "end_to_end": summary}
        if args.trace:
            traced = bench(workload, seeds_of(args.seeds)[0],
                           spec["run_seconds"], 1)
            record[workload]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
