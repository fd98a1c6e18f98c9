"""Record the reference outputs the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/reference.json from the current tree: the laws-n5
suite report (its sha256 and per-law examined, passed and verdict) and
the analyze-large family sizes and axiom verdicts.  Before writing it
confirms that the 2-worker report is byte-identical to the 1-worker
one and that the texts equal what the `semitop` CLI prints.  Run it
only when a change is meant to alter those outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent


def cli_output(*args: str) -> str:
    return subprocess.run([sys.executable, "-m", "semitop", *args],
                          check=False, capture_output=True, text=True).stdout


def main() -> None:
    api = workloads.plain_api()
    spaces = workloads.build_inputs("laws-n5", api, None)
    text, facts = workloads.run("laws-n5", api, spaces, 1)
    text2, _ = workloads.run("laws-n5", api, spaces, 2)
    if text2 != text:
        raise SystemExit("2-worker report differs from the 1-worker report")
    if cli_output("laws", "--max-points", "5") != text:
        raise SystemExit("laws-n5 report differs from `semitop laws`")
    laws_ref = {"sha256": checks.digest(text), "spaces": facts["spaces"],
                "laws": {lid: {k: r[k] for k in ("examined", "passed",
                                                 "verdict")}
                         for lid, r in facts["laws"].items()}}

    spaces = workloads.build_inputs("analyze-large", api, None)
    text, facts = workloads.run("analyze-large", api, spaces, 1)
    cli = "".join(cli_output("analyze", sid)
                  for sid in workloads.ANALYZE_SPACES)
    if cli != text:
        raise SystemExit("analyze-large report differs from `semitop analyze`")
    analyze_ref = {"sha256": checks.digest(text), "spaces": facts}

    out = HERE / "reference.json"
    out.write_text(json.dumps({"laws-n5": laws_ref,
                               "analyze-large": analyze_ref}, indent=1)
                   + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
