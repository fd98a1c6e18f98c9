"""Output checks of the benchmark.

Every check counts as one attempt; a failed check records a one-line
reason.  The counts give the result's `attempted` and `failed`, and
their ratio is the `fail_frac` line of the report.
"""

import hashlib


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def laws_against_reference(checks: Checks, text: str, facts: dict,
                           ref: dict) -> None:
    """The suite report equals the one recorded, byte for byte and per law.

    The reference was taken at 1 worker, so a run at any worker count
    that passes is byte-identical to the 1-worker report.
    """
    checks.expect(digest(text) == ref["sha256"],
                  "report text differs from the reference")
    checks.expect(facts["spaces"] == ref["spaces"],
                  f"{facts['spaces']} spaces, reference {ref['spaces']}")
    for lid, want in ref["laws"].items():
        got = facts["laws"].get(lid, {})
        for key in ("examined", "passed", "verdict"):
            checks.expect(got.get(key) == want[key],
                          f"{lid} {key}: {got.get(key)!r}, "
                          f"reference {want[key]!r}")


def expected_laws_pass(checks: Checks, facts: dict) -> None:
    """Every law with status `expected` passed on every space it examined."""
    for lid, r in facts["laws"].items():
        if r["status"] == "expected":
            checks.expect(r["passed"] == r["examined"],
                          f"{lid}: {r['verdict']}")


def family_bits(masks) -> int:
    bits = 0
    for m in masks:
        bits |= 1 << m
    return bits


def semi_open_matches_oracle(checks: Checks, label: str, semi_open,
                             oracle_bits: int) -> None:
    got = family_bits(semi_open)
    diff = got ^ oracle_bits
    checks.expect(diff == 0,
                  f"{label}: semi-open family differs from the oracle on "
                  f"{bin(diff).count('1')} subsets")


def analyze_against_reference(checks: Checks, text: str, facts: list,
                              ref: dict) -> None:
    """Family sizes and axiom verdicts equal the recorded ones."""
    checks.expect(digest(text) == ref["sha256"],
                  "analyze report differs from the reference")
    checks.expect(len(facts) == len(ref["spaces"]),
                  f"{len(facts)} spaces analysed, reference "
                  f"{len(ref['spaces'])}")
    for got, want in zip(facts, ref["spaces"]):
        for part in ("sizes", "axioms"):
            for key, value in want[part].items():
                checks.expect(got[part].get(key) == value,
                              f"{want['space']} {key}: "
                              f"{got[part].get(key)!r}, reference {value!r}")
