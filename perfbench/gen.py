"""Seeded input generator for the `laws-mid` workload.

Each space is a random specialization preorder on n points: a random
linear order, a relation drawn along it with edge probability p, a few
points merged into equivalence classes, then the transitive closure.
The opens are the sets saturated under that preorder.  Every (n, p)
cell of a fixed grid gets one space.

Below FIXED_FROM points the seed draws every preorder afresh.  From
FIXED_FROM points on, where nearly all of the run's time goes, the
preorders come from one fixed stream and the seed only relabels their
points: the masks, files and mask order change with the seed, the
isomorphism classes and so the amount of work do not.  Fresh classes
at those sizes would move run_s by about 15% from seed to seed.

The generator also runs the benchmark's literal oracle for the
semi-open family (A inside Cl(Int(A)), interior and closure taken from
the opens family) and records, per space, (n, |opens|, |SC|,
2^n*|SC|) and the evaluation route that probe count selects.

    python3 perfbench/gen.py --seed 7 --out perfbench/.work/mid-7
"""

import argparse
import json
import random
from pathlib import Path

from oracle import semi_open_bits

POINTS = range(6, 12)
FIXED_FROM = 10
FIXED_SEED = 0
DENSITIES = (0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0)

# (subset, family-member) probe count above which the package switches
# family-wide scans to its reach index (`semi._BULK_LIMIT` when this
# benchmark was defined); recorded so that both sides stay visible
ROUTE_LIMIT = 1 << 21


def random_preorder(rng: random.Random, n: int, p: float) -> list:
    """Minimal-neighbourhood table of a random preorder on n points."""
    order = list(range(n))
    rng.shuffle(order)
    below = [1 << x for x in range(n)]
    for j, x in enumerate(order):
        for y in order[:j]:
            if rng.random() < p:
                below[x] |= 1 << y
        if j and rng.random() < p / 4:
            y = order[j - 1]
            below[x] |= 1 << y
            below[y] |= 1 << x
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = below[x]
            for y in range(n):
                if acc >> y & 1:
                    acc |= below[y]
            if acc != below[x]:
                below[x] = acc
                changed = True
    return below


def relabel(table: list, perm: list) -> list:
    """The same preorder with point x renamed perm[x]."""
    out = [0] * len(table)
    for x, row in enumerate(table):
        out[perm[x]] = sum(1 << perm[y] for y in range(len(table))
                           if row >> y & 1)
    return out


def saturated_sets(table: list) -> list:
    """Opens of the Alexandrov topology with minimal neighbourhoods `table`."""
    n = len(table)
    return [m for m in range(1 << n)
            if all(table[x] & ~m == 0 for x in range(n) if m >> x & 1)]


def topology_text(n: int, opens: list) -> str:
    names = [f"p{i}" for i in range(n)]
    lines = ["points: " + " ".join(names)]
    for o in opens:
        labels = [names[i] for i in range(n) if o >> i & 1]
        lines.append("open:" + "".join(" " + lab for lab in labels))
    return "\n".join(lines) + "\n"


def generate(seed: int, out: Path) -> dict:
    """Write the spaces for `seed` under `out`; return the manifest."""
    rng = random.Random(seed)
    fixed = random.Random(FIXED_SEED)
    out.mkdir(parents=True, exist_ok=True)
    spaces = []
    for n in POINTS:
        for p in DENSITIES:
            if n < FIXED_FROM:
                table = random_preorder(rng, n, p)
            else:
                table = relabel(random_preorder(fixed, n, p),
                                rng.sample(range(n), n))
            opens = saturated_sets(table)
            so = semi_open_bits(n, opens)
            sc = bin(so).count("1")
            probes = (1 << n) * sc
            path = out / f"mid_{len(spaces):03d}.txt"
            path.write_text(topology_text(n, opens), encoding="utf-8")
            spaces.append({
                "file": path.name, "n": n, "density": p,
                "opens": len(opens), "sc": sc, "probes": probes,
                "route": "reach-index" if probes > ROUTE_LIMIT else "plain",
                "semi_open": format(so, "x"),
            })
    manifest = {"seed": seed, "route_limit": ROUTE_LIMIT, "spaces": spaces,
                "summary": summarize(spaces)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1),
                                       encoding="utf-8")
    return manifest


def summarize(spaces: list) -> dict:
    def span(key):
        vals = [s[key] for s in spaces]
        return [min(vals), max(vals)]

    bulk = sum(s["route"] == "reach-index" for s in spaces)
    return {
        "spaces": len(spaces),
        "n": span("n"), "opens": span("opens"), "sc": span("sc"),
        "probes": span("probes"),
        "probes_total": sum(s["probes"] for s in spaces),
        "masks_total": sum(1 << s["n"] for s in spaces),
        "above_route_limit": bulk,
        "below_route_limit": len(spaces) - bulk,
        "share_above_route_limit": bulk / len(spaces),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    manifest = generate(args.seed, args.out)
    for s in manifest["spaces"]:
        print(f"{s['file']}  n={s['n']:<3d}opens={s['opens']:<6d}"
              f"sc={s['sc']:<6d}probes={s['probes']:<9d}{s['route']}")
    print(json.dumps(manifest["summary"]))


if __name__ == "__main__":
    main()
