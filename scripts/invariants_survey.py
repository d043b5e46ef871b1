#!/usr/bin/env python3
"""Survey of the algebraic invariants across random synthesized seeds.

For a handful of prescribed K-group targets, synthesizes a seed bundle,
reruns the hypothesis gate, and prints the recomputed invariants side by
side with the targets, each column as wide as its widest entry.  Exits 1
when a row is not ok: a seed fails the standing hypotheses or a
recomputed group differs from its target.
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from shiftquot.algebra import FgAbelianGroup, ruelle_k_theory, synthesize_seed


def random_chain(rng, cap=12):
    chain = []
    d = rng.randint(2, cap)
    for _ in range(rng.randint(0, 3)):
        if d > cap:
            break
        chain.append(d)
        d *= rng.randint(1, 3)
    return tuple(chain)


def main() -> int:
    rng = random.Random(2026)
    rows = [("K1 target", "K0 torsion", "sizes", "recomputed K0", "recomputed K1", "check")]
    for _ in range(10):
        k1 = FgAbelianGroup(rng.randint(0, 2), random_chain(rng))
        k0 = FgAbelianGroup(0, random_chain(rng))
        p = synthesize_seed(k0, k1)
        sizes = f"{len(p.g.edges)}/{len(p.h.edges)}"
        if not p.hypotheses.standing():
            rows.append((k1.render(), k0.render(), sizes, "-", "-", "NOT STANDING"))
            continue
        kt = ruelle_k_theory(p)
        ok = kt.k1_ruelle_s == k1 and kt.k0_ruelle_s == FgAbelianGroup(k1.rank, k0.torsion)
        rows.append((
            k1.render(), k0.render(), sizes, kt.k0_ruelle_s.render(), kt.k1_ruelle_s.render(),
            "ok" if ok else "MISMATCH",
        ))
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0 if all(row[-1] == "ok" for row in rows[1:]) else 1


if __name__ == "__main__":
    sys.exit(main())
