#!/usr/bin/env python3
"""Survey of the algebraic invariants across random synthesized seeds.

For a handful of prescribed K-group targets, synthesizes a seed bundle,
reruns the hypothesis gate, and prints the recomputed invariants side by
side with the targets.
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


def main() -> None:
    rng = random.Random(2026)
    print(f"{'K1 target':24} {'K0 torsion':16} {'sizes':10} recomputed")
    for _ in range(10):
        k1 = FgAbelianGroup(rng.randint(0, 2), random_chain(rng))
        k0 = FgAbelianGroup(0, random_chain(rng))
        p = synthesize_seed(k0, k1)
        assert p.hypotheses.standing()
        kt = ruelle_k_theory(p)
        sizes = f"{len(p.g.edges)}/{len(p.h.edges)}"
        ok = kt.k1_ruelle_s == k1 and kt.k0_ruelle_s == FgAbelianGroup(k1.rank, k0.torsion)
        print(
            f"{k1.render():24} {k0.render():16} {sizes:10} "
            f"K0={kt.k0_ruelle_s.render()}  K1={kt.k1_ruelle_s.render()}  "
            f"{'ok' if ok else 'MISMATCH'}"
        )


if __name__ == "__main__":
    main()
