#!/usr/bin/env python3
"""Render the nested-circle picture of the one-vertex/three-loop seed.

Writes figure_full3.svg next to this script; tweak depth/strata to explore
finer generations of circles.
"""

import argparse
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from shiftquot.cli import _int_at_least, _min_radius, _scale, load_bundle
from shiftquot.geometry import circle_specs_report, render_svg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-k", type=_int_at_least(0), default=2, help="deepest stratum to draw")
    ap.add_argument("--depth", type=_int_at_least(1), default=6, help="last spare edge at most this deep")
    ap.add_argument("--min-radius", type=_min_radius, default=Fraction(1, 4096))
    ap.add_argument("--scale", type=_scale, default=420.0)
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    bundle = os.path.join(here, "..", "bundles", "full3.bundle")
    out = args.output or os.path.join(here, "figure_full3.svg")

    p = load_bundle(bundle).pair()
    try:
        specs, pruned = circle_specs_report(p, args.max_k, args.depth, args.min_radius)
        svg = render_svg(p, args.max_k, args.depth, args.min_radius, args.scale)
    except ValueError as exc:  # the circle budget, as `shiftquot render` reports it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"{len(specs)} circles (pruned radius mass {pruned}) -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
