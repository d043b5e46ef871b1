#!/usr/bin/env python3
"""Render the nested-circle picture of the one-vertex/three-loop seed.

Runs `shiftquot render` on bundles/full3.bundle at depth 6, minimum radius
1/4096 and scale 420, writing figure_full3.svg next to this script.  Any
`render` option given here (`--max-k`, `--depth`, `--min-radius`, `--scale`,
`-o`) overrides these defaults.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from shiftquot import cli

if __name__ == "__main__":
    sys.exit(cli.main([
        "render", os.path.join(HERE, "..", "bundles", "full3.bundle"),
        "--depth", "6", "--min-radius", "1/4096", "--scale", "420",
        "-o", os.path.join(HERE, "figure_full3.svg"), *sys.argv[1:],
    ]))
