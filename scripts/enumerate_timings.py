#!/usr/bin/env python3
"""In-process timings of the `enumerate` job shapes, with the cyclic
garbage collector's share of each.

Renders (through the CLI, as the benchmark runs them, into a temporary
directory) and injectivity checks (on a pair loaded once) of the bundled
seeds run round-robin, `--repeat` times after one untimed warm-up pass.
Per job it prints the best and median wall time in ms and, per run, the
collections of generations 0, 1 and 2 and the ms they took, read through
gc.callbacks.  `--max-depth` keeps only the shallower jobs.

    python3 scripts/enumerate_timings.py --repeat 12
    python3 scripts/enumerate_timings.py --repeat 1 --max-depth 5
"""

import argparse
import contextlib
import gc
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from shiftquot.cli import load_bundle, main as cli_main
from shiftquot.geometry import embedding_injectivity_check

# (kind, bundle, max-k or None, depth)
JOBS = (
    *(("render", "full3", 3, depth) for depth in range(6, 10)),
    ("render", "full3", 2, 10),
    *(("render", "twovertex", 2, depth) for depth in range(4, 7)),
    ("render", "twovertex", 3, 8),
    *(("injectivity", "full3", None, depth) for depth in range(4, 7)),
    *(("injectivity", "twovertex", None, depth) for depth in range(4, 6)),
)


class GcClock:
    """Collections per generation and the seconds they took."""

    def __init__(self):
        self.counts = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.counts[info["generation"]] += 1

    def read(self) -> tuple[int, int, int, float]:
        return (*self.counts, self.seconds)


def runner(kind: str, bundle: str, max_k: int | None, depth: int, out_dir: str):
    path = os.path.join(ROOT, "bundles", f"{bundle}.bundle")
    if kind == "injectivity":
        pair = load_bundle(path).pair()
        return lambda: embedding_injectivity_check(pair, depth)
    argv = ["render", path, "--max-k", str(max_k), "--depth", str(depth), "-o", os.path.join(out_dir, "out.svg")]

    def render() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(argv) != 0:
                raise SystemExit(f"render failed: {' '.join(argv)}")

    return render


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=12, help="timed runs per job (default 12)")
    parser.add_argument("--max-depth", type=int, default=None, help="only jobs at most this deep")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    jobs = [job for job in JOBS if args.max_depth is None or job[3] <= args.max_depth]
    names = [f"{kind} {bundle} {depth if max_k is None else f'{max_k}/{depth}'}" for kind, bundle, max_k, depth in jobs]
    clock = GcClock()
    with tempfile.TemporaryDirectory() as out_dir:
        runs = [runner(*job, out_dir) for job in jobs]
        for run in runs:
            run()
        seconds: list[list[float]] = [[] for _ in jobs]
        collected = [[0, 0, 0, 0.0] for _ in jobs]
        gc.callbacks.append(clock)
        try:
            for _ in range(args.repeat):
                for i, run in enumerate(runs):
                    before = clock.read()
                    start = time.perf_counter()
                    run()
                    seconds[i].append(time.perf_counter() - start)
                    collected[i] = [a + now - then for a, now, then in zip(collected[i], clock.read(), before)]
        finally:
            gc.callbacks.remove(clock)
    rows = [("job", "best ms", "median ms", "gen0", "gen1", "gen2", "gc ms")]
    for name, times, (g0, g1, g2, gc_s) in zip(names, seconds, collected):
        per_run = [g0 / args.repeat, g1 / args.repeat, g2 / args.repeat]
        rows.append((
            name, f"{1000 * min(times):.2f}", f"{1000 * statistics.median(times):.2f}",
            *(f"{n:.1f}" for n in per_run), f"{1000 * gc_s / args.repeat:.2f}",
        ))
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join([row[0].ljust(widths[0])] + [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
