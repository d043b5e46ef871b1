"""The three workloads as job lists, and the oracles that check job outputs.

A job is a JSON-serialisable dict.  `kind` is "cli" (an argv for
`shiftquot.cli.main`, the exit code it must return and an oracle on its
standard output) or one of the library kinds "tower" and "injectivity".
This module does not import `shiftquot`; every expectation comes from
`gen`'s own arithmetic.
"""

from __future__ import annotations

import os
import random
import re
from fractions import Fraction

import gen

# A job list is a sequence of blocks, each generated from the continuing
# seeded random stream and shuffled on its own.  A run cycles through the
# list until its time is up; the first block is the fixed job sequence
# behind the memory reading, the output digest and the traced run.
BLOCKS = {"invariants": 10, "queries": 6, "enumerate": 6}


def _write(work: str, name: str, text: str) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli(argv, oracle, exit_code=0) -> dict:
    return {"kind": "cli", "argv": list(argv), "exit": exit_code, "oracle": oracle}


def _chain(rng: random.Random, cap: int = 12) -> list[int]:
    """A random divisibility chain of invariant factors (possibly empty)."""
    chain, d = [], rng.randint(2, cap)
    for _ in range(rng.randint(0, 3)):
        chain.append(d)
        d *= rng.randint(1, 3)
    return chain


def _group_literal(rank: int, chain: list[int]) -> str:
    terms = ["Z"] * rank + [f"Z/{t}" for t in chain]
    return "+".join(terms) if terms else "0"


def _seed_file(work: str, seed: gen.Seed) -> str:
    return _write(work, seed.name + ".bundle", seed.text())


def _fixed_seeds() -> list[gen.Seed]:
    return [gen.Seed.parse("full3", gen.FULL3), gen.Seed.parse("twovertex", gen.TWOVERTEX)]


def _small_seeds(
    rng: random.Random, block: int, count: int, max_vertices: int, max_edges: int,
    max_words7: int | None = None, cover: bool = False,
) -> list[gen.Seed]:
    """Generated seeds of 2 to max_vertices vertices with at most max_edges
    G-edges and at most max_words7 paths of length 7."""
    out = []
    while len(out) < count:
        seed = gen.generated_seed(
            rng, f"small{block}_{len(out)}", rng.randint(2, max_vertices), 2, 0.3,
            h_extra=rng.randint(0, 1), cover=cover,
        )
        if len(seed.g_edges) <= max_edges and (max_words7 is None or gen.paths_count(seed, 7) <= max_words7):
            out.append(seed)
    return out


def invariants_block(rng: random.Random, work: str, block: int, tiny: bool) -> tuple[list[dict], list]:
    """`invariants` and `check` on generated primitive seeds (4 to 24
    vertices at multiplicities up to 2, 5 and 9, sparse up to 32), `synthesize`
    on random K-group targets, and non-standing seeds that must exit 1."""
    if tiny:
        classes, nonstanding, synth = [(4, 2, 0.3)], 1, 1
    else:
        classes = [(n, cap, dens) for n in range(4, 25, 2) for cap, dens in ((2, 0.3), (5, 0.5), (9, 0.6))]
        classes += [(n, 2, 0.3) for n in (26, 28, 30, 32)]
        nonstanding, synth = 2, 8
    jobs = []
    for n, cap, dens in classes:
        seed = gen.generated_seed(
            rng, f"inv{block}_{n}_{cap}", n, cap, dens, h_vertices=rng.randint(1, 3), h_extra=rng.randint(0, 3)
        )
        path = _seed_file(work, seed)
        jobs.append(_cli(["invariants", path], {"type": "invariants", **gen.k_expectation(seed)}))
        jobs.append(_cli(["check", path], {"type": "check", "standing": True}))
    for k in range(nonstanding):
        seed = gen.generated_seed(rng, f"nonstanding{block}_{k}", rng.randint(3, 10), 5, 0.5, standing=False)
        path = _seed_file(work, seed)
        jobs.append(_cli(["check", path], {"type": "check", "standing": False}, 1))
        jobs.append(_cli(["invariants", path], {"type": "warning"}, 1))
    for k in range(synth):
        k1_rank, k1_chain, k0_chain = rng.randint(0, 2), _chain(rng), _chain(rng)
        out = os.path.join(work, f"synth{block}_{k}.bundle")
        argv = ["synthesize", "--k1", _group_literal(k1_rank, k1_chain),
                "--k0tor", _group_literal(0, k0_chain), "-o", out]
        jobs.append(_cli(argv, {
            "type": "synthesize",
            "k0": gen.render_group(k1_rank, k0_chain),
            "k1": gen.render_group(k1_rank, k1_chain),
        }))
    return jobs, []


def queries_block(rng: random.Random, work: str, block: int, tiny: bool) -> tuple[list[dict], list]:
    """About-a-millisecond CLI point queries on full3, twovertex and two
    small generated seeds, plus library tower jobs on the same seeds.

    The generated seeds embed H along a Hamiltonian cycle of G.  Where a
    vertex reaches an all-image tail only through spare edges, the stratum
    approximant behind `distance` and `zeta` on rays with infinitely many
    spare edges can be unreachable, and the query exits 1.
    """
    seeds = _fixed_seeds() + _small_seeds(rng, block, 2, 3, 14, cover=True)
    paths = {s.name: _seed_file(work, s) for s in seeds}
    # job kind by a uniform draw: carry pairs, distance, zeta, fibers, tower
    tiny_draws = (0.05, 0.3, 0.5, 0.7, 0.9)  # one job of each kind
    jobs = []
    for i in range(len(tiny_draws) if tiny else 1200):
        seed = seeds[0] if tiny else rng.choice(seeds)
        path = paths[seed.name]
        r = tiny_draws[i] if tiny else rng.random()
        if r < 0.45:
            depth, pre = rng.randint(8, 64), rng.randint(0, 40)
            if r < 0.08:
                x, y = gen.carry_pair(seed, rng, pre)
                oracle = {"type": "distance", "depth": depth, "zero": True}
            else:
                fx, fy = rng.random() < 0.5, rng.random() < 0.5
                x = gen.random_ray(seed, rng, pre, fx)
                y = gen.random_ray(seed, rng, rng.randint(0, 40), fy)
                oracle = {"type": "distance", "depth": depth, "exact": fx and fy}
            jobs.append(_cli(["distance", path, x, y, "--depth", str(depth)], oracle))
        elif r < 0.6:
            depth = rng.randint(8, 48)
            x = gen.random_ray(seed, rng, rng.randint(0, 40), rng.random() < 0.5)
            jobs.append(_cli(["zeta", path, x, "--depth", str(depth)], {"type": "zeta", "depth": depth}))
        elif r < 0.8:
            kind = rng.choice(["circles", "points", "disconnected"])
            # circles are counted by enumerating 2^(doubled positions) lifts
            ray, expect = gen.quotient_ray(seed, rng, rng.randint(0, 10), kind)
            jobs.append(_cli(["fibers", path, ray], {"type": "fibers", "expect": expect}))
        else:
            related = rng.random() < 0.5
            x, y = gen.bilasso_pair(seed, rng, related)
            jobs.append({"kind": "tower", "seed": path, "x": x, "y": y,
                         "depth": rng.randint(8, 24), "related": related})
    return jobs, [paths[s.name] for s in seeds]


def enumerate_block(rng: random.Random, work: str, block: int, tiny: bool) -> tuple[list[dict], list]:
    """Bulk enumeration: `render` (full3 at max-k 3, depth 6 to 9, and at
    max-k 2, depth 10; twovertex at depth 4 to 6; small generated seeds),
    `complex` and the library injectivity check at depth 4 to 6.

    Job latencies here span three orders of magnitude, so a latency
    quantile is steady only where it falls among jobs of one cost.  Each
    block of 27 jobs therefore repeats two fixed jobs: full3 at depth 7
    (four times) fills the middle of the block, where the median falls,
    and twovertex at depth 6 (three times) fills the ranks between 4 % and
    15 % from the top, around p90, under the one slower job (`complex` on
    twovertex).  Full3 at depth 10 is drawn at max-k 2, which keeps it
    below that band.  The generated seeds are small (2 to 4 vertices, at
    most 8,000 paths of length 7, the words `complex` enumerates), so their
    jobs stay below the median.
    """
    fixed = _fixed_seeds()
    small = _small_seeds(rng, block, 1 if tiny else 3, 4, 10, max_words7=8000)
    paths = {s.name: _seed_file(work, s) for s in fixed + small}
    jobs = []

    def render(seed, max_k, depth):
        out = os.path.join(work, f"{seed.name}_{max_k}_{depth}.svg")
        if seed.name == "full3":
            count = gen.full3_circle_count(max_k, depth)
        else:
            count = gen.circle_count(seed, max_k, depth)
        argv = ["render", paths[seed.name], "--max-k", str(max_k), "--depth", str(depth), "-o", out]
        jobs.append(_cli(argv, {"type": "render", "circles": count}))

    def complex_(seed):
        jobs.append(_cli(["complex", paths[seed.name]], {"type": "complex", "v0": gen.paths_count(seed, 6)}))

    def injectivity(seed, depth):
        jobs.append({"kind": "injectivity", "seed": paths[seed.name], "depth": depth})

    full3, twovertex = fixed
    if tiny:
        render(full3, 2, 3)
        complex_(full3)
        injectivity(full3, 2)
        return jobs, [paths["full3"]]
    for depth in (6, 7, 7, 7, 7, 8, 9):
        render(full3, 3, depth)
    render(full3, 2, 10)
    for depth in (4, 5, 6, 6, 6):
        render(twovertex, 2, depth)
    complex_(full3)
    complex_(twovertex)
    for depth in range(4, 7):
        injectivity(full3, depth)
    injectivity(twovertex, 4)
    injectivity(twovertex, 5)
    complex_(small[0])
    for seed in small:
        render(seed, 2, rng.randint(4, 5))
        injectivity(seed, 4)
    return jobs, list(paths.values())


BLOCK = {"invariants": invariants_block, "queries": queries_block, "enumerate": enumerate_block}
WORKLOADS = tuple(BLOCK)


def build(workload: str, seed: int, work: str, tiny: bool = False) -> dict:
    """Write the workload's bundles into `work` and return its job list.

    tiny: one block of about one small job per kind, for the smoke test.
    """
    if workload not in BLOCK:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []
    library: list[str] = []
    pass_jobs = 0
    for block in range(1 if tiny else BLOCKS[workload]):
        block_jobs, block_library = BLOCK[workload](rng, work, block, tiny)
        rng.shuffle(block_jobs)
        jobs += block_jobs
        library += [p for p in block_library if p not in library]
        pass_jobs = pass_jobs or len(block_jobs)
    return {"workload": workload, "seed": seed, "jobs": jobs, "pass_jobs": pass_jobs, "library": library}


# -- oracles ------------------------------------------------------------------------

_GROUP = re.compile(r"^K([01])\(Rs\) = (.*)$", re.M)


def _parse_group(text: str) -> tuple[int, list[int]]:
    rank, torsion = 0, []
    for term in text.split(" (+) "):
        if term == "Z":
            rank += 1
        elif term.startswith("Z^"):
            rank += int(term[2:])
        elif term.startswith("Z/"):
            torsion.append(int(term[2:]))
    return rank, torsion


def _group_ok(text: str, rank: int, order: int) -> bool:
    got_rank, torsion = _parse_group(text)
    chain_ok = all(b % a == 0 for a, b in zip(torsion, torsion[1:])) and all(t >= 2 for t in torsion)
    product = 1
    for t in torsion:
        product *= t
    # with a singular I - A the torsion order is not the determinant
    return chain_ok and got_rank == rank and (order == 0 or product == order)


def _line(out: str, key: str) -> str | None:
    m = re.search(rf"^{re.escape(key)} = (.*)$", out, re.M)
    return m.group(1) if m else None


def check_cli(oracle: dict, out: str) -> bool:
    """True when a CLI job's standard output satisfies its oracle."""
    kind = oracle["type"]
    if kind == "check":
        return _line(out, "standing") == str(oracle["standing"])
    if kind == "warning":
        return "warning = h2 fails" in out
    if kind == "invariants":
        groups = dict(_GROUP.findall(out))
        return (
            _group_ok(groups.get("0", ""), oracle["k0_rank"], oracle["k0_order"])
            and _group_ok(groups.get("1", ""), oracle["k1_rank"], oracle["k1_order"])
        )
    if kind == "synthesize":
        return (
            _line(out, "K0(Rs)") == oracle["k0"]
            and _line(out, "K1(Rs)") == oracle["k1"]
            and _line(out, "roundtrip") == "ok"
        )
    if kind == "distance":
        text = out.strip()
        if oracle.get("zero"):
            return text == "0"
        if not text.startswith("["):
            lo = hi = Fraction(text)
            if oracle.get("exact") is False:
                return False
        else:
            if oracle.get("exact"):
                return False
            lo, hi = (Fraction(s) for s in text[1:text.index("]")].split(", "))
        # the quotient space has diameter at most 3
        return 0 <= lo <= hi <= 3 and hi - lo <= Fraction(6, 2 ** oracle["depth"])
    if kind == "zeta":
        m = re.search(r"^error <= (\S+) ~=", out, re.M)
        if m is None:
            return False
        bound = Fraction(m.group(1))
        depth = oracle["depth"]
        # the exact term sum has at most depth + 1 terms, each rounded in float
        slack = Fraction((depth + 1) * 8 + 16, 2**48)
        return bound <= Fraction(24, 2**depth) + slack
    if kind == "fibers":
        return out.strip() == oracle["expect"]
    if kind == "render":
        return _line(out, "circles") == str(oracle["circles"]) and _line(out, "pruned_radius_sum") == "0"
    if kind == "complex":
        return (
            _line(out, "|V0|") == str(oracle["v0"])
            and _line(out, "containments") == "ok"
            and _line(out, "boundary_zero") == "ok"
        )
    raise ValueError(f"unknown oracle {kind!r}")


def check_file(oracle: dict, text: str) -> bool:
    """True when the file a job wrote (`-o`) fits its oracle."""
    if oracle["type"] == "render":
        return text.startswith("<?xml") and text.count("<circle ") == oracle["circles"]
    if oracle["type"] == "synthesize":
        return text.startswith("# synthesized") and "graph G" in text and "graph H" in text
    raise ValueError(f"no file oracle for {oracle['type']!r}")
