"""Input generation for the benchmark: seed bundles, ray literals and job lists.

Everything here is derived from one workload seed with `random.Random`, so
the same seed gives byte-identical inputs.  The module does not import
`shiftquot`: the expectations attached to each job come from the
benchmark's own arithmetic (ranks, determinants, path counts, closed
forms), never from the code under test.
"""

from __future__ import annotations

import random
from collections import deque
from math import comb

# The two fixed seeds of the paper, kept here so that the benchmark does not
# depend on files outside its own directory.
FULL3 = """\
graph G
vertex v
edge a v v
edge b v v
edge c v v
graph H
vertex w
edge h w w
map vertex w v
map xi0 h a
map xi1 h b
"""

TWOVERTEX = """\
graph G
vertex u
vertex z
edge p0 u u
edge p1 u u
edge p2 u u
edge q0 u z
edge q1 u z
edge q2 u z
edge r0 z u
edge r1 z u
edge r2 z u
edge s0 z z
graph H
vertex a
vertex b
edge loop a a
edge fwd a b
edge back b a
map vertex a u
map vertex b z
map xi0 loop p0
map xi1 loop p1
map xi0 fwd q0
map xi1 fwd q1
map xi0 back r0
map xi1 back r1
"""


# -- seeds ----------------------------------------------------------------------


class Seed:
    """A seed bundle held as plain data, with the derived facts oracles need."""

    def __init__(self, name, g_vertices, g_edges, h_vertices, h_edges, vmap, xi0, xi1):
        self.name = name
        self.g_vertices = list(g_vertices)
        self.g_edges = list(g_edges)  # (id, src, dst)
        self.h_vertices = list(h_vertices)
        self.h_edges = list(h_edges)
        self.vmap, self.xi0, self.xi1 = dict(vmap), dict(xi0), dict(xi1)
        self.src = {e: s for e, s, _ in self.g_edges}
        self.dst = {e: t for e, _, t in self.g_edges}
        self.out = {v: [] for v in self.g_vertices}
        for e, s, _ in self.g_edges:
            self.out[s].append(e)
        self.image = set(self.xi0.values()) | set(self.xi1.values())
        self.h_of = {self.xi0[y]: y for y in self.xi0} | {self.xi1[y]: y for y in self.xi1}

    @staticmethod
    def parse(name: str, text: str) -> "Seed":
        gv, ge, hv, he, vmap, xi0, xi1 = [], [], [], [], {}, {}, {}
        cur = None
        for line in text.splitlines():
            t = line.split("#", 1)[0].split()
            if not t:
                continue
            if t[0] == "graph":
                cur = t[1]
            elif t[0] == "vertex":
                (gv if cur == "G" else hv).append(t[1])
            elif t[0] == "edge":
                (ge if cur == "G" else he).append(tuple(t[1:]))
            elif t[1] == "vertex":
                vmap[t[2]] = t[3]
            else:
                (xi0 if t[1] == "xi0" else xi1)[t[2]] = t[3]
        return Seed(name, gv, ge, hv, he, vmap, xi0, xi1)

    def text(self) -> str:
        lines = [f"# {self.name}", "graph G"]
        lines += [f"vertex {v}" for v in self.g_vertices]
        lines += [f"edge {e} {s} {t}" for e, s, t in self.g_edges]
        lines += ["graph H"] + [f"vertex {w}" for w in self.h_vertices]
        lines += [f"edge {y} {s} {t}" for y, s, t in self.h_edges]
        lines += [f"map vertex {w} {self.vmap[w]}" for w in self.h_vertices]
        lines += [f"map xi0 {y} {self.xi0[y]}" for y, _, _ in self.h_edges]
        lines += [f"map xi1 {y} {self.xi1[y]}" for y, _, _ in self.h_edges]
        return "\n".join(lines) + "\n"

    def matrix(self, which: str) -> list[list[int]]:
        """Edge counts with rows indexed by source and columns by target."""
        verts = self.g_vertices if which == "G" else self.h_vertices
        edges = self.g_edges if which == "G" else self.h_edges
        idx = {v: i for i, v in enumerate(verts)}
        m = [[0] * len(verts) for _ in verts]
        for _, s, t in edges:
            m[idx[s]][idx[t]] += 1
        return m

    def h_cycle(self) -> list[str]:
        """An H-edge cycle: the first H-loop, else a cycle through the first
        H-edge's target found by breadth-first search."""
        for y, s, t in self.h_edges:
            if s == t:
                return [y]
        out = {w: [] for w in self.h_vertices}
        for y, s, t in self.h_edges:
            out[s].append((y, t))
        for y0, s0, t0 in self.h_edges:
            prev = {t0: None}
            q = deque([t0])
            while q:
                u = q.popleft()
                if u == s0:
                    path, node = [], u
                    while prev[node] is not None:
                        y, node = prev[node]
                        path.append(y)
                    return [y0] + path[::-1]
                for y, w in out[u]:
                    if w not in prev:
                        prev[w] = (y, u)
                        q.append(w)
        raise ValueError("H has no cycle")

    def path_to(self, start: str, goal: str) -> list[str]:
        """Shortest G-path by breadth-first search (empty when start == goal)."""
        prev = {start: None}
        q = deque([start])
        while q:
            u = q.popleft()
            if u == goal:
                break
            for e in self.out[u]:
                w = self.dst[e]
                if w not in prev:
                    prev[w] = (e, u)
                    q.append(w)
        path, node = [], goal
        while prev[node] is not None:
            e, node = prev[node]
            path.append(e)
        return path[::-1]

    def walk(self, rng: random.Random, start: str, length: int) -> list[str]:
        path, at = [], start
        for _ in range(length):
            e = rng.choice(self.out[at])
            path.append(e)
            at = self.dst[e]
        return path

    def end(self, start: str, path: list[str]) -> str:
        return self.dst[path[-1]] if path else start

    def spare_parallel(self, e: str) -> str | None:
        return next(
            (x for x in self.out[self.src[e]]
             if x not in self.image and self.dst[x] == self.dst[e]),
            None,
        )

    def tail_vertices(self) -> set[str]:
        """G-vertices carrying an all-image tail: images of H-vertices that
        reach an H-cycle."""
        out = {w: [t for _, s, t in self.h_edges if s == w] for w in self.h_vertices}
        alive = set(self.h_vertices)
        changed = True
        while changed:
            changed = False
            for w in list(alive):
                if not any(t in alive for t in out[w]):
                    alive.discard(w)
                    changed = True
        return {self.vmap[w] for w in alive}


def generated_seed(
    rng: random.Random, name: str, n: int, mult_cap: int, density: float,
    h_vertices: int = 2, h_extra: int = 1, standing: bool = True, cover: bool = False,
) -> Seed:
    """A primitive multi-vertex seed.

    G has a Hamiltonian cycle plus a loop at v0 (so it is primitive) and
    random extra multiplicities up to mult_cap.  H has a loop at w0 and
    h_extra further random edges; each H-edge lands on a doubled G-edge
    pair with a spare parallel edge, except that a non-standing seed drops
    the spare behind the H-loop (hypothesis H2 fails, like full2).  With
    cover, H also runs along the whole Hamiltonian cycle, so every G-vertex
    carries an all-image tail.
    """
    hv = n if cover else min(h_vertices, n)
    counts = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                counts[i][j] = rng.randint(1, mult_cap)
        counts[i][(i + 1) % n] = max(counts[i][(i + 1) % n], 1)
    h_pairs = [(0, 0)] + [(rng.randrange(hv), rng.randrange(hv)) for _ in range(h_extra)]
    if cover:
        h_pairs += [(i, (i + 1) % n) for i in range(n)]
    h_mult = [[0] * hv for _ in range(hv)]
    for a, b in h_pairs:
        h_mult[a][b] += 1
    for a in range(hv):
        for b in range(hv):
            if h_mult[a][b]:
                counts[a][b] = max(counts[a][b], 2 * h_mult[a][b] + 1)
    if not standing:
        counts[0][0] = 2 * h_mult[0][0]
    gv = [f"v{i}" for i in range(n)]
    ge = [(f"e{i}_{j}_{k}", gv[i], gv[j]) for i in range(n) for j in range(n) for k in range(counts[i][j])]
    hvs = [f"w{i}" for i in range(hv)]
    he, xi0, xi1 = [], {}, {}
    for a in range(hv):
        for b in range(hv):
            for k in range(h_mult[a][b]):
                y = f"y{a}_{b}_{k}"
                he.append((y, hvs[a], hvs[b]))
                xi0[y] = f"e{a}_{b}_{2 * k}"
                xi1[y] = f"e{a}_{b}_{2 * k + 1}"
    return Seed(name, gv, ge, hvs, he, {w: gv[i] for i, w in enumerate(hvs)}, xi0, xi1)


# -- exact integer arithmetic for oracles ------------------------------------------


def rank_and_determinant(m: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant of a square integer matrix by fraction-free
    (Bareiss) elimination; the determinant is 0 when the rank is short."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev, rank = 1, 1, 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if a[r][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        p = a[rank][c]
        for r in range(rank + 1, n):
            row, f = a[r], a[r][c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - f * a[rank][j]) // prev
            row[c] = 0
        prev = p
        rank += 1
    return rank, (sign * prev if rank == n else 0)


def i_minus(m: list[list[int]]) -> list[list[int]]:
    return [[(1 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(m)]


def render_group(rank: int, torsion: list[int]) -> str:
    parts = (["Z"] if rank == 1 else [f"Z^{rank}"] if rank > 1 else []) + [f"Z/{t}" for t in torsion]
    return " (+) ".join(parts) if parts else "0"


def k_expectation(seed: Seed) -> dict:
    """Free ranks and torsion orders of K0(Rs) and K1(Rs) from the adjacency
    matrices: the torsion of coker(I - A^T) has order |det(I - A^T)| when
    that is nonzero, and the free rank adds the two nullities."""
    rg, dg = rank_and_determinant(i_minus(seed.matrix("G")))
    rh, dh = rank_and_determinant(i_minus(seed.matrix("H")))
    free = (len(seed.g_vertices) - rg) + (len(seed.h_vertices) - rh)
    return {"k0_rank": free, "k0_order": abs(dg), "k1_rank": free, "k1_order": abs(dh)}


def circle_count(seed: Seed, max_k: int, depth: int) -> int:
    """Circles `render` draws with min radius 0: the unit circle plus one per
    path of length <= depth that ends in its j-th spare edge (j <= max_k) at
    a vertex carrying an all-image tail."""
    tails = seed.tail_vertices()
    # live[(v, j)]: paths ending at v with j spare edges, all still extendable
    live = {(v, 0): 1 for v in seed.g_vertices}
    total = 1
    for _ in range(depth):
        nxt: dict[tuple[str, int], int] = {}
        for (v, j), c in live.items():
            for e in seed.out[v]:
                w = seed.dst[e]
                if e in seed.image:
                    nxt[(w, j)] = nxt.get((w, j), 0) + c
                    continue
                if w in tails:
                    total += c
                if j + 1 < max_k:
                    nxt[(w, j + 1)] = nxt.get((w, j + 1), 0) + c
        live = nxt
    return total


def full3_circle_count(max_k: int, depth: int) -> int:
    """Closed form on full3: 1 + sum_{L<=depth} sum_{j<=max_k} C(L-1, j-1) 2^(L-j)."""
    return 1 + sum(
        comb(L - 1, j - 1) * 2 ** (L - j)
        for L in range(1, depth + 1) for j in range(1, min(max_k, L) + 1)
    )


def paths_count(seed: Seed, length: int) -> int:
    """Entry sum of A_G^length."""
    ways = {v: 1 for v in seed.g_vertices}
    for _ in range(length):
        nxt = {v: 0 for v in seed.g_vertices}
        for v, c in ways.items():
            for e in seed.out[v]:
                nxt[seed.dst[e]] += c
        ways = nxt
    return sum(ways.values())


# -- rays ------------------------------------------------------------------------


def fmt_ray(prefix: list[str], cycle: list[str]) -> str:
    return ",".join(prefix) + ";" + ",".join(cycle)


def image_cycle(seed: Seed, superscripts: list[int]) -> tuple[str, list[str]]:
    """The start vertex and G-image of the H-cycle, edge k taken from
    xi^superscripts[k]."""
    cyc = seed.h_cycle()
    edges = [(seed.xi0, seed.xi1)[s][y] for y, s in zip(cyc, superscripts)]
    return seed.src[edges[0]], edges


def lead_in(seed: Seed, rng: random.Random, length: int, goal: str) -> list[str]:
    """A random walk of the given length from a random vertex, then the
    shortest path on to goal."""
    start = rng.choice(seed.g_vertices)
    w = seed.walk(rng, start, length)
    return w + seed.path_to(seed.end(start, w), goal)


def random_ray(seed: Seed, rng: random.Random, prefix_len: int, finite: bool) -> str:
    """A lasso whose cycle stays in the image (finite spare count) or
    contains a spare edge (infinite spare count)."""
    start, icyc = image_cycle(seed, [rng.randrange(2) for _ in seed.h_cycle()])
    pre = lead_in(seed, rng, prefix_len, start)
    if finite:
        return fmt_ray(pre, icyc)
    k = rng.randrange(len(icyc))
    spare_cyc = icyc[:]
    spare_cyc[k] = seed.spare_parallel(icyc[k])
    return fmt_ray(pre, spare_cyc)


def carry_pair(seed: Seed, rng: random.Random, prefix_len: int) -> tuple[str, str]:
    """Binary-carry partners: prefix, pivot xi^0(y1), tail of superscript 1
    versus prefix, pivot xi^1(y1), tail of superscript 0 (0.0111... = 0.1000...)."""
    cyc = seed.h_cycle()
    pre = lead_in(seed, rng, prefix_len, seed.src[seed.xi0[cyc[0]]])
    rot = cyc[1:] + cyc[:1]
    x = fmt_ray(pre + [seed.xi0[cyc[0]]], [seed.xi1[y] for y in rot])
    y = fmt_ray(pre + [seed.xi1[cyc[0]]], [seed.xi0[y] for y in rot])
    return x, y


def quotient_ray(seed: Seed, rng: random.Random, prefix_len: int, kind: str) -> tuple[str, str]:
    """A quotient-graph ray and its fiber class, derived from the gluing:
    doubled quotient edges lift to two G-edges with equal endpoints, spare
    ones to one, so circles number 2^(doubled positions before the last
    spare position) and points 2^(doubled prefix positions)."""
    start, icyc = image_cycle(seed, [0] * len(seed.h_cycle()))
    pre = lead_in(seed, rng, prefix_len, start)
    if kind == "circles":
        cyc = icyc
    elif kind == "points":
        cyc = [seed.spare_parallel(e) for e in icyc]
    else:
        cyc = icyc + [seed.spare_parallel(icyc[0])] + icyc[1:]
    q = lambda e: (seed.h_of[e] if e in seed.image else e) + "'"  # noqa: E731
    doubled = [e in seed.image for e in pre]
    if kind == "circles":
        last = max((i for i, d in enumerate(doubled) if not d), default=-1)
        expect = f"Circles({2 ** sum(doubled[:last + 1])})"
    elif kind == "points":
        expect = f"Points({2 ** sum(doubled)})"
    else:
        expect = "TotallyDisconnected"
    return fmt_ray([q(e) for e in pre], [q(e) for e in cyc]), expect


def closed_walk(seed: Seed, rng: random.Random, at: str, length: int) -> list[str]:
    w = seed.walk(rng, at, length)
    return w + seed.path_to(seed.end(at, w), at)


def bilasso_pair(seed: Seed, rng: random.Random, related: bool) -> tuple[str, str]:
    """Two bi-lassos ('past;core;future') at the H-cycle's start vertex.

    related: carry partners (pivot xi^0 / xi^1, then swapped constant
    tails), which the two-sided relation identifies.  Otherwise one deep
    core edge of the image cycle is replaced by its spare parallel edge; a
    spare edge facing a different edge is never identified.
    """
    cyc = seed.h_cycle()
    start = seed.src[seed.xi0[cyc[0]]]
    past = closed_walk(seed, rng, start, rng.randint(1, 3))
    core = closed_walk(seed, rng, start, rng.randint(6, 14))
    rot = cyc[1:] + cyc[:1]
    if related:
        x_core = core + [seed.xi0[cyc[0]]]
        y_core = core + [seed.xi1[cyc[0]]]
        x_fut = [seed.xi1[y] for y in rot]
        y_fut = [seed.xi0[y] for y in rot]
    else:
        images = [seed.xi0[y] for y in cyc]
        x_core = core + images
        y_core = x_core[:]
        k = len(core) + rng.randrange(len(images))
        y_core[k] = seed.spare_parallel(x_core[k])
        x_fut = y_fut = images
    lit = lambda c, f: ";".join(",".join(s) for s in (past, c, f))  # noqa: E731
    return lit(x_core, x_fut), lit(y_core, y_fut)
