"""Fixtures and the inputs the test modules share: the bundled seeds,
drawn seeds, rays, bi-lasso pairs, graphs and matrices, and the forced
seeds on which a hypothesis fails."""

import math
import os
import random
import sys

import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from shiftquot.cli import load_bundle  # noqa: E402
from shiftquot.embedding import EmbeddingPair  # noqa: E402
from shiftquot.graphs import Graph, IntMatrix, paths_of_length  # noqa: E402
from shiftquot.rays import LassoRay, kappa, parse_ray  # noqa: E402
from shiftquot.smale import BiLasso  # noqa: E402

BUNDLES = os.path.join(os.path.dirname(__file__), "..", "bundles")

BUNDLE_NAMES = ("full2", "full3", "twovertex")

RAY_DEPTHS = (0, 1, 2, 16)


def bundle_path(name: str) -> str:
    return os.path.join(BUNDLES, name)


@pytest.fixture(scope="session")
def full3():
    return load_bundle(bundle_path("full3.bundle")).pair()


@pytest.fixture(scope="session")
def full2():
    return load_bundle(bundle_path("full2.bundle")).pair()


@pytest.fixture(scope="session")
def twovertex():
    return load_bundle(bundle_path("twovertex.bundle")).pair()


def outcome(fn, *args):
    """("ok", value), or the error type's name and message."""
    try:
        return "ok", fn(*args)
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


# -- seeds -------------------------------------------------------------------------


@st.composite
def seeds(draw):
    """Seeds on at most 3 G-vertices that satisfy H0 and H1: a cycle
    through the G-vertices, two images per H-edge, a spare parallel edge
    for only some H-edges (so H2 may fail), then a few random edges.  Edge
    ids are drawn out of order so that G's edge order is not alphabetical."""
    n = draw(st.integers(1, 3))
    gv = [f"v{i}" for i in range(n)]
    hv = [f"w{i}" for i in range(draw(st.integers(1, n)))]
    vmap = dict(zip(hv, gv))
    g_edges = [(f"c{i}", gv[i], gv[(i + 1) % n]) for i in range(n)] if n > 1 else []
    ends = st.tuples(st.sampled_from(hv), st.sampled_from(hv))
    h_ends = draw(st.lists(ends, min_size=1, max_size=3))
    h_edges = [(f"y{k}", s, t) for k, (s, t) in enumerate(h_ends)]
    xi0, xi1 = {}, {}
    for y, s, t in h_edges:
        xi0[y], xi1[y] = f"{y}a", f"{y}b"
        kinds = "abs" if draw(st.booleans()) else "ab"
        g_edges += [(f"{y}{c}", vmap[s], vmap[t]) for c in kinds]
    extra = draw(st.lists(st.tuples(st.sampled_from(gv), st.sampled_from(gv)), max_size=3))
    g_edges += [(f"x{k}", s, t) for k, (s, t) in enumerate(extra)]
    g_edges = draw(st.permutations(g_edges))
    return EmbeddingPair(Graph(gv, g_edges), Graph(hv, h_edges), vmap, xi0, dict(vmap), xi1)


def spare_return_pair():
    """A standing seed whose vertex v1 is left only by the spare edge c1:
    an approximant that has to pass v1 to reach an image tail may need
    more spare edges than its stratum allows."""
    g = Graph(
        ["v0", "v1"],
        [("c0", "v0", "v1"), ("c1", "v1", "v0"), ("y0a", "v0", "v0"), ("y0b", "v0", "v0"),
         ("y0s", "v0", "v0"), ("y1a", "v0", "v0"), ("y1b", "v0", "v0")],
    )
    h = Graph(["w0"], [("y0", "w0", "w0"), ("y1", "w0", "w0")])
    vmap = {"w0": "v0"}
    return EmbeddingPair(g, h, vmap, {"y0": "y0a", "y1": "y1a"}, dict(vmap), {"y0": "y0b", "y1": "y1b"})


def h0_failing_pair():
    """xi0 maps H's loop to the loop a at u, xi1 to the loop b at v: the
    partner of an image edge lies at the other vertex, so H0 fails."""
    g = Graph(
        ["u", "v"],
        [("a", "u", "u"), ("b", "v", "v"), ("c", "u", "v"), ("d", "v", "u"), ("s", "u", "u")],
    )
    h = Graph(["w"], [("y", "w", "w")])
    return EmbeddingPair(g, h, {"w": "u"}, {"y": "a"}, {"w": "v"}, {"y": "b"})


def h1_failing_pair():
    """One vertex with loops a, b, c; H's two loops embed as (h, k) -> (a, b)
    and -> (b, a), so the edge images meet and H1 fails; H0 holds."""
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
    h = Graph(["w"], [("h", "w", "w"), ("k", "w", "w")])
    vm = {"w": "v"}
    return EmbeddingPair(g, h, vm, {"h": "a", "k": "b"}, dict(vm), {"h": "b", "k": "a"})


H1_RAYS = [";a", ";c", "c;a", "c,c;b", "a;c", "c,a;c", "c;a,c", "b,c,c;a"]


def tailless_pair():
    """Two image loops at u and spare edges u -> w -> u: w has no all-image
    tail, so circles ending there are neither drawn nor pruned."""
    g = Graph(["u", "w"], [("p0", "u", "u"), ("p1", "u", "u"), ("c", "u", "w"), ("d", "w", "u")])
    h = Graph(["a"], [("la", "a", "a")])
    vm = {"a": "u"}
    return EmbeddingPair(g, h, vm, {"la": "p0"}, vm, {"la": "p1"})


# -- rays ----------------------------------------------------------------------------


def ray(p, text):
    return parse_ray(p.g, text)


def random_lasso(p, rng: random.Random, max_prefix=8, max_cycle=3, finite=True) -> LassoRay:
    """Random lasso over a one-vertex seed graph; finite=True keeps the
    cycle inside the embedded image."""
    g = p.g
    image = sorted(p.xi_image)
    spare = sorted(set(g.edges) - p.xi_image)
    pool = image + spare
    prefix = [rng.choice(pool) for _ in range(rng.randint(0, max_prefix))]
    cyc_pool = image if finite else pool
    cycle = [rng.choice(cyc_pool) for _ in range(rng.randint(1, max_cycle))]
    return LassoRay.make(g, prefix, cycle)


def random_walk_lasso(g: Graph, rng: random.Random, pre_len: int, cyc_tries: int = 50):
    """Random lasso in an arbitrary graph: walk a prefix, then close a cycle."""
    v = rng.choice(g.vertices)
    prefix = []
    at = v
    for _ in range(pre_len):
        e = rng.choice(g.out_edges(at))
        prefix.append(e)
        at = g.target(e)
    for _ in range(cyc_tries):
        cyc = []
        node = at
        for _ in range(rng.randint(1, 4)):
            e = rng.choice(g.out_edges(node))
            cyc.append(e)
            node = g.target(e)
            if node == at:
                break
        if node == at:
            return LassoRay.make(g, prefix, cyc)
    raise AssertionError("could not close a cycle")


def walk_lasso(g, rng):
    """A random walk of up to 8 edges, closed by a random cycle of length at
    most 3 from where it ends; None when no such cycle exists."""
    at = rng.choice(g.vertices)
    prefix = []
    for _ in range(rng.randint(0, 8)):
        e = rng.choice(g.out_edges(at))
        prefix.append(e)
        at = g.target(e)
    cycles = [w for L in (1, 2, 3) for w in paths_of_length(g, L, src=at, dst=at)]
    return LassoRay.make(g, prefix, rng.choice(cycles)) if cycles else None


def draw_rays(p, rng, count):
    """Lassos with finitely and infinitely many spare edges; on one-vertex
    seeds also pairs of finite rays that share every level but the tail."""
    g = p.g
    one_vertex = len(g.vertices) == 1
    out = []
    for _ in range(count):
        if one_vertex:
            out.append(random_lasso(p, rng, finite=rng.random() < 0.6))
        else:
            x = walk_lasso(g, rng)
            if x is not None:
                out.append(x)
    image = sorted(p.xi_image)
    if one_vertex and image:
        for x in list(out):
            if kappa(p, x) == math.inf:
                continue
            spare_at = [i for i, e in enumerate(x.prefix) if not p.in_image(e)]
            head = x.prefix[: spare_at[-1] + 1] if spare_at else ()
            tail = [rng.choice(image) for _ in range(rng.randint(0, 3))]
            cyc = [rng.choice(image) for _ in range(rng.randint(1, 2))]
            out.append(LassoRay.make(g, head + tuple(tail), cyc))
            # the same levels ending in the all-ones tail (series value 1)
            out.append(LassoRay.make(g, head, [p.xi1_edges[p.h.edges[0]]]))
    return out


# -- bi-lassos -----------------------------------------------------------------------


def closed_walk(g, rng, at, tries=50):
    """A random walk of 1 to 4 edges from `at` that ends back at `at`."""
    for _ in range(tries):
        walk, node = [], at
        for _ in range(rng.randint(1, 4)):
            e = rng.choice(g.out_edges(node))
            walk.append(e)
            node = g.target(e)
            if node == at:
                return walk
    return None


def walk(g, rng, at, length):
    out = []
    for _ in range(length):
        if not g.out_edges(at):
            break
        e = rng.choice(g.out_edges(at))
        out.append(e)
        at = g.target(e)
    return out


def end_of(g, start, edges):
    return g.target(edges[-1]) if edges else start


def h_cycles(p):
    """The H-cycle of each H-vertex that reaches one, in G's vertex order of
    its xi0 image: the cycle of the vertex's all-image tail, mapped back
    through xi0."""
    h_edge = {e: y for y, e in p.xi0_edges.items()}
    tails = (c.xi_tail for c in p.completion.values())
    return [tuple(h_edge[e] for e in cyc) for _, cyc in filter(None, tails)]


def bilasso_pairs(p, rng, count):
    """Pairs of bi-lassos: independent ones (mostly too far apart for a
    bracket), ones that share their past and core and differ beyond it,
    and carry partners around an H-cycle."""
    g = p.g
    out = []
    cycles = h_cycles(p)
    while len(out) < count:
        v = rng.choice(g.vertices)
        past = closed_walk(g, rng, v)
        if past is None:
            continue
        core = walk(g, rng, v, rng.randint(0, 6))
        kind = rng.choice(("independent", "shared", "carry" if cycles else "shared"))
        if kind == "carry":
            cyc = rng.choice(cycles)
            start = p.xi0_vertices[p.h.source(cyc[0])]
            back = closed_walk(g, rng, start)
            if back is None:
                continue
            rot = cyc[1:] + cyc[:1]
            x = BiLasso.make(g, back, back + [p.xi0_edges[cyc[0]]], [p.xi1_edges[y] for y in rot])
            y = BiLasso.make(g, back, back + [p.xi1_edges[cyc[0]]], [p.xi0_edges[y] for y in rot])
            out.append((x, y))
            continue
        future = closed_walk(g, rng, end_of(g, v, core))
        if future is None:
            continue
        x = BiLasso.make(g, past, core, future)
        if kind == "independent":
            u = rng.choice(g.vertices)
            past2 = closed_walk(g, rng, u)
            core2 = walk(g, rng, u, rng.randint(0, 6))
            future2 = closed_walk(g, rng, end_of(g, u, core2))
        else:
            past2 = past
            core2 = core + walk(g, rng, end_of(g, v, core), rng.randint(0, 4))
            future2 = closed_walk(g, rng, end_of(g, v, core2))
        if past2 is None or future2 is None:
            continue
        out.append((x, BiLasso.make(g, past2, core2, future2)))
    return out


def tower_pairs(p, rng, count, cores=(8, 20)):
    """bilasso_pairs (independent, short shared cores, carry partners) and
    as many shared_core_pairs."""
    return bilasso_pairs(p, rng, count) + shared_core_pairs(p, rng, count, cores)


def shared_core_pairs(p, rng, count, cores=(8, 20)):
    """Up to `count` pairs that share a core of cores[0] to cores[1]
    edges, with the same or another past and another future."""
    g = p.g
    out = []
    for _ in range(50 * count):
        if len(out) >= count:
            break
        v = rng.choice(g.vertices)
        past = closed_walk(g, rng, v)
        core = walk(g, rng, v, rng.randint(*cores))
        end = end_of(g, v, core)
        past2 = past if rng.random() < 0.5 else closed_walk(g, rng, v)
        futures = closed_walk(g, rng, end), closed_walk(g, rng, end)
        if None in (past, past2) + futures:
            continue
        out.append((BiLasso.make(g, past, core, futures[0]), BiLasso.make(g, past2, core, futures[1])))
    return out


# -- graphs and matrices -------------------------------------------------------------


@st.composite
def graphs(draw, max_vertices=6, max_edges=12, min_edges=0):
    """Graphs whose edges are drawn freely: self-loops, parallel edges,
    vertices with no way back and several components all occur."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    ends = st.tuples(st.sampled_from(vs), st.sampled_from(vs))
    pairs = draw(st.lists(ends, min_size=min_edges, max_size=max_edges))
    return Graph(vs, [(f"e{k}", s, t) for k, (s, t) in enumerate(pairs)])


@st.composite
def matrices(draw, rows=st.integers(0, 7), cols=st.integers(0, 7), entries=st.integers(-9, 9)):
    """Integer matrices; `rows` and `cols` are numbers or strategies, and
    either may be 0."""
    rows, cols = (n if isinstance(n, int) else draw(n) for n in (rows, cols))
    data = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(tuple(data[i * cols:(i + 1) * cols]) for i in range(rows)))
