"""The spare-edge index and the two path walkers against the code they
replaced.

Each reference below is a copy of the earlier implementation: H2 and the
spare twin by a scan over every G-edge, the injectivity check by a
recursive prefix walk, and the transversal cycle by a recursive walk over
spare edges.  The new code must give the same verdicts, witnesses and
reports.  The bundles give no collisions, so the injectivity walk is also
compared lasso by lasso, in the order both walks visit them; the walk never
builds a lasso whose cycle carries a spare edge, so the recursion's lassos
of infinite spare count are left out of that comparison.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from shiftquot import geometry
from shiftquot.embedding import EmbeddingPair
from shiftquot.geometry import _discrete_invariant, embedding_injectivity_check
from shiftquot.graphs import Graph, paths_of_length
from shiftquot.rays import LassoRay, RayError, canonical, format_ray, kappa
from shiftquot.smale import SmaleError, transversal_spec


def scanned_twin(p: EmbeddingPair, e: str) -> str | None:
    g = p.g
    return next(
        (
            s
            for s in g.edges
            if not p.in_image(s) and g.source(s) == g.source(e) and g.target(s) == g.target(e)
        ),
        None,
    )


def scanned_h2_witness(p: EmbeddingPair) -> str | None:
    for y in p.h.edges:
        e0 = p.xi0_edges[y]
        spare = any(
            x not in p.xi_image
            and p.g.source(x) == p.g.source(e0)
            and p.g.target(x) == p.g.target(e0)
            for x in p.g.edges
        )
        if not spare:
            return y
    return None


def recursive_injectivity(p: EmbeddingPair, depth: int, tail_length: int = 1, visited=None):
    """(classes, collisions) by the recursive prefix walk; every lasso it
    considers is appended to `visited` when given."""
    g = p.g
    cycles = []
    for L in range(1, tail_length + 1):
        for v in g.vertices:
            cycles.extend(w.edges for w in paths_of_length(g, L, src=v, dst=v))
    reps, invariants, collisions = {}, {}, []

    def consider(x: LassoRay) -> None:
        if visited is not None:
            visited.append(x)
        if kappa(p, x) == math.inf:
            return
        c = canonical(p, x)
        key = (c.rep.prefix, c.rep.cycle)
        if key in reps:
            return
        reps[key] = c.rep
        inv = _discrete_invariant(p, c.rep)
        other = invariants.get(inv)
        if other is not None:
            collisions.append((format_ray(other), format_ray(c.rep)))
        else:
            invariants[inv] = c.rep

    def extend(prefix: list[str], at: str | None, remaining: int) -> None:
        for cyc in cycles:
            if at is None or g.source(cyc[0]) == at:
                if not prefix or g.target(prefix[-1]) == g.source(cyc[0]):
                    try:
                        consider(LassoRay.make(g, tuple(prefix), cyc))
                    except RayError:
                        continue
        if remaining == 0:
            return
        for e in g.edges if at is None else g.out_edges(at):
            if prefix and g.target(prefix[-1]) != g.source(e):
                continue
            prefix.append(e)
            extend(prefix, g.target(e), remaining - 1)
            prefix.pop()

    extend([], None, depth)
    return len(reps), tuple(collisions)


def recursive_transversal(p: EmbeddingPair) -> tuple[str, ...] | None:
    g = p.g
    for L in range(1, len(g.vertices) + 1):
        candidates = []
        for v in g.vertices:

            def walk(at: str, path: list[str]) -> None:
                if len(path) == L:
                    if at == v:
                        candidates.append(tuple(path))
                    return
                for e in g.out_edges(at):
                    if p.in_image(e):
                        continue
                    path.append(e)
                    walk(g.target(e), path)
                    path.pop()

            walk(v, [])
        if candidates:
            return min(candidates)
    return None


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


@settings(max_examples=60, deadline=None)
@given(seeds())
def test_h2_and_spare_twin_match_the_edge_scan(p):
    for e in p.g.edges:
        assert p.spare_twin(e) == scanned_twin(p, e)
    bad = scanned_h2_witness(p)
    assert p.hypotheses.h2.passed == (bad is None)
    assert p.hypotheses.h2.witness == (bad and f"edge {bad}")


def test_h2_verdicts_on_the_bundles(full2, full3, twovertex):
    for p in (full2, full3, twovertex):
        bad = scanned_h2_witness(p)
        assert p.hypotheses.h2.witness == (bad and f"edge {bad}")
        assert all(p.spare_twin(e) == scanned_twin(p, e) for e in p.g.edges)


@pytest.mark.parametrize(
    "seed,depth,tail_length",
    [("full2", 4, 1), ("full2", 3, 2), ("full3", 4, 1), ("full3", 3, 2), ("twovertex", 4, 1), ("twovertex", 3, 2)],
)
def test_injectivity_walk_matches_the_recursion(seed, depth, tail_length, request, monkeypatch):
    p = request.getfixturevalue(seed)
    walked, recursed = [], []
    monkeypatch.setattr(geometry, "canonical", lambda p, x: walked.append(x) or canonical(p, x))
    report = embedding_injectivity_check(p, depth, tail_length)
    assert (report.classes, report.collisions) == recursive_injectivity(p, depth, tail_length, recursed)
    assert walked == [x for x in recursed if kappa(p, x) != math.inf]


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_injectivity_walk_matches_the_recursion_on_drawn_seeds(p, depth, tail_length):
    report = embedding_injectivity_check(p, depth, tail_length)
    assert (report.classes, report.collisions) == recursive_injectivity(p, depth, tail_length)


@settings(max_examples=60, deadline=None)
@given(seeds())
def test_transversal_matches_the_recursive_walk(p):
    best = recursive_transversal(p)
    if best is None:
        with pytest.raises(SmaleError):
            transversal_spec(p)
    else:
        assert transversal_spec(p).cycle == best
