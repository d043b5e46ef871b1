"""The spare-edge index and the two path walkers against the code they
replaced.

Each reference below is a copy of the earlier implementation: H2 and the
spare twin by a scan over every G-edge, the injectivity check by a
recursive prefix walk over every (prefix, cycle) spelling with its own
copy of the earlier (gap, Fraction) class invariant, and the transversal
cycle by a recursive walk over spare edges.  The new code must give the
same verdicts, witnesses and reports.  The injectivity walk visits only
spellings in normal form and computes its invariant once per class, so it
is also compared class by class (the reps in the order both walks first
meet them) and spelling by spelling (its normal forms against the
recursion's, in first-met order).  The bundles give no collisions, so the
collision order is checked under a coarse invariant, the quotient image
alone, put into both walks.
"""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from shiftquot import geometry
from shiftquot.embedding import EmbeddingPair
from shiftquot.geometry import _normal_spellings, embedding_injectivity_check
from shiftquot.graphs import Graph, paths_of_length
from shiftquot.metrics import tau_ray
from shiftquot.rays import Angle, LassoRay, RayError, canonical, flip, format_ray, kappa, levels
from shiftquot.smale import SmaleError, transversal_spec

from conftest import bundle_path


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


def reference_invariant(p: EmbeddingPair, x: LassoRay):
    """(quotient image, chain of (gap, angle) level data, tail angle): a
    complete invariant of the identification class for finite strata."""
    *chain, (_, tail) = levels(p, x)
    return (tau_ray(p, x), tuple(chain), Angle.of(tail).turns)


def coarse_invariant(p: EmbeddingPair, x: LassoRay):
    """The quotient image alone: many classes share one, so collisions occur."""
    return tau_ray(p, x)


def recursive_injectivity(
    p: EmbeddingPair, depth: int, tail_length: int = 1, invariant=reference_invariant, visited=None, met=None
):
    """(classes, collisions) by the recursive prefix walk; every lasso it
    considers is appended to `visited`, and every class rep to `met` when
    the class is first met, when these are given."""
    g = p.g
    cycles = []
    for L in range(1, tail_length + 1):
        for v in g.vertices:
            cycles.extend(paths_of_length(g, L, src=v, dst=v))
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
        if met is not None:
            met.append(c.rep)
        inv = invariant(p, c.rep)
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


WALKS = [("full2", 4, 1), ("full2", 3, 2), ("full3", 4, 1), ("full3", 3, 2), ("twovertex", 4, 1), ("twovertex", 3, 2)]


def walked_classes(mp, p: EmbeddingPair, depth: int, tail_length: int, invariant=None):
    """The walk's (classes, collisions) and the reps it passes to the
    per-class invariant, in call order; `invariant` replaces the walk's."""
    reps = []
    inner = invariant or geometry._discrete_invariant
    mp.setattr(geometry, "_discrete_invariant", lambda p, x: reps.append(x) or inner(p, x))
    report = embedding_injectivity_check(p, depth, tail_length)
    return (report.classes, report.collisions), reps


def first_met_normal_forms(p: EmbeddingPair, depth: int, tail_length: int) -> list[LassoRay]:
    """The recursion's lassos of finite spare count, each once, in the order
    it first builds them."""
    visited = []
    recursive_injectivity(p, depth, tail_length, visited=visited)
    return list(dict.fromkeys(x for x in visited if kappa(p, x) != math.inf))


def assert_walk_matches_the_recursion(mp, p: EmbeddingPair, depth: int, tail_length: int) -> None:
    met = []
    report, reps = walked_classes(mp, p, depth, tail_length)
    assert report == recursive_injectivity(p, depth, tail_length, met=met)
    assert reps == met


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_injectivity_walk_matches_the_recursion(seed, depth, tail_length, request, monkeypatch):
    assert_walk_matches_the_recursion(monkeypatch, request.getfixturevalue(seed), depth, tail_length)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_injectivity_walk_matches_the_recursion_on_drawn_seeds(p, depth, tail_length):
    with pytest.MonkeyPatch.context() as mp:
        assert_walk_matches_the_recursion(mp, p, depth, tail_length)


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_collisions_in_the_recursion_order(seed, depth, tail_length, request, monkeypatch):
    p = request.getfixturevalue(seed)
    report, _ = walked_classes(monkeypatch, p, depth, tail_length, coarse_invariant)
    assert report[1]
    assert report == recursive_injectivity(p, depth, tail_length, coarse_invariant)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_collisions_in_the_recursion_order_on_drawn_seeds(p, depth, tail_length):
    with pytest.MonkeyPatch.context() as mp:
        report, _ = walked_classes(mp, p, depth, tail_length, coarse_invariant)
    assert report == recursive_injectivity(p, depth, tail_length, coarse_invariant)


def assert_spellings_are_normal_forms(p: EmbeddingPair, depth: int, tail_length: int) -> None:
    spelled = list(_normal_spellings(p, depth, tail_length))
    built = [LassoRay(*key) for key in spelled]
    assert built == [LassoRay.make(p.g, *key) for key in spelled]
    assert built == first_met_normal_forms(p, depth, tail_length)


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_walk_builds_the_normal_forms_make_builds(seed, depth, tail_length, request):
    assert_spellings_are_normal_forms(request.getfixturevalue(seed), depth, tail_length)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_walk_builds_the_normal_forms_make_builds_on_drawn_seeds(p, depth, tail_length):
    assert_spellings_are_normal_forms(p, depth, tail_length)


def same_partition(p: EmbeddingPair, xs: list[LassoRay], key_a, key_b) -> bool:
    """Whether the two keys split xs into the same classes of equal keys."""
    firsts_a, firsts_b = {}, {}
    return [firsts_a.setdefault(key_a(p, x), i) for i, x in enumerate(xs)] == [
        firsts_b.setdefault(key_b(p, x), i) for i, x in enumerate(xs)
    ]


def lassos_and_flips(p: EmbeddingPair, depth: int, tail_length: int) -> list[LassoRay]:
    xs = [LassoRay(*key) for key in _normal_spellings(p, depth, tail_length)]
    return xs + [y for y in (flip(p, x) for x in xs) if y is not None]


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_walk_invariant_splits_lassos_as_the_reference(seed, depth, tail_length, request):
    # both members of each class, so the key is checked as a class
    # invariant and not only on the reps the walk passes it
    p = request.getfixturevalue(seed)
    xs = lassos_and_flips(p, depth, tail_length)
    assert same_partition(p, xs, geometry._discrete_invariant, reference_invariant)
    assert same_partition(p, xs, geometry._discrete_invariant, lambda p, x: canonical(p, x))


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_walk_invariant_splits_lassos_as_the_reference_on_drawn_seeds(p, depth, tail_length):
    xs = lassos_and_flips(p, depth, tail_length)
    assert same_partition(p, xs, geometry._discrete_invariant, reference_invariant)


def test_injectivity_class_cap(full3, monkeypatch):
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 243)
    assert embedding_injectivity_check(full3, 4, 2).classes == 243
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 242)
    with pytest.raises(RayError, match=r"more than 242 .* at depth 4$"):
        embedding_injectivity_check(full3, 4, 2)


def test_injectivity_ignores_hash_seed(twovertex, monkeypatch):
    # the walk keeps its classes in a set, but reads it only by membership
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "from shiftquot import geometry\nfrom shiftquot.cli import load_bundle\n"
        "from shiftquot.metrics import tau_ray\n"
        f"p = load_bundle({bundle_path('twovertex.bundle')!r}).pair()\n"
        "print(geometry.embedding_injectivity_check(p, 4))\n"
        "geometry._discrete_invariant = tau_ray\n"
        "print(geometry.embedding_injectivity_check(p, 4))\n"
    )
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    plain = embedding_injectivity_check(twovertex, 4)
    monkeypatch.setattr(geometry, "_discrete_invariant", tau_ray)
    assert runs[0] == f"{plain}\n{embedding_injectivity_check(twovertex, 4)}\n"


@settings(max_examples=60, deadline=None)
@given(seeds())
def test_transversal_matches_the_recursive_walk(p):
    best = recursive_transversal(p)
    if best is None:
        with pytest.raises(SmaleError):
            transversal_spec(p)
    else:
        assert transversal_spec(p).cycle == best
