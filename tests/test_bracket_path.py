"""The bracket path against the code it replaced.

The references below are copies of the earlier implementations: `make`
with one `has_edge`, `source` and `target` call per edge, `_d_finite`
walking the quotient images and the level chains even for equal rays,
`lift_preimage` building and validating every candidate lasso, and
`bracket` computing the full tower distance over all levels first.  The
new code must give the same towers, lassos, values and error messages.

One difference is allowed: `bracket` reads only the levels that can still
push the tower distance past 1/2, so an error the full distance would have
raised from a deeper level no longer surfaces.  Such cases are collected
and checked to be exactly that.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_level_walk import draw_rays
from test_seed_walks import seeds
from shiftquot.embedding import EmbeddingPair
from shiftquot.graphs import Graph, GraphError
from shiftquot.metrics import MetricInterval, _d_finite, _lambda_hat, d_quotient_graph
from shiftquot.rays import (
    Angle,
    LassoRay,
    RayError,
    canonical,
    flip,
    kappa,
    level,
    lift_preimage,
    normal_form,
    stratum_approximant,
)
from shiftquot.smale import BiLasso, SmaleError, Tower, bracket, pi_xi_tower

RAY_DEPTHS = (0, 1, 2, 16)


# -- references ---------------------------------------------------------------


def ref_make(g, prefix, cycle):
    pre = tuple(prefix)
    cyc = tuple(cycle)
    if not cyc:
        raise RayError("cycle must be nonempty")
    try:
        for e in pre + cyc:
            if not g.has_edge(e):
                raise GraphError(f"unknown edge {e!r}")
        whole = pre + cyc
        for a, b in zip(whole, whole[1:]):
            if g.target(a) != g.source(b):
                raise GraphError(f"edges {a!r},{b!r} are not composable")
        if g.target(cyc[-1]) != g.source(cyc[0]):
            raise GraphError("cycle does not close up")
    except GraphError as exc:
        raise RayError(str(exc)) from None
    return normal_form(pre, cyc)


def ref_d_finite(p, x, y):
    return d_quotient_graph(p, x, y) + _lambda_hat(p, x, y)


def ref_d_extended(p, x, y, depth=12):
    kx, ky = kappa(p, x), kappa(p, y)
    if kx != math.inf and ky != math.inf:
        return MetricInterval.point(ref_d_finite(p, x, y))
    inner = depth + 1
    jx = sum(1 for i in range(1, inner + 1) if not p.in_image(x.edge_at(i)))
    jy = sum(1 for i in range(1, inner + 1) if not p.in_image(y.edge_at(i)))
    K = max(jx, jy)
    xa = x if kx == K else stratum_approximant(p, x, inner, K)
    ya = y if ky == K else stratum_approximant(p, y, inner, K)
    value = ref_d_finite(p, xa, ya)
    slack = Fraction(3, 2**depth)
    return MetricInterval(max(Fraction(0), value - slack), value + slack)


def ref_tower_distance(p, x, y, depth=None, ray_depth=16):
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    m = x.depth if depth is None else min(depth, x.depth)
    lo = Fraction(0)
    hi = Fraction(3, 2**m)
    for n in range(m + 1):
        d = ref_d_extended(p, x.level(n).rep, y.level(n).rep, ray_depth)
        w = Fraction(1, 2**n)
        lo = max(lo, w * d.lo)
        hi = max(hi, w * d.hi)
    return MetricInterval(lo, hi)


def ref_lift_preimage(p, x, y):
    y1 = y.edge_at(1)
    x1 = x.edge_at(1)
    if p.g.target(y1) != p.g.source(x1):
        raise RayError("first edge of x is not composable after the first edge of y")
    reps = [x]
    other = flip(p, x)
    if other is not None and other != x:
        reps.append(other)
    if p.in_image(y1):
        firsts = [y1, p.partner(y1)]
    else:
        firsts = [y1]
    target_n, target_t = level(p, y)
    target_angle = Angle.of(target_t)
    best = None
    for pref_idx, (e, rep) in enumerate((e, rep) for e in firsts for rep in reps):
        z = ref_make(p.g, (e,) + rep.prefix, rep.cycle)
        nz, tz = level(p, z)
        az = Angle.of(tz)
        matched = 0 if (nz == target_n and az == target_angle) else 1
        score = (matched, az.distance(target_angle), pref_idx)
        if best is None or score < best[0]:
            best = (score, z)
    return best[1]


def ref_bracket(p, x, y, ray_depth=16):
    d = ref_tower_distance(p, x, y, ray_depth=ray_depth)
    if d.hi > Fraction(1, 2):
        raise SmaleError(f"bracket undefined: tower distance {d.hi} > 1/2")
    levels = [x.level(0)]
    for n in range(1, x.depth + 1):
        z = ref_lift_preimage(p, levels[-1].rep, y.level(n).rep)
        levels.append(canonical(p, z))
    return Tower(tuple(levels))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


# -- inputs ---------------------------------------------------------------------


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


def bilasso_pairs(p, rng, count):
    """Pairs of bi-lassos: independent ones (mostly too far apart for a
    bracket), ones that share their past and core and differ beyond it,
    and carry partners around an H-cycle."""
    g = p.g
    out = []
    h_cycles = [cyc for _, cyc in p._h_tails.values()]
    while len(out) < count:
        v = rng.choice(g.vertices)
        past = closed_walk(g, rng, v)
        if past is None:
            continue
        core = walk(g, rng, v, rng.randint(0, 6))
        kind = rng.choice(("independent", "shared", "carry" if h_cycles else "shared"))
        if kind == "carry":
            cyc = rng.choice(h_cycles)
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


def compare_brackets(p, pairs, depths=range(6), ray_depths=RAY_DEPTHS):
    """Bracket against the reference on every pair, depth and ray depth;
    returns the cases where only the reference failed, from a level that
    cannot decide the bracket."""
    deeper = []
    for x, y in pairs:
        for depth in depths:
            tx, ty = pi_xi_tower(p, x, depth), pi_xi_tower(p, y, depth)
            for rd in ray_depths:
                new = outcome(bracket, p, tx, ty, rd)
                ref = outcome(ref_bracket, p, tx, ty, rd)
                if new == ref:
                    continue
                # only a level the bracket does not read may fail the reference
                assert new[0] in ("ok", "SmaleError") and ref[0] not in ("ok", "SmaleError")
                reach = 3 + 3 * Fraction(2) ** -rd
                read = [n for n in range(depth + 1) if reach / 2**n > Fraction(1, 2)]
                failing = [
                    n for n in range(depth + 1)
                    if outcome(ref_d_extended, p, tx.level(n).rep, ty.level(n).rep, rd)[0] != "ok"
                ]
                assert failing and min(failing) > max(read)
                if new[0] == "SmaleError":
                    hi = max(
                        [Fraction(3, 2**depth)]
                        + [ref_d_extended(p, tx.level(n).rep, ty.level(n).rep, rd).hi / 2**n for n in read]
                    )
                    assert new[1] == f"bracket undefined: tower distance {hi} > 1/2"
                deeper.append((x, y, depth, rd, new, ref))
    return deeper


# -- bracket --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_bracket_matches_the_full_distance(name, request):
    p = request.getfixturevalue(name)
    pairs = bilasso_pairs(p, random.Random(name), 40)
    assert compare_brackets(p, pairs) == []


def test_bracket_defined_and_undefined_cases_both_occur(full3, twovertex):
    for p in (full3, twovertex):
        kinds = {
            outcome(bracket, p, pi_xi_tower(p, x, 4), pi_xi_tower(p, y, 4))[0]
            for x, y in bilasso_pairs(p, random.Random(7), 40)
        }
        assert kinds == {"ok", "SmaleError"}


def test_bracket_keeps_the_depth_check(full3):
    x = pi_xi_tower(full3, BiLasso.make(full3.g, ["a"], [], ["a"]), 3)
    y = pi_xi_tower(full3, BiLasso.make(full3.g, ["a"], [], ["a"]), 4)
    for fn in (bracket, ref_bracket):
        with pytest.raises(SmaleError, match="towers must share their depth"):
            fn(full3, x, y)


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_bracket_matches_the_full_distance_on_drawn_seeds(p, rng_seed):
    pairs = bilasso_pairs(p, random.Random(rng_seed), 6)
    compare_brackets(p, pairs, depths=(0, 3, 5))


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


def test_a_failing_deep_level_no_longer_surfaces():
    p = spare_return_pair()
    assert p.hypotheses.standing()
    g = p.g
    # level 8 has no approximant at the default ray depth; levels 0-2 decide
    x = BiLasso.make(g, ["y0s"], ["y0a", "y0b", "y1a", "y1a", "y0s", "c0"], ["c1", "y0b", "c0"])
    y = BiLasso.make(g, ["y0s"], ["y0a", "y0b", "y1a", "y1a", "y0s", "c0", "c1", "y0b"], ["y0s"])
    tx, ty = pi_xi_tower(p, x, 8), pi_xi_tower(p, y, 8)
    with pytest.raises(RayError, match="stratum 12 unreachable"):
        ref_bracket(p, tx, ty)
    z = bracket(p, tx, ty)
    lifted = [tx.level(0)]
    for n in range(1, 9):
        lifted.append(canonical(p, ref_lift_preimage(p, lifted[-1].rep, ty.level(n).rep)))
    assert z == Tower(tuple(lifted))
    # level 3 has none at ray depth 2; levels 0-2 already exceed 1/2
    x = BiLasso.make(g, ["c1", "y0s", "c0"], ["c1", "y0a", "y0s", "y1b", "y0b"], ["c0", "c1"])
    y = BiLasso.make(g, ["c1", "y0s", "c0"], ["c1", "y0a", "y0s", "y1b", "y0b", "y0s"], ["y0a"])
    tx, ty = pi_xi_tower(p, x, 3), pi_xi_tower(p, y, 3)
    with pytest.raises(RayError, match="stratum 3 unreachable"):
        ref_bracket(p, tx, ty, 2)
    with pytest.raises(SmaleError, match=r"tower distance 3/4 > 1/2"):
        bracket(p, tx, ty, 2)
    assert len(compare_brackets(p, [(x, y)], depths=(3,))) == 1


# -- lifts ----------------------------------------------------------------------


def compare_lifts(p, rays, rng=None, count=400):
    """Lifts against the reference on the composable pairs of `rays` (a
    sample of `count` of them when an rng is given)."""
    g = p.g
    pairs = [(x, y) for x in rays for y in rays if g.target(y.edge_at(1)) == g.source(x.edge_at(1))]
    if rng is not None and len(pairs) > count:
        pairs = rng.sample(pairs, count)
    for x, y in pairs:
        assert outcome(lift_preimage, p, x, y) == outcome(ref_lift_preimage, p, x, y)
    return len(pairs)


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_lift_matches_the_candidate_builds(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    rays = [canonical(p, x).rep for x in draw_rays(p, rng, 30)]
    assert compare_lifts(p, rays + draw_rays(p, rng, 15), rng) > 100


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_lift_matches_the_candidate_builds_on_drawn_seeds(p, rng_seed):
    rng = random.Random(rng_seed)
    compare_lifts(p, draw_rays(p, rng, 10), rng, 60)


def h0_failing_pair():
    """xi0 maps H's loop to the loop a at u, xi1 to the loop b at v: the
    partner of an image edge lies at the other vertex, so H0 fails."""
    g = Graph(
        ["u", "v"],
        [("a", "u", "u"), ("b", "v", "v"), ("c", "u", "v"), ("d", "v", "u"), ("s", "u", "u")],
    )
    h = Graph(["w"], [("y", "w", "w")])
    return EmbeddingPair(g, h, {"w": "u"}, {"y": "a"}, {"w": "v"}, {"y": "b"})


def test_lift_raises_the_same_error_when_h0_fails():
    p = h0_failing_pair()
    assert not p.hypotheses.h0.passed
    g = p.g
    cases = [
        # the partner candidate b.x does not compose
        (LassoRay.make(g, [], ["s"]), LassoRay.make(g, ["a"], ["a"])),
        # the flip of x, c;b, is not a lasso of G: its fault comes after the junction
        (LassoRay.make(g, ["s", "c"], ["b"]), LassoRay.make(g, ["s"], ["s"])),
        (LassoRay.make(g, ["d"], ["s"]), LassoRay.make(g, ["c"], ["d", "c"])),
        (LassoRay.make(g, [], ["a"]), LassoRay.make(g, ["d"], ["a"])),
    ]
    for x, y in cases:
        assert outcome(lift_preimage, p, x, y) == outcome(ref_lift_preimage, p, x, y)
    kinds = [outcome(lift_preimage, p, x, y)[0] for x, y in cases]
    assert "RayError" in kinds
    assert compare_lifts(p, [LassoRay.make(g, pre, cyc) for pre, cyc in [
        ([], ["a"]), ([], ["b"]), (["s"], ["a"]), (["c"], ["b"]), (["s", "c"], ["b"]),
        (["a", "c"], ["d", "c"]), (["d"], ["a"]), (["c", "d"], ["s"]), ([], ["c", "d"]),
    ]]) > 20


# -- make -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "prefix,cycle",
    [
        (["p0", "zz"], ["p0"]),  # unknown edge
        (["q0", "p0"], ["p0"]),  # non-composable pair
        (["p0"], ["q0", "s0"]),  # open cycle
        (["p0"], []),  # empty cycle
        (["q0", "zz"], ["q0"]),  # unknown edge after a non-composable pair
        ([], ["q0", "r1", "p2"]),
        (["q0", "s0", "r0"], ["p1", "q1", "r2"]),
    ],
)
def test_make_gives_the_same_lasso_or_message(prefix, cycle, twovertex):
    assert outcome(LassoRay.make, twovertex.g, prefix, cycle) == outcome(
        ref_make, twovertex.g, prefix, cycle
    )


EDGE_NAMES = st.sampled_from(["a", "b", "c", "p0", "p1", "q0", "q2", "r1", "s0", "zz"])


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(EDGE_NAMES, max_size=6), st.lists(EDGE_NAMES, max_size=4))
def test_make_matches_on_drawn_edge_lists(full3, twovertex, on_full3, prefix, cycle):
    g = full3.g if on_full3 else twovertex.g
    assert outcome(LassoRay.make, g, prefix, cycle) == outcome(ref_make, g, prefix, cycle)


# -- _d_finite --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_d_finite_on_equal_and_unequal_rays(name, request):
    p = request.getfixturevalue(name)
    rays = [x for x in draw_rays(p, random.Random(name), 40) if kappa(p, x) != math.inf][:25]
    assert len(rays) > 10
    for x in rays:
        same = LassoRay.make(p.g, x.prefix + x.cycle, x.cycle)  # the same path, spelled longer
        assert same == x
        assert _d_finite(p, x, same) == ref_d_finite(p, x, same) == 0
        for y in rays:
            assert _d_finite(p, x, y) == ref_d_finite(p, x, y)
