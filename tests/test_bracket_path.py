"""The bracket path against its definitions.

The definitions (in `reference`) are `make` with one `has_edge`, `source`
and `target` call per edge, `lift_preimage` building and validating every
candidate lasso, and `bracket` measuring each level that can push the
tower distance past 1/2 before lifting.  The package must give the same
towers, lassos, values and error messages.

The bracket reads only those levels, so an error the full tower distance
would raise from a deeper level does not surface; such cases are forced
on a seed with unreachable strata.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    RAY_DEPTHS,
    bilasso_pairs,
    draw_rays,
    h0_failing_pair,
    outcome,
    seeds,
    shared_core_pairs,
    spare_return_pair,
    tower_pairs,
)
from reference import (
    ref_bracket,
    ref_canonical,
    ref_lift_preimage,
    ref_make,
    ref_tower_distance,
)
from shiftquot.rays import LassoRay, RayError, canonical, flip, lift_preimage
from shiftquot.smale import BiLasso, SmaleError, Tower, bracket, pi_xi_tower


def compare_brackets(p, pairs, depths):
    """Bracket against the reference on every pair, tower depth and ray depth."""
    for x, y in pairs:
        for depth in depths:
            tx, ty = pi_xi_tower(p, x, depth), pi_xi_tower(p, y, depth)
            for rd in RAY_DEPTHS:
                assert outcome(bracket, p, tx, ty, rd) == outcome(ref_bracket, p, tx, ty, rd)


# -- bracket --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_bracket_matches_the_full_distance(name, request):
    p = request.getfixturevalue(name)
    compare_brackets(p, bilasso_pairs(p, random.Random(name), 40), range(6))
    # pairs that share a core of 8 to 20 edges, in deeper towers
    compare_brackets(p, tower_pairs(p, random.Random(name), 12), (0, 3, 10))


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_bracket_matches_the_full_distance_on_long_shared_cores(name, request):
    # levels 1 and 2 grown from level 0, lifts through cores of up to 200 edges
    p = request.getfixturevalue(name)
    pairs = shared_core_pairs(p, random.Random(name), 3, (8, 200))
    assert max(len(x.core) for x, _ in pairs) > 100
    compare_brackets(p, pairs, (10, 60))


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
    compare_brackets(p, bilasso_pairs(p, random.Random(rng_seed), 6), (0, 3, 5))
    compare_brackets(p, tower_pairs(p, random.Random(rng_seed), 3), (0, 5))
    compare_brackets(p, shared_core_pairs(p, random.Random(rng_seed), 1, (8, 200)), (40,))


def test_a_failing_deep_level_no_longer_surfaces():
    p = spare_return_pair()
    assert p.hypotheses.standing()
    g = p.g
    # level 8 has no approximant at the default ray depth; levels 0-2 decide
    x = BiLasso.make(g, ["y0s"], ["y0a", "y0b", "y1a", "y1a", "y0s", "c0"], ["c1", "y0b", "c0"])
    y = BiLasso.make(g, ["y0s"], ["y0a", "y0b", "y1a", "y1a", "y0s", "c0", "c1", "y0b"], ["y0s"])
    tx, ty = pi_xi_tower(p, x, 8), pi_xi_tower(p, y, 8)
    with pytest.raises(RayError, match="stratum 12 unreachable"):
        ref_tower_distance(p, tx, ty)
    z = bracket(p, tx, ty)
    lifted = [tx.level(0)]
    for n in range(1, 9):
        lifted.append(ref_canonical(p, ref_lift_preimage(p, lifted[-1].rep, ty.level(n).rep)))
    assert z == Tower(tuple(lifted)) == ref_bracket(p, tx, ty)
    # level 3 has none at ray depth 2; levels 0-2 already exceed 1/2
    x = BiLasso.make(g, ["c1", "y0s", "c0"], ["c1", "y0a", "y0s", "y1b", "y0b"], ["c0", "c1"])
    y = BiLasso.make(g, ["c1", "y0s", "c0"], ["c1", "y0a", "y0s", "y1b", "y0b", "y0s"], ["y0a"])
    tx, ty = pi_xi_tower(p, x, 3), pi_xi_tower(p, y, 3)
    with pytest.raises(RayError, match="stratum 3 unreachable"):
        ref_tower_distance(p, tx, ty, None, 2)
    for fn in (bracket, ref_bracket):
        with pytest.raises(SmaleError, match=r"tower distance 3/4 > 1/2"):
            fn(p, tx, ty, 2)
    for seed in range(3):
        compare_brackets(p, tower_pairs(p, random.Random(seed), 6), (3, 6))


# -- lifts ----------------------------------------------------------------------


def compare_lifts(p, rays, rng=None, count=400):
    """Lifts against the reference on the composable pairs of `rays` and
    their flips (a sample of `count` of them when an rng is given)."""
    g = p.g
    pool = rays + [o for o in (flip(p, x) for x in rays) if o is not None]
    pairs = [(x, y) for x in pool for y in pool if g.target(y.edge_at(1)) == g.source(x.edge_at(1))]
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
    rays = [LassoRay.make(g, pre, cyc) for pre, cyc in [
        ([], ["a"]), ([], ["b"]), (["s"], ["a"]), (["c"], ["b"]), (["s", "c"], ["b"]),
        (["a", "c"], ["d", "c"]), (["d"], ["a"]), (["c", "d"], ["s"]), ([], ["c", "d"]),
    ]]
    assert compare_lifts(p, rays) > 20
    kinds = {outcome(lift_preimage, p, x, y)[0] for x in rays for y in rays
             if g.target(y.edge_at(1)) == g.source(x.edge_at(1))}
    assert kinds == {"ok", "RayError"}


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

