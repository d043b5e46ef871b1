"""The tower path against its definitions.

The definitions (in `reference`) read one edge per position for
`LassoRay.head`, `first_difference`, `BiLasso.window` and `ray_from`,
build level n of a tower as the class of the ray read from 1 - n, and
measure every level 0..M for `tower_distance`.  The package must give the
same values, towers and error messages.

One difference is allowed: `tower_distance` stops at the first level whose
bound (3 + 3 * 2^-ray_depth) * 2^-n is at most the lower end read so far,
so an error only a later level would raise no longer surfaces.  Such cases
are checked to be exactly that.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import RAY_DEPTHS, draw_rays, outcome, seeds, spare_return_pair, tower_pairs
from reference import (
    ref_d_extended,
    ref_first_difference,
    ref_head,
    ref_pi_xi_tower,
    ref_ray_from,
    ref_tower_distance,
    ref_window,
)
from shiftquot.metrics import MetricInterval
from shiftquot.rays import LassoRay, RayError, canonical, first_difference, flip
from shiftquot.smale import BiLasso, SmaleError, parse_bilasso, pi_xi_tower, tower_distance

# -- inputs ---------------------------------------------------------------------


def ray_pairs(p, rng, count):
    """Drawn rays paired with each other, with their flips, with the same
    path spelled longer and with a copy that agrees on a long prefix."""
    g = p.g
    rays_ = draw_rays(p, rng, count)
    out = [(x, y) for x in rays_ for y in rng.sample(rays_, min(len(rays_), 4))]
    for x in rays_:
        other = flip(p, x)
        if other is not None:
            out.append((x, other))
        out.append((x, LassoRay.make(g, x.prefix + x.cycle * 2, x.cycle)))
        for y in rays_:
            if g.source(y.edge_at(1)) == g.target(x.cycle[-1]):
                out.append((x, LassoRay.make(g, x.prefix + x.cycle * 3 + y.prefix, y.cycle)))
                break
    return out


def depths_for(tower_depth):
    return sorted({0, 1, tower_depth // 2, max(tower_depth - 1, 0)}) + [None]


def compare_distances(p, tx, ty, depths, ray_depths=RAY_DEPTHS):
    """tower_distance against the reference; returns the cases where only
    the reference failed, from a level the early stop does not read."""
    skipped = []
    for depth in depths:
        for rd in ray_depths:
            new = outcome(tower_distance, p, tx, ty, depth, rd)
            ref = outcome(ref_tower_distance, p, tx, ty, depth, rd)
            if new == ref:
                continue
            assert new[0] == "ok" and ref[0] != "ok"
            # the stop: the first level whose bound is at most the lower end so far
            m = tx.depth if depth is None else min(depth, tx.depth)
            reach, lo, hi, stop = 3 + 3 * Fraction(2) ** -rd, Fraction(0), Fraction(3, 2**m), None
            for n in range(m + 1):
                if reach / 2**n <= lo:
                    stop = n
                    break
                d = ref_d_extended(p, tx.level(n).rep, ty.level(n).rep, rd)
                lo, hi = max(lo, d.lo / 2**n), max(hi, d.hi / 2**n)
            assert stop is not None and new[1] == MetricInterval(lo, hi)
            failing = [
                n for n in range(m + 1)
                if outcome(ref_d_extended, p, tx.level(n).rep, ty.level(n).rep, rd)[0] != "ok"
            ]
            assert failing and min(failing) >= stop
            skipped.append((depth, rd))
    return skipped


def check_towers(p, pairs, tower_depths):
    """Towers and their distances at several depths against the references;
    returns the skipped cases of compare_distances."""
    skipped = []
    for x, y in pairs:
        for td in tower_depths:
            tx, ty = pi_xi_tower(p, x, td), pi_xi_tower(p, y, td)
            assert tx == ref_pi_xi_tower(p, x, td) and ty == ref_pi_xi_tower(p, y, td)
            skipped += compare_distances(p, tx, ty, depths_for(td))
    return skipped


# -- position reads -----------------------------------------------------------------


def check_rays(p, pairs):
    for x, y in pairs:
        assert first_difference(x, y) == ref_first_difference(x, y)
        span = len(x.prefix) + 3 * len(x.cycle) + 2
        for n in range(-1, span):
            assert x.head(n) == ref_head(x, n)


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_head_and_first_difference(name, request):
    p = request.getfixturevalue(name)
    pairs = ray_pairs(p, random.Random(name), 30)
    assert len(pairs) > 100
    check_rays(p, pairs)
    assert any(first_difference(x, y) is None for x, y in pairs)
    assert any((first_difference(x, y) or 0) > len(x.prefix) + len(x.cycle) for x, y in pairs)


def check_windows(x):
    lp, lf = len(x.past), len(x.future)
    first, last = x.origin - 3 * lp - 4, x.core_end() + 3 * lf + 4
    for a in range(first, last + 1):
        for b in (a - 2, a - 1, a, a + 1, a + lp + 1, x.core_end(), x.core_end() + lf + 2, last):
            assert x.window(a, b) == ref_window(x, a, b)
        assert x.ray_from(a) == ref_ray_from(x, a)


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_windows_and_rays_read_from_a_bilasso(name, request):
    p = request.getfixturevalue(name)
    for x, y in tower_pairs(p, random.Random(name), 10):
        for z in (x, y, BiLasso(x.past, x.core, x.future, -7), BiLasso(y.past, y.core, y.future, 5)):
            check_windows(z)


def test_windows_of_a_bilasso_with_an_empty_core(full3):
    x = BiLasso.make(full3.g, ["a", "c"], [], ["b", "a", "a"])
    check_windows(x)
    assert x.window(-3, 4) == ("a", "c", "a", "c", "b", "a", "a", "b")
    assert x.window(3, 2) == ()


# -- towers -----------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_towers_match_the_references(name, request):
    p = request.getfixturevalue(name)
    pairs = tower_pairs(p, random.Random(name), 12)
    assert check_towers(p, pairs, (0, 3, 10)) == []


def test_a_failing_level_past_the_stop_no_longer_surfaces():
    p = spare_return_pair()
    g = p.g
    # level 3 has no approximant at ray depth 2, but levels 0-2 give a lower
    # end of 17/32, at least the bound (3 + 3/4) / 8 of level 3
    x = parse_bilasso(g, "c0,c1;y1a,y0b,y1b,y0s,y0a,y1b,c0,c1,y1a;y0b")
    y = parse_bilasso(g, "y1b;y1a,y0b,y1b,y0s,y0a,y1b,c0,c1,y1a;y0s")
    tx, ty = pi_xi_tower(p, x, 6), pi_xi_tower(p, y, 6)
    with pytest.raises(RayError, match="stratum 3 unreachable"):
        ref_tower_distance(p, tx, ty, None, 2)
    assert tower_distance(p, tx, ty, None, 2) == MetricInterval(Fraction(17, 32), Fraction(41, 32))
    assert compare_distances(p, tx, ty, [None], [2]) == [(None, 2)]
    # level 8 fails at the default ray depth, and the lower end stays small
    # enough that it is read: the same error
    x = parse_bilasso(g, "y0s;y0a,y0b,y1a,y1a,y0s,c0;c1,y0b,c0")
    y = parse_bilasso(g, "y0s;y0a,y0b,y1a,y1a,y0s,c0,c1,y0b;y0s")
    tx, ty = pi_xi_tower(p, x, 8), pi_xi_tower(p, y, 8)
    for fn in (tower_distance, ref_tower_distance):
        with pytest.raises(RayError, match="stratum 12 unreachable"):
            fn(p, tx, ty)


def test_only_skipped_levels_differ_on_a_seed_with_unreachable_strata():
    p = spare_return_pair()
    skipped = []
    for seed in range(3):
        skipped += check_towers(p, tower_pairs(p, random.Random(seed), 6), (3, 6))
    assert skipped


def test_tower_distance_rejects_a_negative_depth(full3):
    t = pi_xi_tower(full3, BiLasso.make(full3.g, ["a"], ["c"], ["b"]), 4)
    for depth in (-1, -5):
        with pytest.raises(SmaleError, match=f"depth must be at least 0, got {depth}"):
            tower_distance(full3, t, t, depth)
    assert tower_distance(full3, t, t, 0) == MetricInterval(Fraction(0), Fraction(3))


def test_a_tower_is_at_distance_zero_from_itself(twovertex):
    # the lower end stays 0, so the stop never applies
    for x, _ in tower_pairs(twovertex, random.Random(3), 4):
        t = pi_xi_tower(twovertex, x, 6)
        assert tower_distance(twovertex, t, t) == ref_tower_distance(twovertex, t, t)
        assert tower_distance(twovertex, t, t) == MetricInterval(Fraction(0), Fraction(3, 64))


@settings(max_examples=30, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_towers_and_reads_match_on_drawn_seeds(p, rng_seed):
    rng = random.Random(rng_seed)
    pairs = tower_pairs(p, rng, 3)
    check_towers(p, pairs, (0, 5))
    for x, y in pairs:
        check_windows(x)
    check_rays(p, ray_pairs(p, rng, 6))


# -- carry partners ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_the_partner_handed_on_is_the_flip_of_the_rep(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    rays_ = draw_rays(p, rng, 40)
    for x, y in tower_pairs(p, rng, 10):  # carry partners among them
        rays_ += [z.ray_from(n) for z in (x, y) for n in range(-2, 3)]
    flipped = 0
    for x in rays_:
        other = flip(p, x)
        if other is not None:
            assert flip(p, other) == x
            flipped += 1
        point = canonical(p, x)
        assert point.partner == flip(p, point.rep)
    assert flipped > 5
