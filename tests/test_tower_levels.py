"""The tower path against the code it replaced.

The references below are copies of the earlier implementations:
`LassoRay.head`, `first_difference` and `BiLasso.window` reading one
edge per position, `ray_from` through that window, `lift_preimage`
scoring every candidate with exact fractions, `tower_distance` reading
every level 0..M, and `bracket` flipping each lift's representative again
although `canonical` had just flipped it.  The new code must give the same
values, towers, lassos and error messages.

One difference is allowed: `tower_distance` stops at the first level whose
bound (3 + 3 * 2^-ray_depth) * 2^-n is at most the lower end read so far,
so an error only a later level would raise no longer surfaces.  Such cases
are checked to be exactly that.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ref_edge_at
from test_bracket_path import (
    RAY_DEPTHS,
    bilasso_pairs,
    closed_walk,
    end_of,
    h0_failing_pair,
    outcome,
    spare_return_pair,
    walk,
)
from test_level_walk import draw_rays
from test_seed_walks import seeds
from shiftquot.embedding import epsilon
from shiftquot.metrics import MetricInterval, tau_ray
from shiftquot.rays import (
    Angle,
    ClassPoint,
    LassoRay,
    RayError,
    _lasso_fault,
    canonical,
    first_difference,
    flip,
    kappa,
    level,
    levels,
    lift_preimage,
    normal_form,
    stratum_approximant,
)
from shiftquot.smale import (
    BiLasso,
    SmaleError,
    Tower,
    bracket,
    parse_bilasso,
    pi_xi_tower,
    tower_distance,
)

# -- references ---------------------------------------------------------------


def ref_head(x, n):
    return tuple(x.edge_at(i) for i in range(1, n + 1))


def ref_first_difference(x, y):
    if x == y:
        return None
    bound = max(len(x.prefix), len(y.prefix)) + math.lcm(len(x.cycle), len(y.cycle)) + 1
    for n in range(1, bound + 1):
        if x.edge_at(n) != y.edge_at(n):
            return n
    return None


def ref_window(x, a, b):
    return tuple(ref_edge_at(x, n) for n in range(a, b + 1))


def ref_ray_from(x, n):
    first_future = x.origin + len(x.core)
    if n >= first_future:
        k = (n - first_future) % len(x.future)
        return normal_form((), x.future[k:] + x.future[:k])
    return normal_form(ref_window(x, n, first_future - 1), x.future)


def ref_canonical(p, x):
    other = flip(p, x)
    n = None if other is None else ref_first_difference(x, other)
    if n is None or p.g.edge_index[x.edge_at(n)] < p.g.edge_index[other.edge_at(n)]:
        return ClassPoint(x, other)
    return ClassPoint(other, x)


def ref_pi_xi_tower(p, x, depth):
    return Tower(tuple(ref_canonical(p, ref_ray_from(x, 1 - n)) for n in range(depth + 1)))


def ref_lambda_hat(p, x, y):
    exponent = 0
    for (nx, tx), (ny, ty) in zip(levels(p, x), levels(p, y)):
        if nx != ny or tx != ty or nx == math.inf:
            break
        exponent += 2 + nx
    wx = Fraction(0) if nx == math.inf else Fraction(1, 2**nx)
    wy = Fraction(0) if ny == math.inf else Fraction(1, 2**ny)
    return (abs(wx - wy) + Angle.of(tx).distance(Angle.of(ty))) / 2**exponent


def ref_d_finite(p, x, y):
    if x == y:
        return Fraction(0)
    n = ref_first_difference(tau_ray(p, x), tau_ray(p, y))
    shift_part = Fraction(0) if n is None else Fraction(1, 2 ** (n - 1))
    return shift_part + ref_lambda_hat(p, x, y)


def ref_d_extended(p, x, y, depth=12):
    kx, ky = kappa(p, x), kappa(p, y)
    if kx != math.inf and ky != math.inf:
        return MetricInterval.point(ref_d_finite(p, x, y))
    inner = depth + 1
    jx = sum(1 for e in ref_head(x, inner) if not p.in_image(e))
    jy = sum(1 for e in ref_head(y, inner) if not p.in_image(e))
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
    g = p.g
    scored = [(rep, level(p, rep), _lasso_fault(g, rep.prefix + rep.cycle, len(rep.prefix)))
              for rep in reps]
    best = None
    for pref_idx, (e, (rep, (n, t), rep_fault)) in enumerate(
        (e, r) for e in firsts for r in scored
    ):
        if rep_fault is not None:
            raise RayError(_lasso_fault(g, (e,) + rep.prefix + rep.cycle, 1 + len(rep.prefix)))
        head = rep.edge_at(1)
        if g.target(e) != g.source(head):
            raise RayError(f"edges {e!r},{head!r} are not composable")
        if p.in_image(e):
            nz, az = n + 1, Angle.of((epsilon(p, e) + t) / 2)
        else:
            nz, az = 1, Angle.of(0)
        matched = 0 if (nz == target_n and az == target_angle) else 1
        score = (matched, az.distance(target_angle), pref_idx)
        if best is None or score < best[0]:
            best = (score, e, rep)
    _, e, rep = best
    return LassoRay.make(g, (e,) + rep.prefix, rep.cycle)


def ref_bracket(p, x, y, ray_depth=16):
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    reach = 3 + 3 * Fraction(2) ** -ray_depth
    hi = Fraction(3, 2**x.depth)
    for n in range(x.depth + 1):
        if reach / 2**n <= Fraction(1, 2):
            break
        hi = max(hi, ref_d_extended(p, x.level(n).rep, y.level(n).rep, ray_depth).hi / 2**n)
    if hi > Fraction(1, 2):
        raise SmaleError(f"bracket undefined: tower distance {hi} > 1/2")
    levels_ = [x.level(0)]
    for n in range(1, x.depth + 1):
        z = ref_lift_preimage(p, levels_[-1].rep, y.level(n).rep)
        levels_.append(ref_canonical(p, z))
    return Tower(tuple(levels_))


# -- inputs ---------------------------------------------------------------------


def tower_pairs(p, rng, count):
    """bilasso_pairs (independent, short shared cores, carry partners) and
    as many pairs that share a core of 8 to 20 edges, with the same or
    another past and another future."""
    g = p.g
    out = bilasso_pairs(p, rng, count)
    for _ in range(50 * count):
        if len(out) >= 2 * count:
            break
        v = rng.choice(g.vertices)
        past = closed_walk(g, rng, v)
        core = walk(g, rng, v, rng.randint(8, 20))
        end = end_of(g, v, core)
        past2 = past if rng.random() < 0.5 else closed_walk(g, rng, v)
        futures = closed_walk(g, rng, end), closed_walk(g, rng, end)
        if None in (past, past2) + futures:
            continue
        out.append((BiLasso.make(g, past, core, futures[0]), BiLasso.make(g, past2, core, futures[1])))
    return out


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
    """Towers, their distances at several depths and their brackets at
    every ray depth against the references; returns the skipped cases of
    compare_distances."""
    skipped = []
    for x, y in pairs:
        for td in tower_depths:
            tx, ty = pi_xi_tower(p, x, td), pi_xi_tower(p, y, td)
            assert tx == ref_pi_xi_tower(p, x, td) and ty == ref_pi_xi_tower(p, y, td)
            skipped += compare_distances(p, tx, ty, depths_for(td))
            for rd in RAY_DEPTHS:
                assert outcome(bracket, p, tx, ty, rd) == outcome(ref_bracket, p, tx, ty, rd)
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


# -- carry partners and lifts ---------------------------------------------------------


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
        assert point == ref_canonical(p, x)
        assert point.partner == flip(p, point.rep)
    assert flipped > 5


def compare_lifts(p, rays_, rng, count=300):
    """Lifts of rays and of their class points against the reference."""
    g = p.g
    pool = rays_ + [o for o in (flip(p, x) for x in rays_) if o is not None]
    pairs = [(x, y) for x in pool for y in pool if g.target(y.edge_at(1)) == g.source(x.edge_at(1))]
    for x, y in rng.sample(pairs, min(count, len(pairs))):
        assert outcome(lift_preimage, p, x, y) == outcome(ref_lift_preimage, p, x, y)
        point = canonical(p, x)
        assert outcome(lift_preimage, p, point, y) == outcome(lift_preimage, p, point.rep, y)
    return len(pairs)


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_lifts_match_the_reference(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    rays_ = [canonical(p, x).rep for x in draw_rays(p, rng, 25)] + draw_rays(p, rng, 10)
    assert compare_lifts(p, rays_, rng) > 100


def test_lifts_match_the_reference_when_h0_fails():
    p = h0_failing_pair()
    g = p.g
    rays_ = [LassoRay.make(g, pre, cyc) for pre, cyc in [
        ([], ["a"]), ([], ["b"]), (["s"], ["a"]), (["c"], ["b"]), (["s", "c"], ["b"]),
        (["a", "c"], ["d", "c"]), (["d"], ["a"]), (["c", "d"], ["s"]), ([], ["c", "d"]),
    ]]
    assert compare_lifts(p, rays_, random.Random(0)) > 20
    kinds = {outcome(lift_preimage, p, x, y)[0] for x in rays_ for y in rays_
             if g.target(y.edge_at(1)) == g.source(x.edge_at(1))}
    assert kinds == {"ok", "RayError"}


@settings(max_examples=30, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_lifts_match_the_reference_on_drawn_seeds(p, rng_seed):
    rng = random.Random(rng_seed)
    compare_lifts(p, draw_rays(p, rng, 10), rng, 60)
