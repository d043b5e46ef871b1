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

The level reader grows each level's class distance from the one before;
every level it gives, grown or read in full, must equal `d_class` on the
same two points, errors included, and a pair sharing a long core is read
in full at most once.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    H1_RAYS,
    RAY_DEPTHS,
    draw_rays,
    h0_failing_pair,
    h1_failing_pair,
    outcome,
    seeds,
    shared_core_pairs,
    spare_return_pair,
    tower_pairs,
)
from reference import (
    ref_d_extended,
    ref_first_difference,
    ref_head,
    ref_pi_xi_tower,
    ref_ray_from,
    ref_tower_distance,
    ref_window,
)
from shiftquot import smale
from shiftquot.metrics import MetricInterval, d_class
from shiftquot.rays import (
    ClassPoint,
    LassoRay,
    RayError,
    canonical,
    first_difference,
    flip,
    parse_ray,
    shift,
)
from shiftquot.smale import (
    BiLasso,
    SmaleError,
    Tower,
    _level_distances,
    bracket,
    inv_shift_tower,
    parse_bilasso,
    pi_xi_tower,
    shift_tower,
    tower_distance,
)

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
    """tower_distance on the towers cut to each depth against the reference
    at that depth; returns the cases where only the reference failed, from
    a level the early stop does not read."""
    skipped = []
    for depth in depths:
        m = tx.depth if depth is None else min(depth, tx.depth)
        cut_x, cut_y = Tower(tx.levels[:m + 1]), Tower(ty.levels[:m + 1])
        for rd in ray_depths:
            new = outcome(tower_distance, p, cut_x, cut_y, rd)
            ref = outcome(ref_tower_distance, p, tx, ty, depth, rd)
            if new == ref:
                continue
            assert new[0] == "ok" and ref[0] != "ok"
            # the stop: the first level whose bound is at most the lower end so far
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
    assert tower_distance(p, tx, ty, ray_depth=2) == MetricInterval(Fraction(17, 32), Fraction(41, 32))
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
    """tower_distance reads the whole towers; a cut tower keeps at least
    one level."""
    t = pi_xi_tower(full3, BiLasso.make(full3.g, ["a"], ["c"], ["b"]), 4)
    with pytest.raises(SmaleError, match="tower needs at least one level"):
        Tower(t.levels[:0])
    cut = Tower(t.levels[:1])
    assert tower_distance(full3, cut, cut) == MetricInterval(Fraction(0), Fraction(3))


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


# -- grown levels -------------------------------------------------------------------


def next_interval(levels):
    a, b, den = next(levels)
    return MetricInterval(Fraction(a, den), Fraction(b, den))


def check_levels(p, tx, ty, ray_depths=(0, 16)):
    """Every level the reader gives for the two towers, grown or read in
    full, against d_class on the same two points, up to and including the
    first error; returns how many levels were compared."""
    count = 0
    for rd in ray_depths:
        levels = _level_distances(p, tx, ty, rd)
        for cx, cy in zip(tx.levels, ty.levels):
            want = outcome(d_class, p, cx, cy, rd)
            assert outcome(next_interval, levels) == want
            count += 1
            if want[0] != "ok":
                break
    return count


def derived_towers(p, tx, ty):
    """The two towers, both shifted forward and back, the bracket (when it
    is defined) against either, and the two towers that swap their levels
    from the middle one on, where (unless the towers meet there) no member
    grows from a member of the level before."""
    out = [(tx, ty), (shift_tower(p, tx), shift_tower(p, ty))]
    if tx.depth:
        out.append((inv_shift_tower(tx), inv_shift_tower(ty)))
        k = (tx.depth + 1) // 2
        out.append((Tower(tx.levels[:k] + ty.levels[k:]), Tower(ty.levels[:k] + tx.levels[k:])))
    b = outcome(bracket, p, tx, ty)
    if b[0] == "ok":
        out += [(b[1], ty), (b[1], tx)]
    return out


def check_long_cores(p, pairs, depths):
    """check_levels on every derived tower pair at every depth, and the
    tower distance of the towers themselves against the reference."""
    for x, y in pairs:
        for depth in depths:
            tx, ty = pi_xi_tower(p, x, depth), pi_xi_tower(p, y, depth)
            for a, b in derived_towers(p, tx, ty):
                check_levels(p, a, b)
            compare_distances(p, tx, ty, [None], (0, 16))


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_every_level_equals_d_class_on_long_shared_cores(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    pairs = tower_pairs(p, rng, 4) + shared_core_pairs(p, rng, 4, (8, 200))
    assert max(len(x.core) for x, _ in pairs) > 100
    check_long_cores(p, pairs, (0, 3, 10, 60))


def test_every_level_equals_d_class_on_a_seed_with_unreachable_strata():
    p = spare_return_pair()
    for seed in range(3):
        check_long_cores(p, shared_core_pairs(p, random.Random(seed), 4, (8, 200)), (6, 40))


@settings(max_examples=30, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_every_level_equals_d_class_on_drawn_seeds(p, rng_seed):
    rng = random.Random(rng_seed)
    check_long_cores(p, tower_pairs(p, rng, 1) + shared_core_pairs(p, rng, 1, (8, 200)), (5, 40))


def image_future_pairs(p, rng, count):
    """Pairs of bi-lassos on a one-vertex seed whose futures lie in the
    image, so that every level has finitely many spare edges, with the
    same past or another.  Half share a core of up to 200 edges; the
    others share a short core of superscript 0 and end in a future of
    superscript 0, so that the levels read through it are total swaps,
    and one edge of superscript 1 in front makes a class whose rep grows
    from the partner."""
    g = p.g
    edges, image = list(g.edges), sorted(p.xi_image)
    zeros = [p.xi0_edges[h] for h in p.h.edges]
    out = []
    for k in range(count):
        past = [rng.choice(edges) for _ in range(rng.randint(1, 4))]
        past2 = past if rng.random() < 0.5 else [rng.choice(edges) for _ in range(rng.randint(1, 4))]
        if k % 2:
            core = [rng.choice(edges) for _ in range(rng.randint(8, 200))]
            futures = [[rng.choice(image) for _ in range(rng.randint(1, 3))] for _ in range(2)]
        else:
            core = [rng.choice(zeros) for _ in range(rng.randint(0, 5))]
            futures = [rng.choice(zeros)], [rng.choice(image) for _ in range(rng.randint(1, 3))]
        out.append((BiLasso.make(g, past, core, futures[0]), BiLasso.make(g, past2, core, futures[1])))
    return out


@pytest.mark.parametrize("name", ["full2", "full3"])
def test_every_level_equals_d_class_when_every_level_is_finite(name, request):
    p = request.getfixturevalue(name)
    pairs = image_future_pairs(p, random.Random(name), 24)
    check_long_cores(p, pairs, (12, 60))
    # the steps this exercises: a rep grown from the partner of the level
    # before, and equal spare edges in front of unequal levels
    from_partner = spare_fronts = 0
    for x, y in pairs:
        tx, ty = pi_xi_tower(p, x, 12), pi_xi_tower(p, y, 12)
        for n in range(12):
            lo, hi = tx.level(n), tx.level(n + 1)
            from_partner += lo.partner is not None and shift(hi.rep) == lo.partner
            e, f = hi.rep.edge_at(1), ty.level(n + 1).rep.edge_at(1)
            spare_fronts += e == f and not p.in_image(e) and lo != ty.level(n)
    assert from_partner >= 3
    assert spare_fronts >= 3 or name == "full2"  # full2 has no spare edge


def test_failing_hypotheses_raise_the_errors_of_d_class():
    # H0 fails: the quotient graph is undefined, on the first unequal level
    # with finitely many spare edges as on any level with infinitely many
    p = h0_failing_pair()
    kinds = Counter()
    for seed in range(4):
        for x, y in shared_core_pairs(p, random.Random(seed), 5, (8, 60)):
            for depth in (0, 12):
                tx, ty = pi_xi_tower(p, x, depth), pi_xi_tower(p, y, depth)
                for a, b in derived_towers(p, tx, ty):
                    check_levels(p, a, b)
                kinds[outcome(tower_distance, p, tx, ty)[0]] += 1
    assert kinds["EmbeddingError"] and kinds["ok"]
    # H1 fails: canonical reads no class with finitely many spare edges, so
    # such towers are built from the rays themselves
    p = h1_failing_pair()
    points = [ClassPoint(parse_ray(p.g, t), None) for t in H1_RAYS]
    compared = 0
    for i in range(len(points)):
        for j in range(len(points)):
            tx = Tower(tuple(points[i:] + points[:i]))
            ty = Tower(tuple(points[j:] + points[:j]))
            compared += check_levels(p, tx, ty)
    for x, y in shared_core_pairs(p, random.Random(1), 8, (8, 60)):
        if outcome(pi_xi_tower, p, x, 8)[0] == outcome(pi_xi_tower, p, y, 8)[0] == "ok":
            compared += check_levels(p, pi_xi_tower(p, x, 8), pi_xi_tower(p, y, 8))
    assert compared > 100


def test_a_long_shared_core_is_read_in_full_at_most_once(full3, monkeypatch):
    """O(M + L) per tower pair: on towers of depth 60 whose levels share a
    core of 200 edges, tower_distance and bracket each read one level in
    full, the first unequal one, and call d_class on none (every level has
    finitely many spare edges)."""
    counts = Counter()
    for name in ("d_class", "_full_read"):
        def counted(*args, _name=name, _inner=getattr(smale, name)):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(smale, name, counted)
    rng = random.Random(22)
    g = full3.g
    core = [rng.choice(["a", "b", "c"]) for _ in range(200)]
    pairs = [
        # another future: no level is equal, the lower end stays tiny
        (BiLasso.make(g, ["c"], core, ["a"]), BiLasso.make(g, ["c"], core, ["b", "a"])),
        # another past: level 0 is equal, every later level is not
        (BiLasso.make(g, ["c"], core, ["a"]), BiLasso.make(g, ["a", "b"], core, ["a"])),
    ]
    for x, y in pairs:
        tx, ty = pi_xi_tower(full3, x, 60), pi_xi_tower(full3, y, 60)
        for fn in (tower_distance, bracket):
            counts.clear()
            outcome(fn, full3, tx, ty)
            assert counts["_full_read"] == 1 and counts["d_class"] == 0, fn.__name__
    assert tower_distance(full3, tx, ty) == ref_tower_distance(full3, tx, ty)


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
