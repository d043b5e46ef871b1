"""The per-level primitives on integers against their definitions.

`d_quotient_graph`, `lambda_hat` and `_d_finite` are compared with the
quotient rays read position by position and the layer comparison walked
by shifting; `raw_levels` with a walk that asks `in_image` and `epsilon`
about every edge; `flip` and `canonical` with a flip that asks them again
on its way to the pivot and a first-difference scan between x and its
flip (all in `reference`).  The package must give the same values,
representatives, partners and error messages, on the bundles, on drawn
seeds, on nine flips with a known pivot and on a pair where H1 fails.
"""

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BUNDLE_NAMES, H1_RAYS, draw_rays, h1_failing_pair, outcome, seeds, tower_pairs
from reference import (
    layer_stop,
    layer_term,
    ref_canonical,
    ref_d_quotient_graph,
    ref_d_shift,
    ref_first_difference,
    ref_flip,
    ref_level_chain,
    ref_raw_levels,
)
from shiftquot.embedding import EmbeddingError
from shiftquot.metrics import _d_finite, d_extended, d_quotient_graph, lambda_hat, tau_ray
from shiftquot.rays import ClassPoint, LassoRay, canonical, flip, kappa, parse_ray, raw_levels


def stop_kind(stop):
    """Which levels the layer comparison stops at: 'finite/finite',
    'finite/tail' or 'tail/tail'."""
    (nx, _), (ny, _), _ = stop
    return "/".join(sorted("tail" if n == math.inf else "finite" for n in (nx, ny)))


def stream_outcome(levels, limit=6):
    """The first `limit` levels of a stream, then the error it raised, if any."""
    out = []
    try:
        out.extend(islice(levels, limit))
    except EmbeddingError as exc:
        out.append(("EmbeddingError", str(exc)))
    return out


# -- the metric terms ---------------------------------------------------------------


def finite_rays_with_partners(p, rng, count):
    """Finite-kappa lassos drawn on p, each with its carry partner (when it
    has one) and with a longer spelling of itself, which must make the same
    ray, at distance 0."""
    rays_ = [x for x in draw_rays(p, rng, count) if kappa(p, x) != math.inf]
    out = []
    for x in rays_:
        out.append(x)
        other = flip(p, x)
        if other is not None:
            out.append(other)
        longer = LassoRay.make(p.g, x.prefix + x.cycle, x.cycle)
        assert longer == x and _d_finite(p, x, longer) == 0, x
        out.append(longer)
    return out


def compare_terms(p, rays_):
    """d_quotient_graph, lambda_hat and _d_finite (their sum) equal the
    references on every pair, each ray's quotient image and level chain
    read once; returns the stop kinds seen."""
    chains = {x: ref_level_chain(p, x) for x in rays_}
    images = {x: tau_ray(p, x) for x in rays_}
    kinds = set()
    for x in rays_:
        for y in rays_:
            stop = layer_stop(chains[x], chains[y])
            quotient, layer = ref_d_shift(images[x], images[y]), layer_term(stop)
            got = d_quotient_graph(p, x, y), lambda_hat(p, x, y), _d_finite(p, x, y)
            assert got == (quotient, layer, quotient + layer), (x, y)
            kinds.add(stop_kind(stop))
    return kinds


ALL_KINDS = {"finite/finite", "finite/tail", "tail/tail"}


@pytest.mark.parametrize("name, kinds", [
    ("full2", {"tail/tail"}),  # no spare edge: every ray is one tail
    ("full3", ALL_KINDS),
    ("twovertex", ALL_KINDS),
])
def test_metric_terms_match_the_ray_building_references(name, kinds, request):
    p = request.getfixturevalue(name)
    # the union of two draws: 30 with partners and longer spellings, and
    # the finite rays of 40 (its extra rays differ from the 30-draw's)
    rays_ = finite_rays_with_partners(p, random.Random(name), 30)
    rays_ += [x for x in draw_rays(p, random.Random(name), 40) if kappa(p, x) != math.inf]
    rays_ = list(dict.fromkeys(rays_))
    partners = [(x, flip(p, x)) for x in rays_ if flip(p, x) is not None]
    assert partners
    for x, y in partners:  # carry partners are at pseudo-distance 0
        assert d_quotient_graph(p, x, y) == lambda_hat(p, x, y) == 0
    assert compare_terms(p, rays_) == kinds


def test_metric_terms_on_tails_that_differ_only_at_the_end(full3):
    # the all-ones tail (series value 1) against the all-zeros one, and
    # tails of different cycle lengths under the same levels
    texts = ["a,c;a", "c,a,c;b", "c,a,c;a", "c,a,c,b;a", "c,a,c,a;b", ";b", ";a", "c;b", "a,b;a,b", "c;a,a,b"]
    rays_ = [parse_ray(full3.g, t) for t in texts]
    assert compare_terms(full3, rays_) == ALL_KINDS


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_metric_terms_match_the_references_on_drawn_seeds(p, rng_seed):
    rng = random.Random(rng_seed)
    compare_terms(p, finite_rays_with_partners(p, rng, 12))
    # the quotient term is defined for every pair of rays
    every = draw_rays(p, rng, 10)
    for x in every:
        for y in every:
            assert d_quotient_graph(p, x, y) == ref_d_quotient_graph(p, x, y)


# -- canonical ------------------------------------------------------------------------


@pytest.mark.parametrize("name, text, other, at", [
    # total swap: every edge in one embedding
    ("full3", ";a", ";b", 1),
    ("full3", "a,a;a", ";b", 1),
    ("twovertex", "p0,q0;r0,q0", "p1,q1;r1,q1", 1),
    # image pivot: its digit carries, at position m - 1
    ("full3", "c,b;a", "c,a;b", 2),
    ("full3", "c,a,c,a,b,b;b", "c,a,c,b;a", 4),
    ("twovertex", "p2,q1,r0;p0", "p2,q0,r1;p1", 2),
    # spare pivot: the tail after it swaps, from position m
    ("full3", "a,c;a", "a,c;b", 3),
    ("full3", "c;b", "c;a", 2),
    ("twovertex", "p0,q2,r1;p1", "p0,q2,r0;p0", 3),
])
def test_canonical_reads_the_first_difference_off_the_pivot(name, text, other, at, request):
    p = request.getfixturevalue(name)
    x, y = parse_ray(p.g, text), parse_ray(p.g, other)
    assert flip(p, x) == ref_flip(p, x) == y and flip(p, y) == ref_flip(p, y) == x
    assert ref_first_difference(x, y) == at
    for ray in (x, y):
        got, want = canonical(p, ray), ref_canonical(p, ray)
        assert (got, got.partner) == (want, want.partner)
    assert canonical(p, x) == canonical(p, y)


def compare_canonical(p, rays_):
    for x in rays_:
        assert flip(p, x) == ref_flip(p, x), x
        got, want = canonical(p, x), ref_canonical(p, x)
        assert (got.rep, got.partner) == (want.rep, want.partner), x


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_canonical_matches_the_first_difference_reference(name, request):
    p = request.getfixturevalue(name)
    rays_ = draw_rays(p, random.Random(name + "canonical"), 60)
    rng = random.Random(name)
    rays_ += draw_rays(p, rng, 40)
    for x, y in tower_pairs(p, rng, 10):  # carry partners among them
        rays_ += [z.ray_from(n) for z in (x, y) for n in range(-2, 3)]
    rays_ += [y for y in map(lambda x: flip(p, x), rays_) if y is not None]
    compare_canonical(p, rays_)


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_canonical_matches_the_reference_on_drawn_seeds(p, rng_seed):
    rays_ = draw_rays(p, random.Random(rng_seed), 15)
    compare_canonical(p, rays_ + [y for y in (flip(p, x) for x in rays_) if y is not None])


# -- a pair where H1 fails ---------------------------------------------------------


def test_h1_failure_raises_the_same_errors():
    p = h1_failing_pair()
    assert not p.hypotheses.h1.passed
    rays_ = [parse_ray(p.g, t) for t in H1_RAYS]
    for x in rays_:
        assert stream_outcome(raw_levels(p, x)) == stream_outcome(ref_raw_levels(p, x))
        assert outcome(flip, p, x) == outcome(ref_flip, p, x)
        got, want = outcome(canonical, p, x), outcome(ref_canonical, p, x)
        if want[0] == "ok":
            assert (got, got[1].partner) == (want, want[1].partner)
        else:
            assert got == want
        for y in rays_:
            if x != y and kappa(p, x) != math.inf and kappa(p, y) != math.inf:
                assert outcome(d_extended, p, x, y) == (
                    "EmbeddingError", "quotient graph needs H0 and H1")
    # each message occurs: image edges have no superscript, spare ones pass
    assert stream_outcome(raw_levels(p, rays_[0])) == [
        ("EmbeddingError", "superscript map undefined: H1 fails")]
    assert stream_outcome(raw_levels(p, rays_[2])) == [
        (1, 0, 1), ("EmbeddingError", "superscript map undefined: H1 fails")]
    assert stream_outcome(raw_levels(p, rays_[1]), 3) == [(1, 0, 1)] * 3
    assert outcome(canonical, p, rays_[0]) == ("EmbeddingError", "superscript map undefined: H1 fails")
    assert canonical(p, rays_[1]) == ClassPoint(rays_[1], None)
    assert outcome(d_extended, p, rays_[0], rays_[2]) == (
        "EmbeddingError", "quotient graph needs H0 and H1")
