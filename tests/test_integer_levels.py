"""The per-level primitives on integers against the ray-building code they
replaced.

The references below are copies of the earlier implementations:
`d_quotient_graph` building both quotient rays with `tau_ray` and
scanning them position by position, `_lambda_hat` as a chain of Fraction
operations ending in `Angle.of`, `raw_levels` asking `in_image` and
`epsilon` about every edge, `flip` asking them again on its way to the
pivot, and `canonical` running a first-difference scan between x and its
flip.  The new code must give the same values,
representatives, partners and error messages.
"""

import math
import random
from fractions import Fraction
from itertools import chain, cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from test_level_walk import draw_rays
from test_seed_walks import seeds
from shiftquot.embedding import EmbeddingError, EmbeddingPair, epsilon
from shiftquot.graphs import Graph
from shiftquot.metrics import _d_finite, _lambda_hat, d_extended, d_quotient_graph, tau_ray
from shiftquot.rays import (
    Angle,
    ClassPoint,
    LassoRay,
    canonical,
    flip,
    kappa,
    normal_form,
    parse_ray,
    raw_levels,
)

BUNDLES = ("full2", "full3", "twovertex")

# -- references ---------------------------------------------------------------


def ref_first_difference(x, y):
    if x == y:
        return None
    bound = max(len(x.prefix), len(y.prefix)) + math.lcm(len(x.cycle), len(y.cycle)) + 1
    for n in range(1, bound + 1):
        if x.edge_at(n) != y.edge_at(n):
            return n
    return None


def ref_d_quotient_graph(p, x, y):
    n = ref_first_difference(tau_ray(p, x), tau_ray(p, y))
    return Fraction(0) if n is None else Fraction(1, 2 ** (n - 1))


def ref_raw_levels(p, x):
    edges = x.prefix
    if any(not p.in_image(e) for e in x.cycle):
        edges = chain(x.prefix, cycle(x.cycle))
    gap = digits = 0
    for e in edges:
        gap += 1
        if not p.in_image(e):
            yield gap, digits, 1 << (gap - 1)
            gap = digits = 0
        else:
            digits = digits << 1 | epsilon(p, e)
    lap = 0
    for e in x.cycle:
        lap = lap << 1 | epsilon(p, e)
    period = 2 ** len(x.cycle) - 1
    yield math.inf, digits * period + lap, period << gap


def ref_stop(p, x, y):
    """The two levels where the layer comparison stops, and the exponent
    reached before them."""
    exponent = 0
    for (nx, ax, dx), (ny, ay, dy) in zip(ref_raw_levels(p, x), ref_raw_levels(p, y)):
        if nx != ny or ax != ay or nx == math.inf:
            return (nx, Fraction(ax, dx)), (ny, Fraction(ay, dy)), exponent
        exponent += 2 + nx


def ref_lambda_hat(p, x, y):
    (nx, tx), (ny, ty), exponent = ref_stop(p, x, y)
    wx = Fraction(0) if nx == math.inf else Fraction(1, 2**nx)
    wy = Fraction(0) if ny == math.inf else Fraction(1, 2**ny)
    return (abs(wx - wy) + Angle.of(tx).distance(Angle.of(ty))) / 2**exponent


def ref_flip(p, x):
    if any(not p.in_image(e) for e in x.cycle):
        return None
    digits_cycle = {epsilon(p, e) for e in x.cycle}
    if len(digits_cycle) != 1:
        return None
    i = digits_cycle.pop()
    m = len(x.prefix) + 1
    while m >= 2:
        e = x.prefix[m - 2]
        if p.in_image(e) and epsilon(p, e) == i:
            m -= 1
        else:
            break
    swap = p.partner
    if m == 1:
        return LassoRay(tuple(swap(e) for e in x.prefix), tuple(swap(e) for e in x.cycle))
    pivot = x.prefix[m - 2]
    new_prefix = list(x.prefix)
    for j in range(m - 1, len(x.prefix)):
        new_prefix[j] = swap(x.prefix[j])
    if p.in_image(pivot):
        new_prefix[m - 2] = swap(pivot)
    return normal_form(new_prefix, tuple(swap(e) for e in x.cycle))


def ref_canonical(p, x):
    other = ref_flip(p, x)
    n = None if other is None else ref_first_difference(x, other)
    if n is None or p.g.edge_index[x.edge_at(n)] < p.g.edge_index[other.edge_at(n)]:
        return ClassPoint(x, other)
    return ClassPoint(other, x)


def stop_kind(p, x, y):
    """Which levels the comparison stops at: 'finite/finite', 'finite/tail'
    or 'tail/tail'."""
    (nx, _), (ny, _), _ = ref_stop(p, x, y)
    return "/".join(sorted("tail" if n == math.inf else "finite" for n in (nx, ny)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except EmbeddingError as exc:
        return ("EmbeddingError", str(exc))


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
    has one) and with a longer spelling of itself (equal normal form)."""
    rays_ = [x for x in draw_rays(p, rng, count) if kappa(p, x) != math.inf]
    out = []
    for x in rays_:
        out.append(x)
        other = flip(p, x)
        if other is not None:
            out.append(other)
        out.append(LassoRay.make(p.g, x.prefix + x.cycle, x.cycle))
    return out


def compare_terms(p, rays_):
    """d_quotient_graph, _lambda_hat and _d_finite equal the references on
    every pair; returns the stop kinds seen."""
    kinds = set()
    for x in rays_:
        for y in rays_:
            assert d_quotient_graph(p, x, y) == ref_d_quotient_graph(p, x, y), (x, y)
            assert _lambda_hat(p, x, y) == ref_lambda_hat(p, x, y), (x, y)
            assert _d_finite(p, x, y) == (
                0 if x == y else ref_d_quotient_graph(p, x, y) + ref_lambda_hat(p, x, y)
            )
            kinds.add(stop_kind(p, x, y))
    return kinds


ALL_KINDS = {"finite/finite", "finite/tail", "tail/tail"}


@pytest.mark.parametrize("name, kinds", [
    ("full2", {"tail/tail"}),  # no spare edge: every ray is one tail
    ("full3", ALL_KINDS),
    ("twovertex", ALL_KINDS),
])
def test_metric_terms_match_the_ray_building_references(name, kinds, request):
    p = request.getfixturevalue(name)
    rays_ = finite_rays_with_partners(p, random.Random(name), 30)
    partners = [(x, flip(p, x)) for x in rays_ if flip(p, x) is not None]
    assert partners
    for x, y in partners:  # carry partners are at pseudo-distance 0
        assert d_quotient_graph(p, x, y) == _lambda_hat(p, x, y) == 0
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
    compare_terms(p, finite_rays_with_partners(p, rng, 10))
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


@pytest.mark.parametrize("name", BUNDLES)
def test_canonical_matches_the_first_difference_reference(name, request):
    p = request.getfixturevalue(name)
    rays_ = draw_rays(p, random.Random(name + "canonical"), 60)
    rays_ += [y for y in map(lambda x: flip(p, x), rays_) if y is not None]
    compare_canonical(p, rays_)


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_canonical_matches_the_reference_on_drawn_seeds(p, rng_seed):
    rays_ = draw_rays(p, random.Random(rng_seed), 15)
    compare_canonical(p, rays_ + [y for y in (flip(p, x) for x in rays_) if y is not None])


# -- a pair where H1 fails ---------------------------------------------------------


def h1_failing_pair():
    """One vertex with loops a, b, c; H's two loops embed as (h, k) -> (a, b)
    and -> (b, a), so the edge images meet and H1 fails; H0 holds."""
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
    h = Graph(["w"], [("h", "w", "w"), ("k", "w", "w")])
    vm = {"w": "v"}
    return EmbeddingPair(g, h, vm, {"h": "a", "k": "b"}, dict(vm), {"h": "b", "k": "a"})


H1_RAYS = [";a", ";c", "c;a", "c,c;b", "a;c", "c,a;c", "c;a,c", "b,c,c;a"]


def test_h1_failure_raises_the_same_errors():
    p = h1_failing_pair()
    assert not p.hypotheses.h1.passed
    rays_ = [parse_ray(p.g, t) for t in H1_RAYS]
    for x in rays_:
        assert stream_outcome(raw_levels(p, x)) == stream_outcome(ref_raw_levels(p, x))
        assert outcome(flip, p, x) == outcome(ref_flip, p, x)
        got, want = outcome(canonical, p, x), outcome(ref_canonical, p, x)
        if isinstance(want, ClassPoint):
            assert (got, got.partner) == (want, want.partner)
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
