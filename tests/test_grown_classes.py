"""Classes grown one edge at a time against canonical.

With e.x = normal_form((e,) + x.prefix, x.cycle), `rays._prepend_class`
takes the class of e.x from the class of x, and `grow_classes` and
`lift_classes` build towers and bracket lifts that way.  Every grown class
must equal the class of the longer ray by definition, partner included,
and the grown total-swap flag must equal the flip's own; `lift_classes`
must equal the lifts of `reference` followed by their classes, level by
level, errors included.

Counting wrappers check the cost: one `_flip_at` per `pi_xi_tower` at any
depth and at most two `_lasso_fault` calls per `bracket`.  Deep towers and
brackets are compared with their definitions too.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    H1_RAYS,
    bilasso_pairs,
    draw_rays,
    h1_failing_pair,
    outcome,
    seeds,
    spare_return_pair,
    tower_pairs,
)
from reference import (
    prepended,
    ref_bracket,
    ref_canonical,
    ref_grow_classes,
    ref_lift_classes,
    ref_pi_xi_tower,
    ref_total_swap,
)
from shiftquot import rays
from shiftquot.rays import (
    LassoRay,
    _prepend_class,
    _total_swap,
    canonical,
    grow_classes,
    lift_classes,
    parse_ray,
)
from shiftquot.smale import BiLasso, SmaleError, bracket, parse_bilasso, pi_xi_tower


def pairs_of(points):
    return [(c.rep, c.partner) for c in points]


# -- one step -----------------------------------------------------------------


def check_step(p, x, e):
    """The class of e.x grown from the class of x equals canonical(e.x),
    with the flag and the member that e.x is; returns the case."""
    c = canonical(p, x)
    k = 0 if c.rep == x else 1
    total = _total_swap(p, c)
    assert total == ref_total_swap(p, x)
    ex = prepended([e], x)
    want = ref_canonical(p, ex)
    got, grown_total, j, f = _prepend_class(p, c, total, e, k)
    assert (got.rep, got.partner) == (want.rep, want.partner)
    assert grown_total == ref_total_swap(p, ex)
    assert (got.rep, got.partner)[j] == ex
    if c.partner is None:
        assert f is None
        return "no flip"
    if not total:
        return "pivot"
    return "total, spare e" if not p.in_image(e) else f"total, image e of superscript {p.superscript(e)}"


def check_steps(p, rays_):
    """Every edge that composes before each ray; returns the cases met."""
    g = p.g
    cases = set()
    for x in rays_:
        for e in g.in_edges(g.source(x.edge_at(1))):
            cases.add(check_step(p, x, e))
    return cases


def check_chains(p, rays_, rng, longest=6):
    """grow_classes against canonical on random composable leads."""
    g = p.g
    for x in rays_:
        lead, at = [], g.source(x.edge_at(1))
        for _ in range(rng.randint(0, longest)):
            into = g.in_edges(at)
            if not into:
                break
            e = rng.choice(into)
            lead.insert(0, e)
            at = g.source(e)
        assert pairs_of(grow_classes(p, x, lead)) == pairs_of(ref_grow_classes(p, x, lead))


def all_cases(p):
    cases = {"no flip", "pivot", "total, image e of superscript 0", "total, image e of superscript 1"}
    return cases | ({"total, spare e"} if set(p.g.edges) - p.xi_image else set())


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_grown_class_is_canonical_on_the_bundles(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    rays_ = draw_rays(p, rng, 40)
    assert check_steps(p, rays_) == all_cases(p)
    check_chains(p, rays_, rng)


def test_grown_class_is_canonical_on_a_seed_with_unreachable_strata():
    p = spare_return_pair()
    rng = random.Random(5)
    rays_ = draw_rays(p, rng, 40)
    assert check_steps(p, rays_) == all_cases(p)
    check_chains(p, rays_, rng)


@settings(max_examples=60, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_grown_class_is_canonical_on_drawn_seeds(p, rng_seed):
    rng = random.Random(rng_seed)
    rays_ = draw_rays(p, rng, 8)
    check_steps(p, rays_)
    check_chains(p, rays_, rng)


def test_the_forced_cases(full3, twovertex):
    # full3: a has superscript 0, b superscript 1, c is spare
    g = full3.g
    cases = {
        # total swaps, each kind of edge in front; a before ;a is the rotation
        (";a", "a"): "total, image e of superscript 0",
        (";a", "b"): "total, image e of superscript 1",
        (";a", "c"): "total, spare e",
        (";b", "a"): "total, image e of superscript 0",
        (";b", "b"): "total, image e of superscript 1",
        # a carry pivot at position 1, then a spare pivot
        ("b;a", "a"): "pivot",
        ("c;b", "b"): "pivot",
        # no flip: a cycle with a spare edge, and a cycle of mixed superscripts
        (";c", "a"): "no flip",
        ("b;a,b", "c"): "no flip",
    }
    for (text, e), case in cases.items():
        assert check_step(full3, parse_ray(g, text), e) == case, (text, e)
    assert prepended(["a"], parse_ray(g, ";a")) == parse_ray(g, ";a")
    # twovertex: a total swap with a prefix, and the rotation of a longer cycle
    g = twovertex.g
    for text, e, case in [
        ("p0;q0,r0", "p0", "total, image e of superscript 0"),
        ("p0;q0,r0", "p1", "total, image e of superscript 1"),
        ("p0;q0,r0", "p2", "total, spare e"),
        (";q1,r1", "r1", "total, image e of superscript 1"),
        (";q1,r1", "r0", "total, image e of superscript 0"),
        (";q0,r2", "r2", "no flip"),
    ]:
        assert check_step(twovertex, parse_ray(g, text), e) == case, (text, e)
    assert prepended(["r1"], parse_ray(g, ";q1,r1")) == LassoRay((), ("r1", "q1"))


def test_an_h1_failing_pair_raises_as_canonical_does():
    p = h1_failing_pair()
    assert not p.hypotheses.h1.passed
    raised = 0
    for text in H1_RAYS:
        x = parse_ray(p.g, text)
        for lead in ([], ["c"], ["a"], ["c", "b", "a"]):
            got = outcome(grow_classes, p, x, lead)
            want = outcome(ref_grow_classes, p, x, lead)
            if want[0] == "ok":
                assert got[0] == "ok" and pairs_of(got[1]) == pairs_of(want[1])
            else:
                assert got == want
                raised += 1
    assert raised


# -- lifts --------------------------------------------------------------------


def check_lifts(p, rays_, rng, steps=6):
    """lift_classes against the lifts and classes of the reference, from the
    class of each ray toward targets whose first edge composes (or, now and
    then, does not)."""
    g = p.g
    for x in rays_:
        point, targets = canonical(p, x), []
        at = g.source(point.rep.edge_at(1))
        for _ in range(steps):
            fits = [y for y in rays_ if g.target(y.edge_at(1)) == at]
            y = rng.choice(fits if fits and rng.random() < 0.9 else rays_)
            targets.append(y)
            if g.target(y.edge_at(1)) != at:
                break
            at = g.source(y.edge_at(1))
        assert outcome(lambda: pairs_of(lift_classes(p, point, targets))) == outcome(
            lambda: pairs_of(ref_lift_classes(p, point, targets))
        )


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_lifted_classes_match_lift_preimage(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    check_lifts(p, draw_rays(p, rng, 40), rng)


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_lifted_classes_match_lift_preimage_on_drawn_seeds(p, rng_seed):
    rng = random.Random(rng_seed)
    check_lifts(p, draw_rays(p, rng, 8), rng)


def test_a_lift_in_front_of_the_all_ones_tail(full3):
    # ;b sums to 1, not 0: b in front gives 1, a gives 1/2, and the target
    # b;a,c (angle 1/2 at level 2) must pick a
    g = full3.g
    point = canonical(full3, parse_ray(g, ";b"))
    targets = [parse_ray(g, t) for t in ("b;a,c", "a;b", "c,a;b")]
    assert pairs_of(lift_classes(full3, point, targets)) == pairs_of(ref_lift_classes(full3, point, targets))


# -- counts and depth ------------------------------------------------------------


def counting(monkeypatch, name):
    """Wrap rays.<name>; the list gets the name of the caller of each call."""
    calls = []
    original = getattr(rays, name)

    def wrapper(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(rays, name, wrapper)
    return calls


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_one_flip_per_tower(name, request, monkeypatch):
    p = request.getfixturevalue(name)
    xs = [x for pair in tower_pairs(p, random.Random(name), 6) for x in pair]
    calls = counting(monkeypatch, "_flip_at")
    for x in xs:
        for depth in (0, 1, 7, 60):
            before = len(calls)
            pi_xi_tower(p, x, depth)
            assert len(calls) - before == 1


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_at_most_two_lasso_checks_per_bracket(name, request, monkeypatch):
    p = request.getfixturevalue(name)
    towers = [
        (pi_xi_tower(p, x, depth), pi_xi_tower(p, y, depth))
        for x, y in bilasso_pairs(p, random.Random(name), 40)
        for depth in (0, 4, 30)
    ]
    calls = counting(monkeypatch, "_lasso_fault")
    defined = 0
    for tx, ty in towers:
        before = len(calls)
        if outcome(bracket, p, tx, ty)[0] == "ok":
            defined += 1
        # LassoRay.make checks the approximants behind d_class; the lifts
        # check only the two members of level 0
        assert len([c for c in calls[before:] if c != "make"]) <= 2
    assert defined > 10


def test_a_negative_depth_has_no_tower(full3):
    x = BiLasso.make(full3.g, ["a"], ["c"], ["b"])
    for depth in (-1, -4):
        with pytest.raises(SmaleError, match="tower needs at least one level"):
            pi_xi_tower(full3, x, depth)


DEEP_PAIRS = {
    "full3": [
        ("a,b;c,a,a,b;a", "a,b;c,a,a,b;b"),
        ("b;c,a,b,b;a", "b;c,a,b,b;c,b"),
        ("a,c;a;b", "a,c;b;a"),
        ("a;;a", "b;;b"),
    ],
    "twovertex": [
        ("p0;p1,q0,r1,q2,s0;r0,q1", "p0;p1,q0,r1,q2,s0;r1,q0"),
        ("q1,r0;p0,q1;r1,q1", "q1,r0;p0,q0;r0,q0"),
        ("p0,p1,q2,r2;;p0", "p0,p1,q2,r2;;p1"),
    ],
}


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_deep_towers_and_brackets_match_the_references(name, request):
    p = request.getfixturevalue(name)
    defined = 0
    for tx_text, ty_text in DEEP_PAIRS[name]:
        x, y = parse_bilasso(p.g, tx_text), parse_bilasso(p.g, ty_text)
        deep = pi_xi_tower(p, x, 300)
        assert pairs_of(deep.levels) == pairs_of(ref_pi_xi_tower(p, x, 300).levels)
        tx, ty = pi_xi_tower(p, x, 120), pi_xi_tower(p, y, 120)
        got, want = outcome(bracket, p, tx, ty), outcome(ref_bracket, p, tx, ty)
        if want[0] == "ok":
            assert got[0] == "ok" and pairs_of(got[1].levels) == pairs_of(want[1].levels)
            defined += 1
        else:
            assert got == want
    assert defined >= 2
