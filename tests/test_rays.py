import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundle_path, random_lasso, ray
from reference import ref_digit_series
from shiftquot.cli import parse_bundle
from shiftquot.metrics import d_shift, d_stratum
from shiftquot.rays import (
    Angle,
    LassoRay,
    RayError,
    canonical,
    class_equal,
    first_nonxi,
    flip,
    format_ray,
    kappa,
    lift_preimage,
    raw_levels,
    shift,
    shift_by,
    stratum_approximant,
    theta,
)


def test_normal_form(full3):
    x = LassoRay.make(full3.g, ("c", "a", "b"), ("a", "b"))
    # the prefix suffix 'a','b' rotates into the cycle
    assert x == LassoRay(("c",), ("a", "b"))
    assert LassoRay.make(full3.g, (), ("a", "b", "a", "b")) == LassoRay((), ("a", "b"))


def test_make_rejects_bad_cycles():
    from shiftquot.graphs import Graph

    g = Graph(["u", "w"], [("f", "u", "w"), ("g", "w", "u")])
    with pytest.raises(RayError):
        LassoRay.make(g, (), ("f",))  # does not close up
    with pytest.raises(RayError):
        LassoRay.make(g, ("f",), ("f", "g"))  # prefix does not meet cycle
    assert LassoRay.make(g, (), ("f", "g")).cycle == ("f", "g")


def test_ray_literal_roundtrip(full3):
    x = ray(full3, "c,a;b")
    assert format_ray(x) == "c,a;b"
    assert ray(full3, ";a").prefix == ()


def test_kappa(full3):
    assert kappa(full3, ray(full3, "c,c;a")) == 2
    assert kappa(full3, ray(full3, ";c")) == math.inf
    assert kappa(full3, ray(full3, ";a")) == 0


def test_first_nonxi(full3):
    assert first_nonxi(full3, ray(full3, "a,c;a")) == 2
    assert first_nonxi(full3, ray(full3, "c;b")) == 1
    with pytest.raises(RayError):
        first_nonxi(full3, ray(full3, ";a"))


@pytest.mark.parametrize(
    "text,turns",
    [
        ("a,b,a,c;a", Fraction(1, 4)),
        (";b", Fraction(0)),
        (";a", Fraction(0)),
        ("a,b;a,b", Fraction(1, 3)),  # digits 0101... = 1/3
    ],
)
def test_theta(full3, text, turns):
    assert theta(full3, ray(full3, text)) == Angle(turns)


def test_theta_full2(full2):
    assert theta(full2, ray(full2, ";a,b")) == Angle(Fraction(1, 3))


def test_digit_series_boundary(full3):
    # the raw series: the all-ones tail sums to 1, not 0
    assert next(raw_levels(full3, ray(full3, ";b"))) == (math.inf, 1, 1)
    assert next(raw_levels(full3, ray(full3, ";a"))) == (math.inf, 0, 1)


def test_flip_cases(full3):
    p = full3
    assert flip(p, ray(p, "c,a;b")) == ray(p, "c,b;a")  # carry
    assert flip(p, ray(p, ";c")) is None  # no image tail
    assert flip(p, ray(p, ";a")) == ray(p, ";b")  # total swap
    assert flip(p, ray(p, "c;a")) == ray(p, "c;b")  # spare pivot, tail swap
    assert flip(p, ray(p, ";a,b")) is None  # tail not constant


def test_flip_involution_samples(full3):
    rng = random.Random(11)
    for _ in range(300):
        x = random_lasso(full3, rng)
        fx = flip(full3, x)
        if fx is not None:
            assert flip(full3, fx) == x


def test_flip_preserves_invariants(full3):
    rng = random.Random(12)
    for _ in range(200):
        x = random_lasso(full3, rng)
        fx = flip(full3, x)
        if fx is None:
            continue
        assert kappa(full3, fx) == kappa(full3, x)
        if kappa(full3, x) not in (0, math.inf):
            assert first_nonxi(full3, fx) == first_nonxi(full3, x)
        assert theta(full3, fx) == theta(full3, x)


def test_canonical(full3):
    p = full3
    assert canonical(p, ray(p, "c,b;a")) == canonical(p, ray(p, "c,a;b"))
    assert canonical(p, ray(p, ";c")).rep == ray(p, ";c")
    c = canonical(p, ray(p, "c,b;a"))
    assert canonical(p, c.rep) == c  # idempotent


def test_shift(full3):
    assert shift(ray(full3, "c,a;b")) == ray(full3, "a;b")
    assert shift(ray(full3, ";a,b")) == ray(full3, ";b,a")


def test_shift_respects_classes(full3):
    rng = random.Random(13)
    for _ in range(200):
        x = random_lasso(full3, rng)
        fx = flip(full3, x)
        if fx is not None:
            assert class_equal(full3, shift(x), shift(fx))


def test_kappa_drop_after_first_spare(full3):
    x = ray(full3, "c,c;a")
    n = first_nonxi(full3, x)
    assert kappa(full3, shift_by(x, n)) == kappa(full3, x) - 1


def test_stratum_approximant_examples(full3):
    p = full3
    out = stratum_approximant(p, ray(p, ";c"), 4, 4)
    assert out == ray(p, "c,c,c,c;a")
    assert stratum_approximant(p, ray(p, "c;a"), 8, 1) == ray(p, "c;a")
    with pytest.raises(RayError):
        stratum_approximant(p, ray(p, "c,c;a"), 4, 1)


def test_stratum_approximant_contract(full3):
    rng = random.Random(14)
    for _ in range(200):
        x = random_lasso(full3, rng, finite=rng.random() < 0.5)
        depth = rng.randint(1, 8)
        j = sum(1 for i in range(1, depth + 1) if not full3.in_image(x.edge_at(i)))
        k = j + rng.randint(0, 3)
        out = stratum_approximant(full3, x, depth, k)
        assert kappa(full3, out) == k
        assert d_shift(x, out) <= Fraction(1, 2**depth)
        assert out.head(depth) == x.head(depth)


def test_lift_preimage_examples(full3):
    p = full3
    z = lift_preimage(p, ray(p, ";a"), ray(p, "b;a"))
    assert z == ray(p, "b;a")
    assert shift(z) == ray(p, ";a")
    z = lift_preimage(p, ray(p, "b;a"), ray(p, "a;a"))
    assert z == ray(p, "a,b;a")
    assert d_stratum(p, z, ray(p, "a;a")) == Fraction(1, 4)


def test_lift_preimage_endpoint_mismatch():
    from shiftquot.embedding import EmbeddingPair
    from shiftquot.graphs import Graph

    g = Graph(
        ["u", "z"],
        [("a0", "u", "u"), ("a1", "u", "u"), ("s", "u", "u"),
         ("f", "u", "z"), ("gg", "z", "u")],
    )
    h = Graph(["w"], [("y", "w", "w")])
    p = EmbeddingPair(g, h, {"w": "u"}, {"y": "a0"}, {"w": "u"}, {"y": "a1"})
    x = LassoRay.make(g, (), ("a0",))        # starts at u
    y = LassoRay.make(g, ("f",), ("gg", "f"))  # first edge ends at z
    with pytest.raises(RayError):
        lift_preimage(p, x, y)


@st.composite
def lassos(draw):
    prefix = draw(st.lists(st.sampled_from("abc"), max_size=6))
    cycle = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=3))
    return prefix, cycle


# hypothesis does not mix with function fixtures; build the pair at module level
with open(bundle_path("full3.bundle")) as _fh:
    _FULL3 = parse_bundle(_fh.read()).pair()


@settings(max_examples=150, deadline=None)
@given(lassos())
def test_flip_involution_hyp(data):
    prefix, cycle = data
    x = LassoRay.make(_FULL3.g, prefix, cycle)
    fx = flip(_FULL3, x)
    if fx is not None:
        assert flip(_FULL3, fx) == x
        assert d_stratum(_FULL3, x, fx) == 0


@settings(max_examples=150, deadline=None)
@given(lassos())
def test_canonical_shift_commute_hyp(data):
    prefix, cycle = data
    x = LassoRay.make(_FULL3.g, prefix, cycle)
    fx = flip(_FULL3, x)
    if fx is not None:
        assert class_equal(_FULL3, shift(x), shift(fx))


@settings(max_examples=150, deadline=None)
@given(lassos(), st.integers(min_value=0, max_value=12))
def test_shift_by_is_iterated_shift_hyp(data, n):
    prefix, cycle = data
    x = LassoRay.make(_FULL3.g, prefix, cycle)
    y = x
    for _ in range(n):
        y = shift(y)
    assert shift_by(x, n) == y


def test_class_equal_is_equal_binary_value_exhaustive():
    # on full3 every all-image ray is a binary expansion; the carry
    # identification glues exactly the rays with the same value mod 1
    words = [w for k in range(5) for w in itertools.product("ab", repeat=k)]
    rays = {
        LassoRay.make(_FULL3.g, prefix, cycle)
        for prefix in words
        for cycle in words
        if 1 <= len(cycle) <= 3
    }
    assert len(rays) == 160
    values = {x: ref_digit_series(_FULL3, x) % 1 for x in rays}
    for x, y in itertools.combinations(sorted(rays, key=format_ray), 2):
        assert class_equal(_FULL3, x, y) == (values[x] == values[y]), (x, y)
