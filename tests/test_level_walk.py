"""The one level walk against its definitions, the d_extended interval
oracle, and ray literals fuzzed through the CLI.

The definitions (in `reference`) are the first level by one scan of the
prefix and one cycle lap, the level chain by shifting the ray past each
spare edge and scanning again, and the digit series by one Fraction per
prefix position.  `raw_levels` must give exactly the same values.
"""

import contextlib
import io
import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BUNDLE_NAMES, bundle_path, draw_rays, random_lasso, seeds, walk_lasso
from reference import (
    ref_level,
    ref_level_chain,
    ref_zeta_exact_terms,
)
from shiftquot.cli import load_bundle, main
from shiftquot.geometry import zeta_exact_terms
from shiftquot.metrics import d_extended, lambda_hat, lambda_tail
from shiftquot.rays import (
    Angle,
    RayError,
    kappa,
    parse_ray,
    raw_levels,
)


def assert_walk_matches(p, rays_):
    for x in rays_:
        n, num, den = next(raw_levels(p, x))
        assert (n, Fraction(num, den)) == ref_level(p, x)
        if kappa(p, x) == math.inf:
            continue
        *chain_, (n, num, den) = raw_levels(p, x)
        ref_chain, ref_tail = ref_level_chain(p, x)
        assert n == math.inf and Angle.of(Fraction(num, den)) == ref_tail
        assert tuple((g, Angle(Fraction(a, d))) for g, a, d in chain_) == ref_chain
        assert zeta_exact_terms(p, x) == ref_zeta_exact_terms(p, x)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_level_walk_matches_the_shift_loops_on_the_bundles(name):
    p = load_bundle(bundle_path(f"{name}.bundle")).pair()
    assert_walk_matches(p, draw_rays(p, random.Random(name), 40))


def test_level_walk_on_tails_that_differ_only_at_the_end(full3):
    texts = ["c,a,c;b", "c,a,c;a", "c,a,c,b;a", "c,a,c,a;b", ";b", ";a", "c;b", "a,b;a,b"]
    rays_ = [parse_ray(full3.g, t) for t in texts]
    assert_walk_matches(full3, rays_)
    # 0.0111... = 0.1000...: the tails differ, the angles do not
    x, y = rays_[2], rays_[3]
    assert lambda_hat(full3, x, y) == 0
    assert list(raw_levels(full3, rays_[4])) == [(math.inf, 1, 1)]


def test_an_all_ones_tail_is_at_distance_zero_from_an_all_zeros_tail(full3):
    # the raw sums are 1 and 0, a whole turn apart: the circle distance
    # takes the shorter way round, with no reduction mod 1
    ones, zeros, half = (parse_ray(full3.g, t) for t in (";b", ";a", "b;a"))
    assert [next(raw_levels(full3, x)) for x in (ones, zeros, half)] == [
        (math.inf, 1, 1), (math.inf, 0, 1), (math.inf, 1, 2)]
    assert lambda_tail((math.inf, 1, 1), (math.inf, 0, 1), 0) == (0, 1)
    assert lambda_tail((math.inf, 0, 1), (math.inf, 1, 1), 5) == (0, 32)
    assert lambda_hat(full3, ones, zeros) == lambda_hat(full3, zeros, ones) == 0
    # after an equal level (1, 0, 1) the same tails, at weight 2^-3
    assert lambda_hat(full3, parse_ray(full3.g, "c;b"), parse_ray(full3.g, "c;a")) == 0
    # half a turn from either
    assert lambda_hat(full3, ones, half) == lambda_hat(full3, zeros, half) == Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_level_walk_matches_the_shift_loops_on_drawn_seeds(p, rng_seed):
    assert_walk_matches(p, draw_rays(p, random.Random(rng_seed), 12))


def test_levels_of_a_ray_with_infinitely_many_spare_edges(full3):
    x = parse_ray(full3.g, "b;a,c")
    assert list(islice(raw_levels(full3, x), 5)) == [(3, 2, 4)] + [(2, 0, 2)] * 4


# -- the d_extended interval oracle ---------------------------------------------


@st.composite
def infinite_pairs(draw):
    name = draw(st.sampled_from(["full3", "twovertex"]))
    p = load_bundle(bundle_path(f"{name}.bundle")).pair()
    rng = random.Random(draw(st.integers(0, 2**32)))
    rays_ = []
    while len(rays_) < 2:
        if name == "full3":
            x = random_lasso(p, rng, max_prefix=12, finite=bool(rays_) and rng.random() < 0.3)
        else:
            x = walk_lasso(p.g, rng)
        if rays_ or kappa(p, x) == math.inf:
            rays_.append(x)
    n = draw(st.integers(2, 39))
    m = draw(st.integers(n + 1, 40))
    return p, rays_[0], rays_[1], n, m


@settings(max_examples=120, deadline=None)
@given(infinite_pairs())
def test_deeper_approximants_stay_in_the_interval(case):
    """A depth-M approximant value lies within its own slack 3 * 2^-M of
    every shallower certified interval, since both enclose the true value."""
    p, x, y, n, m = case
    coarse = d_extended(p, x, y, n)
    fine = d_extended(p, x, y, m)
    slack = Fraction(3, 2**m)
    value = fine.hi - slack
    assert coarse.lo - slack <= value <= coarse.hi + slack


# -- ray literals through the CLI ------------------------------------------------


def _literal(edges):
    token = st.sampled_from(list(edges) + ["zz", "x'", "", " ", "-"])
    side = st.lists(token, max_size=5).map(",".join)
    return st.one_of(
        st.tuples(side, side).map(";".join),
        side,
        st.text(alphabet=",;' -abchpqrsz0", max_size=10),
    )


@st.composite
def cli_calls(draw):
    name = draw(st.sampled_from(BUNDLE_NAMES))
    p = load_bundle(bundle_path(f"{name}.bundle")).pair()
    command = draw(st.sampled_from(["distance", "zeta", "fibers"]))
    g = p.quotient.graph if command == "fibers" else p.g
    literals = [draw(_literal(g.edges)) for _ in range(2 if command == "distance" else 1)]
    # '--' hands literals such as '-h' to the ray parser, not to argparse
    return g, [command, bundle_path(f"{name}.bundle"), "--", *literals], literals


def _parses(g, text):
    try:
        parse_ray(g, text)
    except RayError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(cli_calls())
def test_ray_literals_exit_with_a_documented_code(call):
    g, argv, literals = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if not all(_parses(g, t) for t in literals):
        assert code == 2
        assert out.getvalue() == ""
