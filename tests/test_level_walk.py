"""The one level walk against the loops it replaced, the d_extended
interval oracle, and ray literals fuzzed through the CLI.

The references below are copies of the earlier implementations: `level`
by one scan of the prefix and one cycle lap, the level chain and the
layer metric by shifting the ray past each spare edge and scanning again,
and the digit series by one Fraction per prefix position.  The walk must
give exactly the same values.
"""

import contextlib
import io
import math
import random
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundle_path, random_lasso
from test_seed_walks import seeds
from shiftquot.cli import load_bundle, main
from shiftquot.embedding import epsilon
from shiftquot.graphs import paths_of_length
from shiftquot.geometry import _discrete_invariant, _spec_from_levels, zeta_exact_terms
from shiftquot.metrics import _lambda_hat, d_extended, tau_ray
from shiftquot.rays import (
    Angle,
    LassoRay,
    RayError,
    digit_series,
    kappa,
    level,
    levels,
    parse_ray,
    shift_by,
)

BUNDLES = ("full2", "full3", "twovertex")


def ref_digit_series(p, x):
    if kappa(p, x) != 0:
        raise RayError("digit series needs kappa = 0")
    total = Fraction(0)
    for i, e in enumerate(x.prefix, start=1):
        total += Fraction(epsilon(p, e), 2**i)
    m = len(x.prefix)
    L = len(x.cycle)
    cyc_int = 0
    for e in x.cycle:
        cyc_int = (cyc_int << 1) | epsilon(p, e)
    total += Fraction(cyc_int, 2**m * (2**L - 1))
    return total


def ref_level(p, x):
    digits = 0
    for n, e in enumerate(chain(x.prefix, x.cycle), start=1):
        if not p.in_image(e):
            return n, Fraction(digits, 2 ** (n - 1))
        digits = digits << 1 | epsilon(p, e)
    return math.inf, ref_digit_series(p, x)


def ref_level_chain(p, x):
    chain_ = []
    n, t = ref_level(p, x)
    while n != math.inf:
        chain_.append((int(n), Angle.of(t)))
        x = shift_by(x, int(n))
        n, t = ref_level(p, x)
    return chain_, Angle.of(t)


def ref_lambda_hat(p, x, y):
    exponent = 0
    while True:
        nx, tx = ref_level(p, x)
        ny, ty = ref_level(p, y)
        ax, ay = Angle.of(tx), Angle.of(ty)
        if nx != ny or ax != ay or nx == math.inf:
            break
        exponent += 2 + int(nx)
        x, y = shift_by(x, int(nx)), shift_by(y, int(ny))
    wx = Fraction(0) if nx == math.inf else Fraction(1, 2 ** int(nx))
    wy = Fraction(0) if ny == math.inf else Fraction(1, 2 ** int(ny))
    return (abs(wx - wy) + ax.distance(ay)) / 2**exponent


def ref_zeta_exact_terms(p, x):
    chain_, tail = ref_level_chain(p, x)
    spec = _spec_from_levels((), chain_)
    return [*spec.center_terms, (spec.radius, tail)]


def ref_discrete_invariant(p, x):
    chain_, tail = ref_level_chain(p, x)
    return (tau_ray(p, x), tuple((n, a.turns) for n, a in chain_), tail.turns)


def walk_lasso(g, rng):
    """A random walk of up to 8 edges, closed by a random cycle of length at
    most 3 from where it ends; None when no such cycle exists."""
    at = rng.choice(g.vertices)
    prefix = []
    for _ in range(rng.randint(0, 8)):
        e = rng.choice(g.out_edges(at))
        prefix.append(e)
        at = g.target(e)
    cycles = [w for L in (1, 2, 3) for w in paths_of_length(g, L, src=at, dst=at)]
    return LassoRay.make(g, prefix, rng.choice(cycles)) if cycles else None


def draw_rays(p, rng, count):
    """Lassos with finitely and infinitely many spare edges; on one-vertex
    seeds also pairs of finite rays that share every level but the tail."""
    g = p.g
    one_vertex = len(g.vertices) == 1
    out = []
    for _ in range(count):
        if one_vertex:
            out.append(random_lasso(p, rng, finite=rng.random() < 0.6))
        else:
            x = walk_lasso(g, rng)
            if x is not None:
                out.append(x)
    image = sorted(p.xi_image)
    if one_vertex and image:
        for x in list(out):
            if kappa(p, x) == math.inf:
                continue
            spare_at = [i for i, e in enumerate(x.prefix) if not p.in_image(e)]
            head = x.prefix[: spare_at[-1] + 1] if spare_at else ()
            tail = [rng.choice(image) for _ in range(rng.randint(0, 3))]
            cyc = [rng.choice(image) for _ in range(rng.randint(1, 2))]
            out.append(LassoRay.make(g, head + tuple(tail), cyc))
            # the same levels ending in the all-ones tail (series value 1)
            out.append(LassoRay.make(g, head, [p.xi1_edges[p.h.edges[0]]]))
    return out


def assert_walk_matches(p, rays_):
    for x in rays_:
        assert level(p, x) == ref_level(p, x)
        if kappa(p, x) == math.inf:
            with pytest.raises(RayError):
                digit_series(p, x)
            continue
        if kappa(p, x) == 0:
            assert digit_series(p, x) == ref_digit_series(p, x)
        else:
            with pytest.raises(RayError):
                digit_series(p, x)
        *chain_, (n, tail) = levels(p, x)
        ref_chain, ref_tail = ref_level_chain(p, x)
        assert n == math.inf and Angle.of(tail) == ref_tail
        assert [(g, Angle.of(t)) for g, t in chain_] == ref_chain
        assert zeta_exact_terms(p, x) == ref_zeta_exact_terms(p, x)
        # the walk keys each level by its digit-sum numerator over 2^(gap - 1)
        image, chain_keys, tail_turns = _discrete_invariant(p, x)
        chain_values = tuple((g, Fraction(k, 2 ** (g - 1))) for g, k in chain_keys)
        assert (image, chain_values, tail_turns) == ref_discrete_invariant(p, x)
    finite = [x for x in rays_ if kappa(p, x) != math.inf]
    for x in finite:
        for y in finite:
            assert _lambda_hat(p, x, y) == ref_lambda_hat(p, x, y)


@pytest.mark.parametrize("name", BUNDLES)
def test_level_walk_matches_the_shift_loops_on_the_bundles(name):
    p = load_bundle(bundle_path(f"{name}.bundle")).pair()
    assert_walk_matches(p, draw_rays(p, random.Random(name), 40))


def test_level_walk_on_tails_that_differ_only_at_the_end(full3):
    texts = ["c,a,c;b", "c,a,c;a", "c,a,c,b;a", "c,a,c,a;b", ";b", ";a", "c;b", "a,b;a,b"]
    rays_ = [parse_ray(full3.g, t) for t in texts]
    assert_walk_matches(full3, rays_)
    # 0.0111... = 0.1000...: the tails differ, the angles do not
    x, y = rays_[2], rays_[3]
    assert _lambda_hat(full3, x, y) == 0
    assert list(levels(full3, rays_[4])) == [(math.inf, 1)]


@settings(max_examples=40, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_level_walk_matches_the_shift_loops_on_drawn_seeds(p, rng_seed):
    assert_walk_matches(p, draw_rays(p, random.Random(rng_seed), 12))


def test_levels_of_a_ray_with_infinitely_many_spare_edges(full3):
    x = parse_ray(full3.g, "b;a,c")
    assert list(islice(levels(full3, x), 5)) == [(3, Fraction(1, 2))] + [(2, 0)] * 4


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
    name = draw(st.sampled_from(BUNDLES))
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
