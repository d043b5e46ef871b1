import random
from fractions import Fraction

import pytest

from conftest import random_lasso, ray
from shiftquot.metrics import (
    MetricInterval,
    circle_distance,
    d_class,
    d_extended,
    d_quotient_graph,
    d_shift,
    d_stratum,
    tau_ray,
)
from shiftquot.rays import (
    Angle,
    LassoRay,
    RayError,
    canonical,
    class_equal,
    first_difference,
    flip,
    kappa,
    lift_preimage,
    shift,
    theta,
)


def test_d_shift(full3):
    a = ray(full3, "a,b,c,a,b;a")
    b = ray(full3, "a,b,c,a,b,c;a")
    assert d_shift(a, a) == 0
    assert d_shift(a, b) == Fraction(1, 2**5)
    assert d_shift(ray(full3, ";a"), ray(full3, ";b")) == 1
    # equal as infinite paths despite different spellings
    assert d_shift(LassoRay(("a",), ("b", "a")), LassoRay((), ("a", "b"))) == 0


def test_the_scan_reads_one_common_period_past_the_longer_prefix(full3):
    """Each pair first differs at max(len(prefix)) + lcm(len(cycle)), the
    last position the scan reads; tau(a) = tau(b), so ;a and ;b have
    equal quotient images."""
    p = full3
    for s, t, n in [(";a", ";a,b", 2), ("c;a", "c;a,b", 3), (";a", ";b", 1)]:
        assert first_difference(ray(p, s), ray(p, t)) == n
    assert d_shift(ray(p, ";a"), ray(p, ";a,b")) == Fraction(1, 2)
    assert d_quotient_graph(p, ray(p, ";a"), ray(p, ";a,c")) == Fraction(1, 2)
    assert d_quotient_graph(p, ray(p, ";a"), ray(p, ";b")) == 0


@pytest.mark.parametrize(
    "s,t,expected",
    [
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(1, 4), Fraction(0)),
        (Fraction(7, 8), Fraction(1, 8), Fraction(1, 4)),
    ],
)
def test_circle_distance(s, t, expected):
    assert circle_distance(Angle(s), Angle(t)) == expected


def test_d_stratum_examples(full3):
    p = full3
    assert d_stratum(p, ray(p, "c;a"), ray(p, "c,b;a")) == Fraction(1, 16)
    assert d_stratum(p, ray(p, "c;a"), ray(p, "a,c;a")) == 1 + Fraction(1, 4)


def test_lambda0_full2(full2):
    assert d_stratum(full2, ray(full2, ";a"), ray(full2, "b;a")) == Fraction(1, 2)


def test_d_stratum_preconditions(full3):
    with pytest.raises(RayError):
        d_stratum(full3, ray(full3, "c;a"), ray(full3, ";a"))
    with pytest.raises(RayError):
        d_stratum(full3, ray(full3, ";c"), ray(full3, ";c"))


def test_d_extended_examples(full3):
    p = full3
    assert d_extended(p, ray(p, ";a"), ray(p, ";b")) == MetricInterval.point(Fraction(0))
    assert d_extended(p, ray(p, "c;a"), ray(p, "c,b;a")) == MetricInterval.point(
        Fraction(1, 16)
    )
    iv = d_extended(p, ray(p, ";c"), ray(p, "a;c"), depth=10)
    assert iv.hi - iv.lo <= Fraction(6, 2**10)  # the stated width contract


def test_d_extended_mixed_strata_matches_limit(full3):
    # kappa 0 vs kappa 1: compare the closed form against deep approximants
    p = full3
    x, y = ray(p, ";a"), ray(p, "c;a")
    exact = d_extended(p, x, y).lo
    from shiftquot.rays import stratum_approximant

    for depth in (8, 12, 16):
        xa = stratum_approximant(p, x, depth, 1)
        approx = d_stratum(p, xa, y)
        assert abs(approx - exact) <= Fraction(3, 2**depth)


def test_mixed_strata_closed_form_randomized(full3):
    # the closed form must agree with common-stratum approximants within
    # 6 * 2^-depth for arbitrary (possibly different) finite spare counts
    import math

    from shiftquot.rays import stratum_approximant

    rng = random.Random(29)
    trials = 0
    while trials < 250:
        x, y = random_lasso(full3, rng), random_lasso(full3, rng)
        kx, ky = kappa(full3, x), kappa(full3, y)
        if math.inf in (kx, ky):
            continue
        trials += 1
        exact = d_extended(full3, x, y).lo
        depth = 12
        K = max(
            kx, ky,
            sum(1 for i in range(1, depth + 1) if not full3.in_image(x.edge_at(i))),
            sum(1 for i in range(1, depth + 1) if not full3.in_image(y.edge_at(i))),
        )
        xa = stratum_approximant(full3, x, depth, K)
        ya = stratum_approximant(full3, y, depth, K)
        assert abs(d_stratum(full3, xa, ya) - exact) <= Fraction(6, 2**depth)


def test_mixed_strata_axioms(full3):
    import math

    rng = random.Random(30)
    trials = 0
    while trials < 250:
        x, y, z = (random_lasso(full3, rng) for _ in range(3))
        if any(kappa(full3, w) == math.inf for w in (x, y, z)):
            continue
        trials += 1
        dxy = d_extended(full3, x, y).lo
        assert dxy == d_extended(full3, y, x).lo
        assert dxy <= d_extended(full3, x, z).lo + d_extended(full3, z, y).lo
        if kappa(full3, x) != kappa(full3, y):
            assert dxy > 0  # quotient images force equal strata at distance 0


def test_d_class(full3):
    p = full3
    cx = canonical(p, ray(p, "c;a"))
    assert d_class(p, cx, cx) == MetricInterval.point(Fraction(0))
    cy = canonical(p, ray(p, "c,b;a"))
    assert d_class(p, cx, cy) == MetricInterval.point(Fraction(1, 16))


def test_d_class_representative_independent(full3):
    p = full3
    rng = random.Random(21)
    for _ in range(100):
        x = random_lasso(p, rng)
        y = random_lasso(p, rng)
        fx, fy = flip(p, x), flip(p, y)
        base = d_extended(p, x, y)
        for xr in [x] + ([fx] if fx else []):
            for yr in [y] + ([fy] if fy else []):
                assert d_extended(p, xr, yr) == base


def test_metric_dominates_quotient_image(full3):
    rng = random.Random(22)
    for _ in range(200):
        x, y = random_lasso(full3, rng), random_lasso(full3, rng)
        assert d_quotient_graph(full3, x, y) <= d_extended(full3, x, y).hi + Fraction(
            6, 2**12
        )


def test_bounds_on_common_stratum(full3):
    rng = random.Random(23)
    checked = 0
    while checked < 300:
        x, y = random_lasso(full3, rng), random_lasso(full3, rng)
        if kappa(full3, x) != kappa(full3, y):
            continue
        checked += 1
        d = d_stratum(full3, x, y)
        dg = d_shift(x, y)
        assert d_quotient_graph(full3, x, y) <= d <= 3 * dg
        lam = d - d_quotient_graph(full3, x, y)
        assert lam <= 2 * dg
        assert circle_distance(theta(full3, x), theta(full3, y)) <= dg


def test_separation(full3):
    rng = random.Random(24)
    for _ in range(300):
        x, y = random_lasso(full3, rng), random_lasso(full3, rng)
        if kappa(full3, x) != kappa(full3, y):
            continue
        assert (d_stratum(full3, x, y) == 0) == class_equal(full3, x, y)


def test_triangle_inequality_samples(full3):
    rng = random.Random(25)
    count = 0
    while count < 300:
        x, y, z = (random_lasso(full3, rng) for _ in range(3))
        if len({kappa(full3, x), kappa(full3, y), kappa(full3, z)}) != 1:
            continue
        count += 1
        dxy = d_stratum(full3, x, y)
        assert dxy <= d_stratum(full3, x, z) + d_stratum(full3, z, y)
        assert dxy == d_stratum(full3, y, x)


def test_expansiveness_witness(full3):
    p = full3
    x, y = ray(p, "c;a"), ray(p, "c,b;a")
    d = d_stratum(p, x, y)
    dsh = d_stratum(p, shift(x), shift(y))
    assert d == Fraction(1, 16) and dsh == Fraction(1, 2)
    assert dsh == 8 * d  # the extreme ratio


def test_expansiveness_range(full3):
    rng = random.Random(26)
    count = 0
    while count < 400:
        x, y = random_lasso(full3, rng), random_lasso(full3, rng)
        if kappa(full3, x) != kappa(full3, y):
            continue
        d = d_stratum(full3, x, y)
        if d > Fraction(1, 4) or d == 0:
            continue
        count += 1
        dsh = d_stratum(full3, shift(x), shift(y))
        assert 2 * d <= dsh <= 8 * d


def test_contraction_needs_two_common_edges(full3):
    """The one-edge contraction claim fails on a binary-carry pair; with two
    common leading edges it holds.  (See the decisions ledger.)"""
    p = full3
    x, y = ray(p, ";a"), ray(p, "a;b")
    assert x.edge_at(1) == y.edge_at(1)
    assert d_stratum(p, shift(x), shift(y)) == 0
    assert d_stratum(p, x, y) == Fraction(1, 2)  # violates the one-edge claim

    rng = random.Random(27)
    count = 0
    while count < 300:
        xx, yy = random_lasso(p, rng), random_lasso(p, rng)
        if kappa(p, xx) != kappa(p, yy):
            continue
        if xx.edge_at(1) != yy.edge_at(1) or xx.edge_at(2) != yy.edge_at(2):
            continue
        dsh = d_stratum(p, shift(xx), shift(yy))
        if dsh > Fraction(1, 2):
            continue
        count += 1
        assert d_stratum(p, xx, yy) <= dsh / 2


def test_lift_contract_samples(full3):
    p = full3
    rng = random.Random(28)
    count = 0
    while count < 400:
        x, y = random_lasso(p, rng), random_lasso(p, rng)
        if kappa(p, x) != kappa(p, shift(y)):
            continue
        dxsy = d_stratum(p, x, shift(y))
        if dxsy > Fraction(1, 2):
            continue
        count += 1
        z = lift_preimage(p, x, y)
        assert class_equal(p, shift(z), x)
        assert d_extended(p, z, y).hi <= dxsy / 2


def test_tau_ray(full3):
    t = tau_ray(full3, ray(full3, "a,c;b"))
    assert t.prefix == ("h'", "c'") and t.cycle == ("h'",)
