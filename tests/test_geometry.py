import cmath
import math
import random
from fractions import Fraction

from conftest import random_lasso, ray
from shiftquot.geometry import (
    circle_specs,
    circle_specs_report,
    embedding_injectivity_check,
    fiber_classify,
    render_svg,
    zeta_approx,
    zeta_exact_terms,
)
from shiftquot.metrics import d_extended
from shiftquot.rays import kappa, parse_ray, shift_by, first_nonxi, theta


def qray(p, text):
    return parse_ray(p.quotient.graph, text)


def test_zeta_constant_ray(full3):
    value, bound = zeta_approx(full3, ray(full3, ";a"))
    assert value == 1 + 0j
    assert bound < Fraction(1, 100)


def test_zeta_one_level(full3):
    value, bound = zeta_approx(full3, ray(full3, "c;a"))
    assert abs(value - 0.0625) <= float(bound)
    # exact terms: center coefficient vanishes at gap 1, tail scaled by 2^-4
    terms = zeta_exact_terms(full3, ray(full3, "c;a"))
    assert terms == [(Fraction(1, 16), theta(full3, ray(full3, ";a")))]


def test_zeta_bounded(full3):
    rng = random.Random(41)
    for _ in range(100):
        x = random_lasso(full3, rng, finite=rng.random() < 0.7)
        value, bound = zeta_approx(full3, x, depth=10)
        assert abs(value) <= 1 + float(bound)


def test_zeta_lipschitz(full3):
    rng = random.Random(42)
    count = 0
    while count < 150:
        x, y = random_lasso(full3, rng), random_lasso(full3, rng)
        count += 1
        vx, bx = zeta_approx(full3, x, depth=12)
        vy, by = zeta_approx(full3, y, depth=12)
        d = d_extended(full3, x, y, depth=12)
        assert abs(vx - vy) <= 8 * float(d.hi) + float(bx + by) + 1e-9


def test_zeta_recursion_identity(full3):
    # the identity follows the defining recursion:
    # zeta(x) - (1 - 2^(1-n)) theta(x) = 2^(-3-n) zeta(sigma^n x)
    rng = random.Random(43)
    count = 0
    while count < 150:
        x = random_lasso(full3, rng)
        if kappa(full3, x) == 0:
            continue
        count += 1
        n = first_nonxi(full3, x)
        vx, bx = zeta_approx(full3, x, depth=14)
        vs, bs = zeta_approx(full3, shift_by(x, n), depth=14)
        th = cmath.exp(2j * math.pi * float(theta(full3, x).turns))
        lhs = vx - (1 - 2.0 ** (1 - n)) * th
        rhs = 2.0 ** (-3 - n) * vs
        assert abs(lhs - rhs) <= float(bx) + float(bs) + 1e-9


def test_circle_specs_counts(full3):
    specs = circle_specs(full3, max_k=1, max_depth=4)
    by_n = {}
    for s in specs:
        if len(s.levels) == 0:
            by_n.setdefault(0, []).append(s)
        else:
            by_n.setdefault(s.levels[0][0], []).append(s)
    assert len(by_n[0]) == 1  # the unit circle
    assert [len(by_n[n]) for n in (1, 2, 3, 4)] == [1, 2, 4, 8]


def test_circle_specs_geometry(full3):
    specs = [s for s in circle_specs(full3, 1, 4) if len(s.levels) == 1]
    for s in specs:
        n = s.levels[0][0]
        assert s.radius == Fraction(1, 2 ** (3 + n))
        j = s.levels[0][1].turns * 2 ** (n - 1)
        assert j.denominator == 1
        expected = (1 - 2.0 ** (1 - n)) * cmath.exp(
            2j * math.pi * float(j) / 2.0 ** (n - 1)
        )
        assert abs(s.center_value() - expected) < 1e-9


def test_circle_spec_center_n1(full3):
    spec = [s for s in circle_specs(full3, 1, 1) if s.levels]
    assert len(spec) == 1
    assert spec[0].center_value() == 0
    assert spec[0].radius == Fraction(1, 16)


def test_circle_specs_pruning(full3):
    specs, pruned = circle_specs_report(full3, 1, 4, min_radius=Fraction(1, 33))
    # radii 1, 1/16, 1/32 x2 survive; 1/64 x4 and 1/128 x8 are pruned
    assert [s.radius for s in specs] == [
        Fraction(1), Fraction(1, 16), Fraction(1, 32), Fraction(1, 32)
    ]
    assert pruned == 4 * Fraction(1, 64) + 8 * Fraction(1, 128)


def test_fiber_classify_cases(full3):
    assert fiber_classify(full3, qray(full3, ";h'")).render() == "Circles(1)"
    assert fiber_classify(full3, qray(full3, "h',c';h'")).render() == "Circles(2)"
    assert fiber_classify(full3, qray(full3, ";c'")).render() == "Points(1)"
    assert fiber_classify(full3, qray(full3, ";c',h'")).render() == "TotallyDisconnected"
    assert fiber_classify(full3, qray(full3, "h',h';c'")).render() == "Points(4)"


def test_fiber_circle_count_without_enumerating_lifts(full3):
    # 40 doubled positions before the last spare one: 2^40 compatible lifts
    base = qray(full3, ",".join(["h'"] * 40 + ["c'"]) + ";h'")
    assert fiber_classify(full3, base).render() == f"Circles({2**40})"


def test_render_deterministic(full3):
    a = render_svg(full3, 1, 4, 0, 400.0)
    b = render_svg(full3, 1, 4, 0, 400.0)
    assert a == b
    assert a.count("<circle") == 16
    assert a.startswith('<?xml version="1.0" encoding="UTF-8"?>')


def test_render_full2_single_circle(full2):
    svg = render_svg(full2, 2, 4, 0, 100.0)
    assert svg.count("<circle") == 1


def test_injectivity_check_full3(full3):
    report = embedding_injectivity_check(full3, depth=4)
    assert report.injective
    assert report.classes > 50


def test_injectivity_flipped_pairs_not_collisions(full3):
    # classes of flipped representatives coincide, so they are not counted
    report = embedding_injectivity_check(full3, depth=3)
    assert report.injective
