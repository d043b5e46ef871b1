"""Differential test of the circle enumeration: the integer walk in
circle_specs_report against a reference walk that carries every digit sum,
angle and radius as an exact Fraction and sorts by CircleSpec.sort_key."""

from fractions import Fraction

import pytest

from shiftquot.algebra import FgAbelianGroup, synthesize_seed
from shiftquot.embedding import EmbeddingPair, epsilon
from shiftquot.geometry import CircleSpec, _spec_from_levels, circle_specs_report
from shiftquot.graphs import Graph
from shiftquot.rays import Angle


def reference_specs_report(p, max_k, max_depth, min_radius=0):
    tables = p.completion
    if isinstance(min_radius, float):
        min_r = Fraction(min_radius).limit_denominator(10**12)
    else:
        min_r = Fraction(min_radius)
    has_tail = {v for v in p.g.vertices if tables[v].xi_tail is not None}
    out = []
    pruned = Fraction(0)
    base = _spec_from_levels((), [])
    if base.radius >= min_r:
        out.append(base)
    else:
        pruned += base.radius

    def walk(at, prefix, levels, gap, digits, depth):
        nonlocal pruned
        if depth >= max_depth:
            return
        for e in p.g.out_edges(at):
            prefix.append(e)
            if p.in_image(e):
                new_digits = digits + Fraction(epsilon(p, e), 2 ** (gap + 1))
                walk(p.g.target(e), prefix, levels, gap + 1, new_digits, depth + 1)
            else:
                levels.append((gap + 1, Angle.of(digits)))
                if len(levels) <= max_k and p.g.target(e) in has_tail:
                    spec = _spec_from_levels(tuple(prefix), levels)
                    if spec.radius >= min_r:
                        out.append(spec)
                    else:
                        pruned += spec.radius
                if len(levels) < max_k:
                    walk(p.g.target(e), prefix, levels, 0, Fraction(0), depth + 1)
                levels.pop()
            prefix.pop()

    for v in p.g.vertices:
        walk(v, [], [], 0, Fraction(0), 0)
    out.sort(key=CircleSpec.sort_key)
    return out, pruned


def split_pair():
    """Two image loops at u, two at z and one spare edge u -> z: no spare
    edge is reachable from z, so every walk through z is skipped."""
    g = Graph(["u", "z"], [("p0", "u", "u"), ("p1", "u", "u"), ("c", "u", "z"),
                           ("s0", "z", "z"), ("s1", "z", "z")])
    h = Graph(["a", "b"], [("la", "a", "a"), ("lb", "b", "b")])
    vm = {"a": "u", "b": "z"}
    return EmbeddingPair(g, h, vm, {"la": "p0", "lb": "s0"}, vm, {"la": "p1", "lb": "s1"})


def assert_same(p, max_k, depth):
    """The walk equals the reference at min radius 0, and at a Fraction and
    a float threshold equals the reference list split at that radius."""
    every, none_pruned = reference_specs_report(p, max_k, depth)
    assert none_pruned == 0
    assert circle_specs_report(p, max_k, depth) == (every, 0), (max_k, depth)
    for min_radius in (Fraction(1, 300), 0.001):
        min_r = Fraction(min_radius).limit_denominator(10**12)
        kept = [spec for spec in every if spec.radius >= min_r]
        pruned = sum((spec.radius for spec in every if spec.radius < min_r), Fraction(0))
        got = circle_specs_report(p, max_k, depth, min_radius)
        assert got == (kept, pruned), (max_k, depth, min_radius)


@pytest.mark.parametrize("name", ["full3", "full2", "twovertex"])
def test_walk_matches_reference_on_bundles(name, request):
    p = request.getfixturevalue(name)
    for max_k in range(4):
        for depth in range(1, 7):
            assert_same(p, max_k, depth)


def test_walk_matches_reference_where_branches_are_skipped():
    p = split_pair()
    for max_k in range(4):
        for depth in range(1, 7):
            assert_same(p, max_k, depth)
    specs, _ = circle_specs_report(p, 3, 6)
    assert len(specs) > 1 and all(spec.prefix.count("c") == 1 for spec in specs[1:])


@pytest.mark.parametrize("k0, k1", [
    (FgAbelianGroup(0, ()), FgAbelianGroup(0, ())),
    (FgAbelianGroup(0, (2,)), FgAbelianGroup(1)),
])
def test_walk_matches_reference_on_synthesized_seeds(k0, k1):
    # 17 or more out-edges per vertex: depth 3 already walks ~10^4 paths
    p = synthesize_seed(k0, k1)
    for max_k in range(4):
        for depth in range(1, 4):
            assert_same(p, max_k, depth)


def test_pruned_sum_is_exact_at_every_threshold(full3):
    # thresholds on, just above and just below the dyadic radii
    for min_radius in (Fraction(1, 16), Fraction(1, 17), Fraction(1, 15), 2, Fraction(-1), 1 / 64):
        got = circle_specs_report(full3, 2, 5, min_radius)
        assert got == reference_specs_report(full3, 2, 5, min_radius)
