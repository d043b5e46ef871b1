"""The spare-edge index and the two path walkers against their definitions.

The definitions (in `reference`) find H2's witness and the spare twin by a
scan over every G-edge, check injectivity by a recursive prefix walk over
every (prefix, cycle) spelling with the class invariant read off the level
chain.  The package must give the same verdicts, witnesses and reports.
The injectivity walk visits only spellings in normal form and computes its
invariant once per class, from state carried down the walk, so it is also
compared class by class (the reps in the order both walks first meet
them, each with the reference's invariant).  The bundles give no
collisions, so the collision order is checked under a coarse invariant,
the quotient image alone, put into both walks.  The injectivity check
runs with the cyclic collector paused: a probe checks that it is off
inside the walk and on again after it, and a check with the collector
off must leave no cycle for gc.collect() to free.
"""

import gc
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundle_path, h0_failing_pair, h1_failing_pair, seeds
from reference import (
    ref_canonical,
    ref_discrete_invariant,
    ref_h2_witness,
    ref_injectivity,
    ref_spare_twin,
)
from shiftquot import geometry, rays
from shiftquot.cli import load_bundle, parse_bundle
from shiftquot.embedding import EmbeddingError, EmbeddingPair
from shiftquot.geometry import InjectivityReport, embedding_injectivity_check
from shiftquot.metrics import tau_ray
from shiftquot.rays import LassoRay, RayError, flip, kappa


@settings(max_examples=60, deadline=None)
@given(seeds())
def test_h2_and_spare_twin_match_the_edge_scan(p):
    for e in p.g.edges:
        assert p.spare_twin(e) == ref_spare_twin(p, e)
    bad = ref_h2_witness(p)
    assert p.hypotheses.h2.passed == (bad is None)
    assert p.hypotheses.h2.witness == (bad and f"edge {bad}")


def test_h2_verdicts_on_the_bundles(full2, full3, twovertex):
    for p in (full2, full3, twovertex):
        bad = ref_h2_witness(p)
        assert p.hypotheses.h2.witness == (bad and f"edge {bad}")
        assert all(p.spare_twin(e) == ref_spare_twin(p, e) for e in p.g.edges)


WALKS = [("full2", 4, 1), ("full2", 3, 2), ("full3", 4, 1), ("full3", 3, 2), ("twovertex", 4, 1), ("twovertex", 3, 2)]


def walked_classes(mp, p: EmbeddingPair, depth: int, tail_length: int, invariant=None):
    """The walk's (classes, collisions) and the reps of the classes it
    yields, in order; `invariant` replaces the walk's."""
    reps = []
    inner = geometry._classes

    def classes(p, depth, tail_length):
        for rep, key in inner(p, depth, tail_length):
            reps.append(rep)
            yield rep, key if invariant is None else invariant(p, rep)

    mp.setattr(geometry, "_classes", classes)
    report = embedding_injectivity_check(p, depth, tail_length)
    return (report.classes, report.collisions), reps


def first_met_normal_forms(p: EmbeddingPair, depth: int, tail_length: int) -> list[LassoRay]:
    """The recursion's lassos of finite spare count, each once, in the order
    it first builds them."""
    visited = []
    ref_injectivity(p, depth, tail_length, visited=visited)
    return list(dict.fromkeys(x for x in visited if kappa(p, x) != math.inf))


def assert_walk_matches_the_recursion(mp, p: EmbeddingPair, depth: int, tail_length: int) -> None:
    met = []
    report, reps = walked_classes(mp, p, depth, tail_length)
    assert report == ref_injectivity(p, depth, tail_length, met=met)
    assert reps == met


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_injectivity_walk_matches_the_recursion(seed, depth, tail_length, request, monkeypatch):
    assert_walk_matches_the_recursion(monkeypatch, request.getfixturevalue(seed), depth, tail_length)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_injectivity_walk_matches_the_recursion_on_drawn_seeds(p, depth, tail_length):
    with pytest.MonkeyPatch.context() as mp:
        assert_walk_matches_the_recursion(mp, p, depth, tail_length)


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_collisions_in_the_recursion_order(seed, depth, tail_length, request, monkeypatch):
    p = request.getfixturevalue(seed)
    report, _ = walked_classes(monkeypatch, p, depth, tail_length, tau_ray)
    assert report[1]
    assert report == ref_injectivity(p, depth, tail_length, tau_ray)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_collisions_in_the_recursion_order_on_drawn_seeds(p, depth, tail_length):
    with pytest.MonkeyPatch.context() as mp:
        report, _ = walked_classes(mp, p, depth, tail_length, tau_ray)
    assert report == ref_injectivity(p, depth, tail_length, tau_ray)


def reps_met_before_their_flips(p: EmbeddingPair, depth: int, tail_length: int) -> int:
    """The order lemma the walk rests on: of a lasso and its flip, the
    recursion builds the canonical rep first.  Returns how many lassos
    have a flip."""
    order = {x: n for n, x in enumerate(first_met_normal_forms(p, depth, tail_length))}
    flips = 0
    for x in order:
        c = ref_canonical(p, x)
        if c.partner is not None:
            flips += 1
            assert order[c.rep] < order[c.partner]
    return flips


@pytest.mark.parametrize(
    "seed,depth,tail_length", WALKS + [("full2", 2, 3), ("full3", 2, 3), ("twovertex", 2, 3)]
)
def test_rep_is_met_before_its_flip(seed, depth, tail_length, request):
    assert reps_met_before_their_flips(request.getfixturevalue(seed), depth, tail_length) > 0


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(0, 3), st.integers(1, 3))
def test_rep_is_met_before_its_flip_on_drawn_seeds(p, depth, tail_length):
    reps_met_before_their_flips(p, depth, tail_length)


def assert_classes_cover_the_normal_forms(p: EmbeddingPair, depth: int, tail_length: int) -> None:
    """The members of the walk's classes (each rep and its flip) are what
    make builds, and they are the recursion's normal forms, each once."""
    members = []
    for rep, _ in geometry._classes(p, depth, tail_length):
        members += [x for x in (rep, flip(p, rep)) if x is not None]
    assert members == [LassoRay.make(p.g, x.prefix, x.cycle) for x in members]
    assert len(set(members)) == len(members)
    assert set(members) == set(first_met_normal_forms(p, depth, tail_length))


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_walk_builds_the_normal_forms_make_builds(seed, depth, tail_length, request):
    assert_classes_cover_the_normal_forms(request.getfixturevalue(seed), depth, tail_length)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_walk_builds_the_normal_forms_make_builds_on_drawn_seeds(p, depth, tail_length):
    assert_classes_cover_the_normal_forms(p, depth, tail_length)


def walked_invariants(p: EmbeddingPair, depth: int, tail_length: int) -> list:
    """The walk's invariant of each class, checked against the reference's
    on both members: the walk reads it off the first-met spelling, so it
    must be a class invariant, not only the rep's."""
    keys = []
    for rep, key in geometry._classes(p, depth, tail_length):
        image, chain_keys, (num, den) = key
        # a level's numerator is over 2^(gap - 1); the tail is reduced mod 1
        assert 0 <= num < den and math.gcd(num, den) == 1
        value = (
            LassoRay(*image),
            tuple((gap, Fraction(k, 2 ** (gap - 1))) for gap, k in chain_keys),
            Fraction(num, den),
        )
        for x in (rep, flip(p, rep)):
            if x is not None:
                assert value == ref_discrete_invariant(p, x)
        keys.append(key)
    return keys


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_walk_invariant_splits_lassos_as_the_reference(seed, depth, tail_length, request):
    # and the bundles have no collision: one invariant per class
    keys = walked_invariants(request.getfixturevalue(seed), depth, tail_length)
    assert len(set(keys)) == len(keys)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_walk_invariant_splits_lassos_as_the_reference_on_drawn_seeds(p, depth, tail_length):
    walked_invariants(p, depth, tail_length)


def test_injectivity_class_cap(full3, monkeypatch):
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 243)
    assert embedding_injectivity_check(full3, 4, 2).classes == 243
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 242)
    with pytest.raises(RayError, match=r"more than 242 .* at depth 4$"):
        embedding_injectivity_check(full3, 4, 2)


def test_the_injectivity_walk_runs_with_the_collector_paused(full3, monkeypatch):
    """gc is off at every class the walk yields, and on again after a
    return and after the class-cap refusal; a caller's own gc.disable()
    stands."""
    seen = []
    inner = geometry._classes

    def probed(*args):
        for item in inner(*args):
            seen.append(gc.isenabled())
            yield item

    monkeypatch.setattr(geometry, "_classes", probed)
    assert gc.isenabled()
    assert embedding_injectivity_check(full3, 4, 2).classes == 243
    assert len(seen) == 243 and not any(seen) and gc.isenabled()
    seen.clear()
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 10)
    with pytest.raises(RayError, match="more than 10 "):
        embedding_injectivity_check(full3, 4, 2)
    assert len(seen) == 11 and not any(seen) and gc.isenabled()
    gc.disable()
    try:
        embedding_injectivity_check(full3, 2)
        assert not gc.isenabled()
    finally:
        gc.enable()


def assert_paused_check_makes_no_cycle(p: EmbeddingPair, depth: int, tail_length: int) -> None:
    """With the collector off, the check (its first use of p's tables
    included), or its refusal, leaves nothing for gc.collect() to free."""
    gc.collect()
    gc.disable()
    try:
        try:
            embedding_injectivity_check(p, depth, tail_length)
        except (EmbeddingError, RayError):
            pass
        assert gc.collect() == 0, (depth, tail_length)
    finally:
        gc.enable()


def test_the_paused_injectivity_walk_makes_no_reference_cycle(monkeypatch):
    def fresh(name):
        return load_bundle(bundle_path(f"{name}.bundle")).pair()

    embedding_injectivity_check(fresh("full3"), 2)  # warm-up
    for name, depth, tail_length in (("full3", 4, 2), ("full2", 5, 1), ("twovertex", 4, 1)):
        assert_paused_check_makes_no_cycle(fresh(name), depth, tail_length)
    assert_paused_check_makes_no_cycle(h0_failing_pair(), 3, 2)
    assert_paused_check_makes_no_cycle(h1_failing_pair(), 3, 2)
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 10)
    assert_paused_check_makes_no_cycle(fresh("full3"), 4, 2)


@settings(max_examples=20, deadline=None)
@given(seeds(), st.booleans(), st.integers(1, 3), st.integers(1, 2))
def test_the_paused_injectivity_walk_makes_no_reference_cycle_on_drawn_seeds(p, h1_fails, depth, tail_length):
    """A seed drawn with h1_fails is broken to fail H1: the first H-edge's
    two images are made one edge."""
    if h1_fails:
        y = p.h.edges[0]
        p = EmbeddingPair(p.g, p.h, p.xi0_vertices, p.xi0_edges, p.xi1_vertices,
                          {**p.xi1_edges, y: p.xi0_edges[y]})
        assert not p.hypotheses.h1.passed
    assert_paused_check_makes_no_cycle(p, depth, tail_length)


def test_injectivity_ignores_hash_seed(twovertex, monkeypatch):
    # the walk's output must not depend on the hash seed
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "from shiftquot import geometry\nfrom shiftquot.cli import load_bundle\n"
        "from shiftquot.metrics import tau_ray\n"
        f"p = load_bundle({bundle_path('twovertex.bundle')!r}).pair()\n"
        "print(geometry.embedding_injectivity_check(p, 4))\n"
        "inner = geometry._classes\n"
        "geometry._classes = lambda p, d, t: ((rep, tau_ray(p, rep)) for rep, _ in inner(p, d, t))\n"
        "print(geometry.embedding_injectivity_check(p, 4))\n"
    )
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    plain = embedding_injectivity_check(twovertex, 4)
    coarse, _ = walked_classes(monkeypatch, twovertex, 4, 1, tau_ray)
    assert runs[0] == f"{plain}\n{InjectivityReport(*coarse)}\n"


def test_injectivity_surfaces_the_superscript_error_when_h1_fails():
    # the walk reads its cycles' superscripts before it builds the quotient
    # graph, so H1's error surfaces, not the quotient graph's
    with open(bundle_path("full3.bundle")) as f:
        text = f.read()
    p = parse_bundle(text.replace("map xi1 h b", "map xi1 h a")).pair()
    assert not p.hypotheses.h1.passed
    with pytest.raises(EmbeddingError, match=r"^superscript map undefined: H1 fails$"):
        embedding_injectivity_check(p, 3)


def test_injectivity_reads_no_level_walk_and_one_flip_per_class(twovertex, monkeypatch):
    """The levels, tail and image of each class come from the state carried
    down the walk: no raw_levels call.  The walk meets each class first at
    its rep, so it builds no flip: no canonical, flip, _flip_at or
    carry_flip call."""
    calls = Counter()
    for module in (rays, geometry):
        for name in ("raw_levels", "canonical", "flip", "_flip_at", "carry_flip"):
            if hasattr(module, name):
                def counted(*args, _name=name, _inner=getattr(module, name)):
                    calls[_name] += 1
                    return _inner(*args)

                monkeypatch.setattr(module, name, counted)
    report = embedding_injectivity_check(twovertex, 5)
    assert report == InjectivityReport(4152, ())
    assert calls["raw_levels"] == 0
    assert calls["canonical"] + calls["flip"] + calls["_flip_at"] + calls["carry_flip"] == 0
