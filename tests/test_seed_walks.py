"""The spare-edge index and the two path walkers against their definitions.

The definitions (in `reference`) find H2's witness and the spare twin by a
scan over every G-edge, check injectivity by a recursive prefix walk over
every (prefix, cycle) spelling with the class invariant read off the level
chain, and find the transversal cycle by a recursive walk over spare
edges.  The package must give the same verdicts, witnesses and reports.
The injectivity walk visits only spellings in normal form and computes its
invariant once per class, so it is also compared class by class (the reps
in the order both walks first meet them) and spelling by spelling (its
normal forms against the recursion's, in first-met order).  The bundles
give no collisions, so the collision order is checked under a coarse
invariant, the quotient image alone, put into both walks.
"""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundle_path, seeds
from reference import ref_discrete_invariant, ref_h2_witness, ref_injectivity, ref_spare_twin, ref_transversal
from shiftquot import geometry
from shiftquot.embedding import EmbeddingPair
from shiftquot.geometry import _normal_spellings, embedding_injectivity_check
from shiftquot.metrics import tau_ray
from shiftquot.rays import LassoRay, RayError, canonical, flip, kappa
from shiftquot.smale import SmaleError, transversal_spec


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
    """The walk's (classes, collisions) and the reps it passes to the
    per-class invariant, in call order; `invariant` replaces the walk's."""
    reps = []
    inner = invariant or geometry._discrete_invariant
    mp.setattr(geometry, "_discrete_invariant", lambda p, x: reps.append(x) or inner(p, x))
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


def assert_spellings_are_normal_forms(p: EmbeddingPair, depth: int, tail_length: int) -> None:
    spelled = list(_normal_spellings(p, depth, tail_length))
    built = [LassoRay(*key) for key in spelled]
    assert built == [LassoRay.make(p.g, *key) for key in spelled]
    assert built == first_met_normal_forms(p, depth, tail_length)


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_walk_builds_the_normal_forms_make_builds(seed, depth, tail_length, request):
    assert_spellings_are_normal_forms(request.getfixturevalue(seed), depth, tail_length)


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_walk_builds_the_normal_forms_make_builds_on_drawn_seeds(p, depth, tail_length):
    assert_spellings_are_normal_forms(p, depth, tail_length)


def same_partition(p: EmbeddingPair, xs: list[LassoRay], key_a, key_b) -> bool:
    """Whether the two keys split xs into the same classes of equal keys."""
    firsts_a, firsts_b = {}, {}
    return [firsts_a.setdefault(key_a(p, x), i) for i, x in enumerate(xs)] == [
        firsts_b.setdefault(key_b(p, x), i) for i, x in enumerate(xs)
    ]


def lassos_and_flips(p: EmbeddingPair, depth: int, tail_length: int) -> list[LassoRay]:
    xs = [LassoRay(*key) for key in _normal_spellings(p, depth, tail_length)]
    return xs + [y for y in (flip(p, x) for x in xs) if y is not None]


@pytest.mark.parametrize("seed,depth,tail_length", WALKS)
def test_walk_invariant_splits_lassos_as_the_reference(seed, depth, tail_length, request):
    # both members of each class, so the key is checked as a class
    # invariant and not only on the reps the walk passes it
    p = request.getfixturevalue(seed)
    xs = lassos_and_flips(p, depth, tail_length)
    assert same_partition(p, xs, geometry._discrete_invariant, ref_discrete_invariant)
    assert same_partition(p, xs, geometry._discrete_invariant, lambda p, x: canonical(p, x))


@settings(max_examples=15, deadline=None)
@given(seeds(), st.integers(1, 3), st.integers(1, 2))
def test_walk_invariant_splits_lassos_as_the_reference_on_drawn_seeds(p, depth, tail_length):
    xs = lassos_and_flips(p, depth, tail_length)
    assert same_partition(p, xs, geometry._discrete_invariant, ref_discrete_invariant)


def test_injectivity_class_cap(full3, monkeypatch):
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 243)
    assert embedding_injectivity_check(full3, 4, 2).classes == 243
    monkeypatch.setattr(geometry, "INJECTIVITY_CLASS_CAP", 242)
    with pytest.raises(RayError, match=r"more than 242 .* at depth 4$"):
        embedding_injectivity_check(full3, 4, 2)


def test_injectivity_ignores_hash_seed(twovertex, monkeypatch):
    # the walk keeps its classes in a set, but reads it only by membership
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = (
        "from shiftquot import geometry\nfrom shiftquot.cli import load_bundle\n"
        "from shiftquot.metrics import tau_ray\n"
        f"p = load_bundle({bundle_path('twovertex.bundle')!r}).pair()\n"
        "print(geometry.embedding_injectivity_check(p, 4))\n"
        "geometry._discrete_invariant = tau_ray\n"
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
    monkeypatch.setattr(geometry, "_discrete_invariant", tau_ray)
    assert runs[0] == f"{plain}\n{embedding_injectivity_check(twovertex, 4)}\n"


@settings(max_examples=60, deadline=None)
@given(seeds())
def test_transversal_matches_the_recursive_walk(p):
    best = ref_transversal(p)
    if best is None:
        with pytest.raises(SmaleError):
            transversal_spec(p)
    else:
        assert transversal_spec(p).cycle == best
