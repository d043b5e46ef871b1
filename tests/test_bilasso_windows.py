"""The two-sided layer against its definitions.

The definitions of `bilasso_equal`, `pair_related`, `membership_yu` and
`membership_ys` (in `reference`) read one edge per position.  The package
reads each bi-lasso once as a window; it must give the same witnesses and
booleans, and raise the same error type where the definition raises (a
seed whose images overlap has no partner map, so reading a swap there
fails).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import closed_walk, end_of, h_cycles, outcome, seeds, tower_pairs, walk
from reference import ref_bilasso_equal, ref_membership_ys, ref_membership_yu, ref_pair_related
from shiftquot.embedding import EmbeddingPair
from shiftquot.graphs import Graph
from shiftquot.smale import (
    BiLasso,
    SmaleError,
    apply_witness,
    bilasso_equal,
    membership_ys,
    membership_yu,
    pair_related,
    transversal_spec,
)


def kind(result):
    """An outcome with the error message dropped: the error type only."""
    return result[0] if result[0] != "ok" else result


# -- inputs ---------------------------------------------------------------------


def image_pairs(p, rng, count):
    """Bi-lassos lying in the embedded image along an H-cycle, paired with
    their total swap: half in one embedding (case b), half choosing the
    embedding of each edge independently."""
    cycles = h_cycles(p)
    out = []
    for _ in range(count if cycles else 0):
        cyc = rng.choice(cycles)
        k = rng.randrange(len(cyc))
        past, core, future = cyc, cyc * rng.randint(0, 2) + cyc[:k], cyc[k:] + cyc[:k]
        embed = (p.xi0_edges, p.xi1_edges)
        if rng.random() < 0.5:
            embed = (rng.choice(embed),)
        parts = ([rng.choice(embed)[e] for e in part] for part in (past, core, future))
        x = BiLasso.make(p.g, *parts, origin=rng.randint(-3, 3))
        swapped = ([p.partner(e) for e in part] for part in (x.past, x.core, x.future))
        out.append((x, BiLasso.make(p.g, *swapped, origin=x.origin)))
    return out


def self_pairs(pairs):
    """Each bi-lasso with itself and with the same path spelled with one
    past lap moved into the core."""
    out = []
    for x, _ in pairs:
        longer = BiLasso(x.past, x.past + x.core, x.future, x.origin - len(x.past))
        out += [(x, x), (x, longer), (longer, x)]
    return out


def all_pairs(p, rng, count):
    pairs = tower_pairs(p, rng, count)
    return pairs + image_pairs(p, rng, count) + self_pairs(pairs)


def transversal_bilassos(p, spec, rng, count):
    """Bi-lassos whose past or whose future repeats the transversal cycle,
    at several origins, next to other closed walks and cores."""
    g, cyc, out = p.g, spec.cycle, []
    for _ in range(count):
        k = rng.randrange(len(cyc))
        rot = cyc[k:] + cyc[:k]
        v = g.source(rot[0])
        origin = rng.randint(-4, 3)
        other = closed_walk(g, rng, v) or list(rot)
        core = walk(g, rng, v, rng.randint(0, 4))
        future = closed_walk(g, rng, end_of(g, v, core))
        if future is not None:
            out.append(BiLasso.make(g, rot, core, future, origin))
        out.append(BiLasso.make(g, other, rot * rng.randint(0, 2), rot, origin))
    return out


def check_pairs(p, pairs):
    """pair_related and bilasso_equal against the references; returns the
    witness cases and error types seen."""
    seen = set()
    for x, y in pairs:
        assert bilasso_equal(x, y) == ref_bilasso_equal(x, y)
        new, ref = outcome(pair_related, p, x, y), outcome(ref_pair_related, p, x, y)
        assert kind(new) == kind(ref)
        if new[0] != "ok":
            seen.add(new[0])
        elif new[1] is not None:
            seen.add(new[1].case)
            if new[1].case != "a":
                assert bilasso_equal(apply_witness(p, new[1], x), y)
    return seen


def check_membership(p, xs):
    spec = transversal_spec(p)
    seen = set()
    for x in xs:
        yu, ys = membership_yu(spec, x), membership_ys(spec, x)
        assert (yu, ys) == (ref_membership_yu(spec, x), ref_membership_ys(spec, x))
        seen |= {("yu", yu), ("ys", ys)}
    return seen


# -- pair relation ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["full2", "full3", "twovertex"])
def test_pair_relation_matches_the_reference(name, request):
    p = request.getfixturevalue(name)
    seen = check_pairs(p, all_pairs(p, random.Random(name), 30))
    assert {"a", "b", "c"} <= seen


def overlapping_images():
    """xi0 and xi1 both map onto the loops a and b, so H1 fails and the
    partner map is undefined; s is a spare loop."""
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v"), ("s", "v", "v")])
    h = Graph(["w"], [("y", "w", "w"), ("z", "w", "w")])
    return EmbeddingPair(g, h, {"w": "v"}, {"y": "a", "z": "b"}, {"w": "v"}, {"y": "b", "z": "a"})


def test_pair_relation_raises_where_the_reference_raises():
    p = overlapping_images()
    assert not p.hypotheses.h1.passed
    g, rng = p.g, random.Random(0)
    pairs = []
    for _ in range(300):
        parts = [[rng.choice(g.edges) for _ in range(rng.randint(lo, 3))] for lo in (1, 0, 1)]
        x = BiLasso.make(g, *parts)
        y = BiLasso.make(g, *(part if rng.random() < 0.5 else [rng.choice(g.edges) for _ in part]
                              for part in parts), origin=rng.randint(-1, 1))
        pairs += [(x, y), (x, x)]
    seen = check_pairs(p, pairs)
    assert "EmbeddingError" in seen and "a" in seen
    assert any(outcome(pair_related, p, x, y) == ("ok", None) for x, y in pairs)


@settings(max_examples=30, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_pair_relation_matches_the_reference_on_drawn_seeds(p, rng_seed):
    check_pairs(p, all_pairs(p, random.Random(rng_seed), 4))


# -- transversal membership -----------------------------------------------------------


@pytest.mark.parametrize("name", ["full3", "twovertex"])
def test_membership_matches_the_reference(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    xs = [x for pair in tower_pairs(p, rng, 10) for x in pair]
    xs += transversal_bilassos(p, transversal_spec(p), rng, 30)
    assert check_membership(p, xs) == {("yu", True), ("yu", False), ("ys", True), ("ys", False)}


@settings(max_examples=30, deadline=None)
@given(seeds(), st.integers(0, 2**32))
def test_membership_matches_the_reference_on_drawn_seeds(p, rng_seed):
    try:
        spec = transversal_spec(p)
    except SmaleError:
        return
    rng = random.Random(rng_seed)
    xs = [x for pair in tower_pairs(p, rng, 2) for x in pair]
    check_membership(p, xs + transversal_bilassos(p, spec, rng, 6))

