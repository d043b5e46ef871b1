"""The two-sided layer against its definitions.

The definitions of `bilasso_equal` and `pair_related` (in `reference`)
read one edge per position.  The package reads each bi-lasso once as a
window; it must give the same witnesses and booleans, and raise the same
error type where the definition raises (a seed whose images overlap has
no partner map, so reading a swap there fails).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import h_cycles, outcome, seeds, tower_pairs
from reference import ref_bilasso_equal, ref_pair_related
from shiftquot.embedding import EmbeddingPair
from shiftquot.graphs import Graph
from shiftquot.smale import BiLasso, apply_witness, bilasso_equal, pair_related


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
