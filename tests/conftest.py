import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from shiftquot.cli import load_bundle  # noqa: E402
from shiftquot.graphs import Graph  # noqa: E402
from shiftquot.rays import LassoRay  # noqa: E402

BUNDLES = os.path.join(os.path.dirname(__file__), "..", "bundles")


def bundle_path(name: str) -> str:
    return os.path.join(BUNDLES, name)


@pytest.fixture(scope="session")
def full3():
    return load_bundle(bundle_path("full3.bundle")).pair()


@pytest.fixture(scope="session")
def full2():
    return load_bundle(bundle_path("full2.bundle")).pair()


@pytest.fixture(scope="session")
def twovertex():
    return load_bundle(bundle_path("twovertex.bundle")).pair()


def ref_edge_at(x, n):
    """The edge of the bi-lasso x at position n, read one position at a
    time: the reference for `BiLasso.window`."""
    lo = x.origin
    hi = x.origin + len(x.core)  # first future position
    if n < lo:
        return x.past[(n - lo) % len(x.past)]
    if n < hi:
        return x.core[n - lo]
    return x.future[(n - hi) % len(x.future)]


def random_lasso(p, rng: random.Random, max_prefix=8, max_cycle=3, finite=True) -> LassoRay:
    """Random lasso over a one-vertex seed graph; finite=True keeps the
    cycle inside the embedded image."""
    g = p.g
    image = sorted(p.xi_image)
    spare = sorted(set(g.edges) - p.xi_image)
    pool = image + spare
    prefix = [rng.choice(pool) for _ in range(rng.randint(0, max_prefix))]
    cyc_pool = image if finite else pool
    cycle = [rng.choice(cyc_pool) for _ in range(rng.randint(1, max_cycle))]
    return LassoRay.make(g, prefix, cycle)


def random_walk_lasso(g: Graph, rng: random.Random, pre_len: int, cyc_tries: int = 50):
    """Random lasso in an arbitrary graph: walk a prefix, then close a cycle."""
    v = rng.choice(g.vertices)
    prefix = []
    at = v
    for _ in range(pre_len):
        e = rng.choice(g.out_edges(at))
        prefix.append(e)
        at = g.target(e)
    for _ in range(cyc_tries):
        cyc = []
        node = at
        for _ in range(rng.randint(1, 4)):
            e = rng.choice(g.out_edges(node))
            cyc.append(e)
            node = g.target(e)
            if node == at:
                break
        if node == at:
            return LassoRay.make(g, prefix, cyc)
    raise AssertionError("could not close a cycle")
