import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from conftest import BUNDLE_NAMES, bundle_path, h1_failing_pair, seeds
from reference import ref_epsilon
from shiftquot.embedding import (
    EmbeddingError,
    EmbeddingPair,
    check_standing_hypotheses,
    completion_tables,
    quotient_graph,
)
from shiftquot.graphs import Graph, is_primitive


def test_full3_standing(full3):
    rep = check_standing_hypotheses(full3)
    assert rep.standing()
    assert rep.h_has_cycle


def test_full2_fails_h2_only(full2):
    rep = check_standing_hypotheses(full2)
    assert rep.h0.passed and rep.h1.passed and rep.primitive.passed
    assert not rep.h2.passed
    assert rep.h2.witness == "edge h"


def test_h1_fails_when_images_overlap():
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
    h = Graph(["w"], [("h", "w", "w")])
    p = EmbeddingPair(g, h, {"w": "v"}, {"h": "a"}, {"w": "v"}, {"h": "a"})
    rep = check_standing_hypotheses(p)
    assert not rep.h1.passed
    assert "a" in rep.h1.witness


def test_h0_fails_on_disagreeing_vertex_maps():
    g = Graph(["u", "z"], [("a", "u", "u"), ("b", "z", "z"), ("c", "u", "z"), ("d", "z", "u")])
    h = Graph(["w"], [])
    p = EmbeddingPair(g, h, {"w": "u"}, {}, {"w": "z"}, {})
    rep = check_standing_hypotheses(p)
    assert not rep.h0.passed


def test_structural_validation_rejects_non_homomorphism():
    g = Graph(["u", "z"], [("a", "u", "z")])
    h = Graph(["w"], [("h", "w", "w")])
    with pytest.raises(EmbeddingError):
        EmbeddingPair(g, h, {"w": "u"}, {"h": "a"}, {"w": "u"}, {"h": "a"})


G = Graph(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
H = Graph(["w"], [("h", "w", "w")])
V = {"w": "v"}


@pytest.mark.parametrize("build, message", [
    (lambda: EmbeddingPair(G, H, {}, {"h": "a"}, V, {"h": "b"}), "xi0: vertex map domain must be all of H^0"),
    (lambda: EmbeddingPair(G, H, V, {"h": "a"}, V, {}), "xi1: edge map domain must be all of H^1"),
    (lambda: EmbeddingPair(G, H, {"w": "u"}, {"h": "a"}, V, {"h": "b"}), "xi0: image vertex 'u' not in G"),
    (lambda: EmbeddingPair(G, H, V, {"h": "a"}, V, {"h": "z"}), "xi1: image edge 'z' not in G"),
    (lambda: EmbeddingPair(G, Graph(["w", "x"], [("h", "w", "w"), ("k", "x", "x")]),
                           {"w": "v", "x": "v"}, {"h": "a", "k": "b"}, {"w": "v", "x": "v"}, {"h": "b", "k": "a"}),
     "xi0: vertex map not injective"),
    (lambda: EmbeddingPair(G, Graph(["w"], [("h", "w", "w"), ("k", "w", "w")]),
                           V, {"h": "a", "k": "b"}, V, {"h": "c", "k": "c"}),
     "xi1: edge map not injective"),
    (lambda: EmbeddingPair(G, H, V, {"h": "a"}, V, {"h": "b"}).partner("c"),
     "edge 'c' is not in the embedded image"),
], ids=["vertex-domain", "edge-domain", "image-vertex", "image-edge", "vertex-injective", "edge-injective",
        "spare-partner"])
def test_invalid_seeds_raise_their_message(build, message):
    with pytest.raises(EmbeddingError) as info:
        build()
    assert str(info.value) == message


def test_quotient_full3(full3):
    q = quotient_graph(full3)
    assert len(q.graph.vertices) == 1
    assert len(q.graph.edges) == 2
    assert q.tau["a"] == q.tau["b"]
    assert q.tau["c"] != q.tau["a"]
    assert len(q.graph.edges) == len(full3.g.edges) - len(full3.h.edges)


def test_quotient_names_a_clashing_spare_edge_apart():
    """The H-edge c takes the quotient name c', so the spare G-edge c gets
    one more prime."""
    p = EmbeddingPair(G, Graph(["w"], [("c", "w", "w")]), V, {"c": "a"}, V, {"c": "b"})
    assert quotient_graph(p).tau == {"a": "c'", "b": "c'", "c": "c''"}


def test_quotient_full2(full2):
    q = quotient_graph(full2)
    assert len(q.graph.edges) == 1


def test_quotient_requires_h1():
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
    h = Graph(["w"], [("h", "w", "w")])
    p = EmbeddingPair(g, h, {"w": "v"}, {"h": "a"}, {"w": "v"}, {"h": "a"})
    with pytest.raises(EmbeddingError):
        quotient_graph(p)


def test_tau_collapses_both_copies(full3, twovertex):
    for p in (full3, twovertex):
        q = quotient_graph(p)
        for y in p.h.edges:
            assert q.tau[p.xi0_edges[y]] == q.tau[p.xi1_edges[y]]


def test_doubled_edges_are_parallel(full3, twovertex):
    for p in (full3, twovertex):
        for y in p.h.edges:
            e0, e1 = p.xi0_edges[y], p.xi1_edges[y]
            assert e0 != e1
            assert p.g.source(e0) == p.g.source(e1)
            assert p.g.target(e0) == p.g.target(e1)


def test_quotient_is_primitive_when_standing(full3, twovertex):
    for p in (full3, twovertex):
        assert check_standing_hypotheses(p).standing()
        assert is_primitive(quotient_graph(p).graph)


def test_epsilon(full3):
    assert (full3.superscript("a"), full3.superscript("b"), full3.superscript("c")) == (0, 1, None)
    assert (ref_epsilon(full3, "a"), ref_epsilon(full3, "b")) == (0, 1)
    with pytest.raises(EmbeddingError, match="^edge 'c' is not in the embedded image$"):
        ref_epsilon(full3, "c")


def superscript_agrees_with_epsilon(p):
    for e in p.g.edges:
        assert p.superscript(e) == (ref_epsilon(p, e) if p.in_image(e) else None)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_superscript_is_epsilon_on_the_image_and_none_off_it(name, request):
    superscript_agrees_with_epsilon(request.getfixturevalue(name))


@settings(max_examples=100, deadline=None)
@given(seeds())
def test_superscript_is_epsilon_on_drawn_seeds(p):
    superscript_agrees_with_epsilon(p)


def test_superscript_without_h1_raises_on_image_edges_only():
    p = h1_failing_pair()
    assert [e for e in p.g.edges if not p.in_image(e)] == ["c"]
    assert p.superscript("c") is None
    for e in ("a", "b"):
        with pytest.raises(EmbeddingError, match="^superscript map undefined: H1 fails$"):
            p.superscript(e)
        with pytest.raises(EmbeddingError, match="^superscript map undefined: H1 fails$"):
            ref_epsilon(p, e)


def test_completion_tables_full3(full3):
    tables = completion_tables(full3)
    comp = tables["v"]
    assert comp.xi_tail == ((), ("a",))
    assert full3.spare_count(comp.min_forced_path) == 0


def test_completion_flags_missing_tail():
    # H has a single edge into a sink; no infinite image path exists anywhere
    g = Graph(
        ["u", "z"],
        [("a", "u", "z"), ("b", "u", "z"), ("c", "u", "z"),
         ("d", "z", "u"), ("e", "u", "u"), ("f", "z", "z")],
    )
    h = Graph(["p", "q"], [("y", "p", "q")])
    p = EmbeddingPair(g, h, {"p": "u", "q": "z"}, {"y": "a"}, {"p": "u", "q": "z"}, {"y": "b"})
    rep = check_standing_hypotheses(p)
    assert not rep.h_has_cycle
    tables = completion_tables(p)
    assert tables["u"].xi_tail is None
    assert tables["z"].xi_tail is None


def test_completion_rejects_dead_vertex():
    g = Graph(["u", "z"], [("a", "u", "z")])
    h = Graph([], [])
    p = EmbeddingPair(g, h, {}, {}, {}, {})
    with pytest.raises(EmbeddingError):
        completion_tables(p)


def test_twovertex_completion(twovertex):
    tables = completion_tables(twovertex)
    # a plain dict keyed in G's vertex order, as the seed holds it
    assert type(tables) is dict and list(tables) == list(twovertex.g.vertices)
    assert twovertex.completion == tables
    for v in twovertex.g.vertices:
        comp = tables[v]
        assert comp.xi_tail is not None
        assert twovertex.spare_count(comp.min_forced_path) == 0


PROBE = """
from shiftquot.cli import load_bundle
from shiftquot.rays import format_ray, parse_ray, stratum_approximant
p = load_bundle({bundle!r}).pair()
print(format_ray(stratum_approximant(p, parse_ray(p.g, "p2;p2"), 2, 9)))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_completion_tables_ignore_hash_seed(hash_seed):
    # twovertex has ties between tail vertices; they must break the same
    # way whatever the string hash seed
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    code = PROBE.format(bundle=bundle_path("twovertex.bundle"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "p2,p2,p2,p2,p2,p2,p2,p2,p2;p0\n"
