"""The counted pair complex against its enumerated cells.

`build_pair_complex` counts every cell by path-count recurrences and
decides its verdicts from local facts of the seed.  Reading `vertex_cells`
or `h6` enumerates the words, as `reference.ref_pair_cells` does for the
edge cells, and that enumeration is the oracle here.  On a seed too large
to enumerate, products of the adjacency matrices are.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import bundle_path
from reference import ref_entry_sum, ref_pair_cells
from shiftquot.algebra import AlgebraError, FgAbelianGroup, build_pair_complex, synthesize_seed
from shiftquot.cli import load_bundle, main
from shiftquot.embedding import EmbeddingPair
from shiftquot.graphs import Graph, IntMatrix, adjacency_matrix


def scanned_verdicts(pc, p) -> tuple[bool, bool, bool]:
    """(containments, disjointness, terminal boundary) by explicit scans
    over the materialized cells and H 6-words."""
    v, e = pc.vertex_cells, ref_pair_cells(p, 7)
    contained = all(
        (x[0][:-1], x[1][:-1]) in v[max(j - 1, 0)] and (x[0][1:], x[1][1:]) in v[min(j, 6)]
        for j, cell in enumerate(e)
        for x in cell
    )
    disjoint = sum(map(len, v)) == len(frozenset().union(*v))
    boundary = True
    for y in pc.h6:
        acc: dict[str, int] = {}
        for emap, sign in ((p.xi0_edges, 1), (p.xi1_edges, -1)):
            end = p.g.target(emap[y[-1]])
            acc[end] = acc.get(end, 0) + sign
        boundary &= not any(acc.values())
    return contained, disjoint, boundary


def matrix_counts(p: EmbeddingPair, length: int) -> tuple[int, ...]:
    """|C_0| .. |C_length| as 1^T A_H^k P^T A_G^(length-k) 1, with P^T the
    H x G matrix of the vertex map xi0 (the ends are A_G^length, A_H^length)."""
    ag, ah = adjacency_matrix(p.g), adjacency_matrix(p.h)
    pt = IntMatrix.from_rows(
        [[int(p.xi0_vertices[u] == v) for v in p.g.vertices] for u in p.h.vertices]
    )
    ones = IntMatrix.from_rows([[1]] * len(p.g.vertices))
    middle = (
        2 * ref_entry_sum(ah.power(k) @ pt @ ag.power(length - k) @ ones)
        for k in range(1, length)
    )
    return (ref_entry_sum(ag.power(length)), *middle, 2 * ref_entry_sum(ah.power(length)))


def assert_counts_match_cells(p: EmbeddingPair) -> None:
    pc = build_pair_complex(p)
    assert pc.vertex_counts == tuple(map(len, pc.vertex_cells)) == matrix_counts(p, 6)
    assert pc.edge_counts == tuple(map(len, ref_pair_cells(p, 7))) == matrix_counts(p, 7)
    assert pc.h6_count == len(pc.h6) == pc.quotient_rank
    contained, disjoint, boundary = scanned_verdicts(pc, p)
    assert pc.containments_ok == (contained and disjoint)
    assert pc.terminal_boundary_vanishes() == boundary


def test_full3_counts_match_cells(full3):
    assert_counts_match_cells(full3)


def test_twovertex_counts_match_cells(twovertex):
    assert_counts_match_cells(twovertex)


@st.composite
def standing_seeds(draw):
    """Seeds on at most 3 G-vertices and 10 G-edges: a cycle through the
    G-vertices, then each H-edge gets its two images and a spare parallel
    edge, then up to 10 edges in all are added at random.  Aperiodicity is
    left to the draw."""
    n = draw(st.integers(1, 3))
    gv = [f"v{i}" for i in range(n)]
    hv = [f"w{i}" for i in range(draw(st.integers(1, n)))]
    vmap = dict(zip(hv, gv))
    g_edges = [(f"c{i}", gv[i], gv[(i + 1) % n]) for i in range(n)] if n > 1 else []
    ends = st.tuples(st.sampled_from(hv), st.sampled_from(hv))
    h_ends = draw(st.lists(ends, min_size=1, max_size=(10 - len(g_edges)) // 3))
    h_edges = [(f"y{k}", s, t) for k, (s, t) in enumerate(h_ends)]
    xi0, xi1 = {}, {}
    for y, s, t in h_edges:
        xi0[y], xi1[y] = f"{y}a", f"{y}b"
        g_edges += [(f"{y}{c}", vmap[s], vmap[t]) for c in "abs"]
    extra = draw(st.lists(st.tuples(st.sampled_from(gv), st.sampled_from(gv)), max_size=10 - len(g_edges)))
    g_edges += [(f"x{k}", s, t) for k, (s, t) in enumerate(extra)]
    return EmbeddingPair(Graph(gv, g_edges), Graph(hv, h_edges), vmap, xi0, dict(vmap), xi1)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(standing_seeds())
def test_small_standing_seeds_counts_match_cells(p):
    assume(p.hypotheses.standing())
    # the enumeration oracle costs time in proportion to the 7-words
    assume(ref_entry_sum(adjacency_matrix(p.g).power(7)) <= 20_000)
    assert_counts_match_cells(p)


def test_synthesized_seed_counts_by_matrix_powers():
    """`--k1 Z/2 --k0tor Z/3`: 46 G-edges and 12 H-edges, about 6.6e9
    7-words, out of the enumerator's reach."""
    p = synthesize_seed(FgAbelianGroup(0, (3,)), FgAbelianGroup(0, (2,)))
    assert (len(p.g.edges), len(p.h.edges)) == (46, 12)
    pc = build_pair_complex(p)
    ag, ah = adjacency_matrix(p.g), adjacency_matrix(p.h)
    assert pc.vertex_counts[0] == ref_entry_sum(ag.power(6))
    assert pc.edge_counts[0] == ref_entry_sum(ag.power(7))
    assert pc.h6_count == ref_entry_sum(ah.power(6)) == pc.quotient_rank
    assert pc.vertex_counts == matrix_counts(p, 6)
    assert pc.edge_counts == matrix_counts(p, 7)
    assert pc.containments_ok and pc.terminal_boundary_vanishes()
    # the default cap refuses only the enumeration
    with pytest.raises(AlgebraError, match=str(pc.edge_counts[0])):
        pc.vertex_cells


def test_word_cap_bounds_the_true_7_word_count(tmp_path, capsys):
    # twovertex with one more spare loop: 11 G-edges, 11^7 > 10^7, but far
    # fewer actual 7-words
    with open(bundle_path("twovertex.bundle"), encoding="utf-8") as fh:
        text = fh.read().replace("edge s0 z z\n", "edge s0 z z\nedge s1 z z\n")
    path = tmp_path / "eleven.bundle"
    path.write_text(text, encoding="utf-8")
    assert main(["complex", str(path)]) == 0
    out = capsys.readouterr().out
    assert "containments = ok" in out and "boundary_zero = ok" in out
    # a synthesized seed has billions of 7-words; `complex` only counts them
    synth = str(tmp_path / "synth.bundle")
    assert main(["synthesize", "--k1", "Z/2", "--k0tor", "Z/3", "-o", synth]) == 0
    capsys.readouterr()
    assert main(["complex", synth]) == 0
    out = capsys.readouterr().out
    ag = adjacency_matrix(load_bundle(synth).pair().g)
    assert f"|V0| = {ref_entry_sum(ag.power(6))}\n" in out


def test_terminal_boundary_fails_without_h0(full3):
    # xi1 moves the only H-vertex: the two images of h end at different vertices
    g = Graph(["u", "z"], [("a", "u", "u"), ("b", "z", "z"), ("c", "u", "z"), ("d", "z", "u")])
    h = Graph(["w"], [("h", "w", "w")])
    q = EmbeddingPair(g, h, {"w": "u"}, {"h": "a"}, {"w": "z"}, {"h": "b"})
    assert not q.hypotheses.h0.passed
    assert not dataclasses.replace(build_pair_complex(full3), pair=q).terminal_boundary_vanishes()
