"""The Smith certificate and the H-tail search against their definitions.

The definitions (in `reference`) are `_tracked_elimination` applying every
row operation to the matrix and to U, and every column operation to the
matrix and to V, and `_h_tail_witness` scanning each vertex's out-edges
for a self-loop before a breadth-first search that starts at its
neighbours.  The package runs one elimination on A bordered by identity
blocks and one breadth-first search per vertex starting at the vertex
itself; it must give the same (U, D, V) and the same H-tail dicts, key
order included.
"""

from hypothesis import given, settings, strategies as st

from conftest import graphs, matrices
from reference import ref_h_tail_witness, ref_tracked_elimination, ref_zero
from shiftquot.algebra import _tracked_elimination, smith_normal_form
from shiftquot.embedding import _h_tail_witness
from shiftquot.graphs import Graph, IntMatrix, adjacency_matrix


@st.composite
def any_matrix(draw):
    shape = draw(st.sampled_from(["square", "row", "column", "zero", "sparse", "general"]))
    n = draw(st.integers(1, 6))
    if shape == "row":
        return draw(matrices(1, n))
    if shape == "column":
        return draw(matrices(n, 1))
    if shape == "zero":
        return ref_zero(n, draw(st.integers(1, 6)))
    if shape == "sparse":
        # few units, so the divisibility sweep runs often
        entries = st.sampled_from([0, 0, 0, 2, 3, -4, 5, 6, 9])
        return draw(matrices(n, draw(st.integers(1, 6)), entries))
    if shape == "square":
        return draw(matrices(n, n, st.integers(-50, 50)))
    return draw(matrices(n, draw(st.integers(1, 6))))


def check_certificate(a):
    u, d, v = _tracked_elimination(a)
    assert (u, d, v) == ref_tracked_elimination(a)
    assert u @ a @ v == d


@settings(max_examples=300, deadline=None)
@given(any_matrix())
def test_bordered_elimination_gives_the_parent_certificate(a):
    check_certificate(a)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_bordered_elimination_on_i_minus_a(g):
    a = adjacency_matrix(g)
    check_certificate(IntMatrix.identity(a.rows) - a)


def test_bordered_elimination_on_fixed_shapes():
    for a in (
        ref_zero(3, 4),
        IntMatrix.from_rows([[0, 0, 7]]),
        IntMatrix.from_rows([[6], [-4], [10]]),
        IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),
        # the sweep finds non-multiples of 2 in two rows and takes the first
        IntMatrix.from_rows([[2, 0, 0], [0, 0, 3], [0, 5, 0]]),
    ):
        check_certificate(a)
    full = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    dec = smith_normal_form(full)
    assert (dec.u, dec.d, dec.v) == ref_tracked_elimination(full)


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_one_search_per_vertex_gives_the_parent_tails(h):
    got, want = _h_tail_witness(h), ref_h_tail_witness(h)
    assert got == want
    assert list(got) == list(want)


def test_tails_on_fixed_graphs():
    cases = [
        # a self-loop listed after an edge that also closes a cycle
        Graph(["a", "b"], [("x", "a", "b"), ("l", "a", "a"), ("y", "b", "a")]),
        # parallel edges, an acyclic tail and a second component
        Graph(
            ["a", "b", "c", "d", "e"],
            [("p", "a", "b"), ("q", "a", "b"), ("r", "b", "a"), ("s", "c", "a"),
             ("t", "d", "e"), ("z", "e", "e")],
        ),
        # no cycle at all
        Graph(["a", "b"], [("x", "a", "b")]),
    ]
    for h in cases:
        assert _h_tail_witness(h) == ref_h_tail_witness(h)
        assert list(_h_tail_witness(h)) == list(ref_h_tail_witness(h))
    assert _h_tail_witness(cases[0])["a"] == ((), ("l",))
    assert _h_tail_witness(cases[1])["c"] == (("s",), ("p", "r"))
    assert _h_tail_witness(cases[2]) == {}
