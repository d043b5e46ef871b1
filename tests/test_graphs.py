import time

import pytest
from hypothesis import given, settings, strategies as st

from shiftquot.algebra import homology_table, ruelle_k_theory
from shiftquot.graphs import (
    Graph,
    IntMatrix,
    adjacency_matrix,
    is_primitive,
    paths_of_length,
)

from conftest import graphs
from reference import ref_entry_sum, ref_is_primitive, ref_power, ref_transpose, ref_zero


def full(n_loops: int) -> Graph:
    return Graph(["v"], [(chr(ord("a") + i), "v", "v") for i in range(n_loops)])


def two_cycle() -> Graph:
    return Graph(["u", "w"], [("f", "u", "w"), ("g", "w", "u")])


def test_adjacency_full3():
    assert adjacency_matrix(full(3)).entries == ((3,),)


def test_adjacency_orientation():
    # single edge w -> v must land at row v (target), column w (source)
    g = Graph(["v", "w"], [("e", "w", "v")])
    a = adjacency_matrix(g)
    iv, iw = g.vertex_index["v"], g.vertex_index["w"]
    assert a[iv, iw] == 1
    assert a[iw, iv] == 0


def test_adjacency_edgeless():
    g = Graph(["v", "w"], [])
    assert adjacency_matrix(g).entries == ((0, 0), (0, 0))


def test_adjacency_built_once_per_graph(full3):
    a = adjacency_matrix(full3.g)
    ruelle_k_theory(full3)
    homology_table(full3)
    assert adjacency_matrix(full3.g) is a
    assert adjacency_matrix(full(3)) is not a and adjacency_matrix(full(3)) == a


def test_primitive_full():
    assert is_primitive(full(3)) is True
    assert is_primitive(full(2)) is True


def test_primitive_two_cycle_matches_matrix_powers():
    g = two_cycle()
    assert is_primitive(g) is False
    # oracle: direct integer powers up to the Wielandt bound
    a = adjacency_matrix(g)
    for k in range(1, (len(g.vertices) - 1) ** 2 + 2):
        powered = ref_power(a, k)
        assert any(x == 0 for row in powered.entries for x in row)


@settings(max_examples=400, deadline=None)
@given(graphs(max_edges=18))
def test_primitivity_matches_the_powering_reference(g):
    assert is_primitive(g) == ref_is_primitive(g)[0]


def period_two_graph(n: int) -> Graph:
    """Edges i -> i+1 and i -> i+3 mod n (n even): strongly connected, period 2."""
    return Graph(
        [f"v{i}" for i in range(n)],
        [(f"a{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
        + [(f"b{i}", f"v{i}", f"v{(i + 3) % n}") for i in range(n)],
    )


def one_way_graph(n: int) -> Graph:
    """A loop at every vertex and edges i -> i+1: period 1, but only
    vertex 0 reaches vertex 0."""
    return Graph(
        [f"v{i}" for i in range(n)],
        [(f"l{i}", f"v{i}", f"v{i}") for i in range(n)]
        + [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)],
    )


@pytest.mark.parametrize("build", [period_two_graph, one_way_graph])
def test_non_primitive_graphs_are_refused_without_powering(build):
    """At 64 vertices the powering ran 3,970 boolean products (2.0 s on a
    2-vCPU VM for the period-2 graph); the period and the reach in both
    directions are read off breadth-first passes."""
    start = time.perf_counter()
    assert is_primitive(build(64)) is False
    assert is_primitive(build(200)) is False
    assert time.perf_counter() - start < 0.5
    assert ref_is_primitive(build(8)) == (False, None)


def test_primitive_implies_irreducible_on_samples():
    graphs = [full(1), full(3), two_cycle(), Graph(["u", "w"], [("e", "u", "w")])]
    for g in graphs:
        if is_primitive(g):
            # irreducible: A + A^2 + ... + A^d is entrywise positive
            a, d = adjacency_matrix(g), len(g.vertices)
            reach = ref_power(a, 1)
            for k in range(2, d + 1):
                reach = reach + ref_power(a, k)
            assert all(x > 0 for row in reach.entries for x in row)


@pytest.mark.parametrize(
    "g,n,expected",
    [(full(3), 7, 3**7), (full(2), 3, 8)],
)
def test_path_counts(g, n, expected):
    assert len(paths_of_length(g, n)) == expected


def test_paths_deeper_than_the_recursion_limit():
    assert [len(w) for w in paths_of_length(full(1), 5_000)] == [5_000]


def test_paths_with_endpoints():
    g = two_cycle()
    assert len(paths_of_length(g, 2, src="u", dst="u")) == 1
    assert paths_of_length(g, 2, src="u", dst="u") == [("f", "g")]


@settings(max_examples=60, deadline=None)
@given(graphs(3, 5, min_edges=1), st.integers(1, 4))
def test_path_count_equals_power_sum(g, n):
    assert len(paths_of_length(g, n)) == ref_entry_sum(ref_power(adjacency_matrix(g), n))


@pytest.mark.parametrize("block", [2, 3, 4])
def test_higher_block_path_bijection(block):
    # block recoding: vertices are (block-1)-words, edges block-words
    g = two_cycle()
    b = Graph(
        [".".join(w) for w in paths_of_length(g, block - 1)],
        [(".".join(w), ".".join(w[:-1]), ".".join(w[1:]))
         for w in paths_of_length(g, block)],
    )
    for n in range(1, 5):
        assert len(paths_of_length(b, n)) == len(paths_of_length(g, n + block - 1))


def test_intmatrix_determinant():
    m = IntMatrix.from_rows([[2, 1], [7, 4]])
    assert m.determinant() == 1
    assert IntMatrix.identity(3).determinant() == 1
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).determinant() == -1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-10**20, 10**20), min_size=cols, max_size=cols), max_size=5)
    .map(lambda rows: IntMatrix(len(rows), cols, tuple(map(tuple, rows))))
))
def test_transpose_matches_the_entrywise_build(m):
    t = m.transpose()
    assert t == ref_transpose(m)
    assert (t.rows, t.cols) == (m.cols, m.rows) and len(t.entries) == m.cols
    assert t.transpose() == m


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (1, 4), (4, 1)])
def test_transpose_of_a_thin_matrix(rows, cols):
    m = ref_zero(rows, cols)
    assert m.transpose() == ref_transpose(m) == ref_zero(cols, rows)
