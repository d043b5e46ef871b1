"""The Smith certificate and the H-tail search against the code they replaced.

The references below are copies of the earlier implementations:
`_tracked_elimination` applying every row operation to the matrix and to
U, and every column operation to the matrix and to V, and `_h_tail_witness`
scanning each vertex's out-edges for a self-loop before a breadth-first
search that starts at its neighbours.  The new code runs one elimination on
A bordered by identity blocks and one breadth-first search per vertex
starting at the vertex itself; it must give the same (U, D, V) and the same
H-tail dicts, key order included.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from shiftquot.algebra import _tracked_elimination, smith_normal_form
from shiftquot.embedding import _h_tail_witness
from shiftquot.graphs import Graph, IntMatrix, adjacency_matrix


def ref_tracked_elimination(a):
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in m:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(rows):
                if i != t and m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(i, t, -q)
                    if m[i][t] != 0:
                        pivot = (i, t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(cols):
                if j != t and m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(j, t, -q)
                    if m[t][j] != 0:
                        pivot = (t, j)
                        dirty = True
                        break
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % m[t][t] != 0:
                        offender = (i, j)
                        break
                if offender:
                    break
            if offender is None:
                break
            add_row(t, offender[0], 1)
            pivot = (t, t)
        if m[t][t] < 0:
            negate_row(t)

    return IntMatrix.from_rows(u), IntMatrix.from_rows(m), IntMatrix.from_rows(v)


def ref_h_tail_witness(h):
    on_cycle = {}
    for v in h.vertices:
        parent = {}
        q = deque()
        for e in h.out_edges(v):
            w = h.target(e)
            if w == v:
                on_cycle[v] = (e,)
                break
            if w not in parent:
                parent[w] = (v, e)
                q.append(w)
        if v in on_cycle:
            continue
        found = None
        while q and found is None:
            u = q.popleft()
            for e in h.out_edges(u):
                w = h.target(e)
                if w == v:
                    path = [e]
                    node = u
                    while node != v:
                        prev, edge = parent[node]
                        path.append(edge)
                        node = prev
                    found = tuple(reversed(path))
                    break
                if w not in parent:
                    parent[w] = (u, e)
                    q.append(w)
        if found:
            on_cycle[v] = found
    result = {}
    for v, cyc in on_cycle.items():
        result[v] = ((), cyc)
    frontier = deque(on_cycle)
    while frontier:
        w = frontier.popleft()
        for e in h.in_edges(w):
            u = h.source(e)
            if u not in result:
                lead, cyc = result[w]
                result[u] = ((e,) + lead, cyc)
                frontier.append(u)
    return result


def matrices(rows, cols, entries=st.integers(-9, 9)):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(IntMatrix.from_rows)


@st.composite
def graphs(draw, max_vertices=6, max_edges=12):
    """Graphs whose edges are drawn freely: self-loops, parallel edges,
    vertices with no way back and several components all occur."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    ends = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=max_edges))
    return Graph(vs, [(f"e{k}", s, t) for k, (s, t) in enumerate(ends)])


@st.composite
def any_matrix(draw):
    shape = draw(st.sampled_from(["square", "row", "column", "zero", "sparse", "general"]))
    n = draw(st.integers(1, 6))
    if shape == "row":
        return draw(matrices(1, n))
    if shape == "column":
        return draw(matrices(n, 1))
    if shape == "zero":
        return IntMatrix.zero(n, draw(st.integers(1, 6)))
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
        IntMatrix.zero(3, 4),
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
