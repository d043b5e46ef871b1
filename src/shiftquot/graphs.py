"""Finite directed graphs, exact integer matrices, path enumeration.

Everything here is immutable after construction and safe for concurrent
reads.  The adjacency convention is fixed once and for all: the entry at
(v, w) counts edges with source w and target v (row = target, column =
source).  All matrix computations downstream (dimension groups, K-theory)
depend on this orientation, so it is pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graphs or graph arguments."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with exact (arbitrary precision) entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise GraphError("ragged matrix rows")
        return IntMatrix(r, c, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def transpose(self) -> "IntMatrix":
        # zip of no rows gives no columns, so a 0 x n matrix needs its n empty rows
        columns = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix(self.cols, self.rows, columns)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix(
            self.rows, self.cols,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix(
            self.rows, self.cols,
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise GraphError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        bt = other.transpose().entries
        return IntMatrix(
            self.rows, other.cols,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            ),
        )

    def bareiss(self) -> tuple[int, int, int]:
        """Rank r, a nonzero r x r minor (1 when r = 0) and a gcd of
        (n - 1)-minors, by fraction-free (Bareiss) elimination with row and
        column swaps.

        The minor carries the sign of the swaps, so for a nonsingular square
        matrix it is the determinant.  Before step k every entry of the
        trailing block is a (k + 1)-minor, so for a square n x n matrix that
        reaches step n - 2 the third value is the gcd of the four
        (n - 1)-minors of its trailing 2 x 2 block; it is 1 when n < 2 (the
        empty minor) and is not meaningful for a singular or non-square
        matrix."""
        rows, cols = self.rows, self.cols
        m = [list(row) for row in self.entries]
        sign, prev, near = 1, 1, 1
        for k in range(min(rows, cols)):
            if k == rows - 2 == cols - 2:
                near = gcd(m[k][k], m[k][k + 1], m[k + 1][k], m[k + 1][k + 1])
            pivot = next(((i, j) for j in range(k, cols) for i in range(k, rows) if m[i][j]), None)
            if pivot is None:
                return k, sign * prev, near
            i, j = pivot
            m[k], m[i] = m[i], m[k]
            for row in m:
                row[k], row[j] = row[j], row[k]
            sign *= (-1) ** ((i != k) + (j != k))
            top, p = m[k], m[k][k]
            for i in range(k + 1, rows):
                row, x = m[i], m[i][k]
                row[k + 1:] = [(v * p - x * w) // prev for v, w in zip(row[k + 1:], top[k + 1:])]
            prev = p
        return min(rows, cols), sign * prev, near

    def determinant(self) -> int:
        """Exact determinant: the Bareiss minor when the rank is full, else 0."""
        if self.rows != self.cols:
            raise GraphError("determinant of a non-square matrix")
        rank, minor, _ = self.bareiss()
        return minor if rank == self.rows else 0

    def _check_shape(self, other: "IntMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise GraphError("shape mismatch")


class Graph:
    """Finite directed graph with named vertices and edges.

    Vertex and edge order is fixed at construction; it determines matrix
    row/column indexing and the deterministic enumeration order used
    everywhere else.
    """

    __slots__ = (
        "vertices", "edges", "_src", "_dst", "source", "target", "has_edge",
        "vertex_index", "edge_index", "_out", "_in", "_adjacency",
    )

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex id")
        self.vertex_index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        edge_list = [tuple(e) for e in edges]
        ids = [e[0] for e in edge_list]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate edge id")
        # endpoint tables and incidence lists in one pass over the edges
        index = self.vertex_index
        src: dict[str, str] = {}
        dst: dict[str, str] = {}
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        for eid, s, t in edge_list:
            if s not in index:
                raise GraphError(f"edge {eid!r}: unknown source vertex {s!r}")
            if t not in index:
                raise GraphError(f"edge {eid!r}: unknown target vertex {t!r}")
            src[eid] = s
            dst[eid] = t
            out[s].append(eid)
            inc[t].append(eid)
        self._src, self._dst = src, dst
        # edge -> source, edge -> target (KeyError on an unknown edge) and the
        # edge test are the tables' own bound methods: no Python frame per edge
        self.source: Callable[[str], str] = src.__getitem__
        self.target: Callable[[str], str] = dst.__getitem__
        self.has_edge: Callable[[str], bool] = src.__contains__
        self.edges: tuple[str, ...] = tuple(ids)
        self.edge_index: dict[str, int] = {e: i for i, e in enumerate(self.edges)}
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}
        self._adjacency: IntMatrix | None = None  # built by adjacency_matrix

    def out_edges(self, vertex: str) -> tuple[str, ...]:
        return self._out[vertex]

    def in_edges(self, vertex: str) -> tuple[str, ...]:
        return self._in[vertex]

    def edge_ends(self) -> Iterator[tuple[str, str, str]]:
        """(edge, source, target) for every edge, in edge order, read off
        the endpoint tables in one pass."""
        return zip(self.edges, self._src.values(), self._dst.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def adjacency_matrix(g: Graph) -> IntMatrix:
    """Adjacency matrix in the (target, source) convention.

    Entry (v, w) counts edges with source w and target v.  Built once per
    graph, on first use.
    """
    if g._adjacency is None:
        n, index = len(g.vertices), g.vertex_index
        data = [[0] * n for _ in range(n)]
        for s, t in zip(g._src.values(), g._dst.values()):
            data[index[t]][index[s]] += 1
        g._adjacency = IntMatrix(n, n, tuple(map(tuple, data)))
    return g._adjacency


def is_primitive(g: Graph) -> bool:
    """Whether some power of the adjacency matrix is entrywise positive.

    A matrix is primitive exactly when its graph is strongly connected with
    period 1, so this decides by reach and period, without powering: the
    period is the gcd, over the edges u -> w, of level(u) + 1 - level(w)
    for breadth-first levels from one vertex.
    """
    if not g.vertices:
        raise GraphError("empty graph")
    a = adjacency_matrix(g)
    vertices = range(a.rows)
    # row w holds the sources of the edges into w, column u the targets of the edges out of u
    into = [list(compress(vertices, row)) for row in a.entries]
    level = _levels_from_0([list(compress(vertices, col)) for col in a.transpose().entries])
    if len(level) < a.rows or len(_levels_from_0(into)) < a.rows:
        return False
    period = 0
    for w, sources in enumerate(into):
        period = gcd(period, *[level[u] + 1 - level[w] for u in sources])
        if period == 1:
            return True
    return False


def _levels_from_0(neighbours: list[list[int]]) -> dict[int, int]:
    """Breadth-first levels of the vertices reached from vertex 0; the
    search stops once every vertex has one."""
    level = {0: 0}
    queue = [0]
    for u in queue:  # grows while it is read: breadth-first order
        if len(level) == len(neighbours):
            break
        for w in neighbours[u]:
            if w not in level:
                level[w] = level[u] + 1
                queue.append(w)
    return level


def paths_of_length(
    g: Graph,
    n: int,
    src: str | None = None,
    dst: str | None = None,
) -> list[tuple[str, ...]]:
    """All paths of length n as edge tuples, in lexicographic order by edge
    index.

    Optional endpoint filters restrict the initial and terminal vertex.
    """
    if n < 1:
        raise GraphError("path length must be >= 1")
    starts = [src] if src is not None else list(g.vertices)
    out: list[tuple[str, ...]] = []
    for v in starts:
        if v not in g.vertex_index:
            raise GraphError(f"unknown vertex {v!r}")
        # depth-first with an explicit stack: one out-edge iterator per
        # prefix edge, so the depth does not meet the recursion limit
        prefix: list[str] = []
        stack = [iter(g.out_edges(v))]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if prefix:
                    prefix.pop()
            elif len(prefix) + 1 < n:
                prefix.append(e)
                stack.append(iter(g.out_edges(g.target(e))))
            elif dst is None or g.target(e) == dst:
                out.append((*prefix, e))
    return out
