"""Seed data: a pair of disjoint embeddings of a small graph in a big one.

The seed is (G, H, xi0, xi1) where xi0, xi1: H -> G are injective graph
homomorphisms.  The conditions checked here:

  H0  xi0 and xi1 agree on vertices,
  H1  the edge images are disjoint,
  H2  every doubled edge has a spare parallel edge outside both images,

plus primitivity of G.  H0 and H1 make the superscript map and the
quotient graph well defined; H2 and primitivity drive all density and
completion arguments downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .graphs import Graph, is_primitive


class EmbeddingError(ValueError):
    """Raised when seed data is structurally invalid or a precondition fails."""


def _check_homomorphism(
    name: str,
    h: Graph,
    g: Graph,
    vmap: Mapping[str, str],
    emap: Mapping[str, str],
) -> None:
    if set(vmap) != set(h.vertices):
        raise EmbeddingError(f"{name}: vertex map domain must be all of H^0")
    if set(emap) != set(h.edges):
        raise EmbeddingError(f"{name}: edge map domain must be all of H^1")
    for w, v in vmap.items():
        if v not in g.vertex_index:
            raise EmbeddingError(f"{name}: image vertex {v!r} not in G")
    for y, e in emap.items():
        if not g.has_edge(e):
            raise EmbeddingError(f"{name}: image edge {e!r} not in G")
        if g.source(e) != vmap[h.source(y)] or g.target(e) != vmap[h.target(y)]:
            raise EmbeddingError(f"{name}: edge {y!r} does not commute with endpoint maps")
    if len(set(vmap.values())) != len(vmap):
        raise EmbeddingError(f"{name}: vertex map not injective")
    if len(set(emap.values())) != len(emap):
        raise EmbeddingError(f"{name}: edge map not injective")


@dataclass(frozen=True, eq=False)
class EmbeddingPair:
    """Seed (G, H, xi0, xi1) with derived tables, each computed once on
    first use.

    The pair must be structurally valid (two injective homomorphisms);
    conditions H0/H1/H2 are *reported* by check_standing_hypotheses, not
    enforced here.  The tables that require H1 (the superscript map,
    partners) are None when H1 fails.
    """

    g: Graph
    h: Graph
    xi0_vertices: dict[str, str]
    xi0_edges: dict[str, str]
    xi1_vertices: dict[str, str]
    xi1_edges: dict[str, str]

    def __post_init__(self) -> None:
        _check_homomorphism("xi0", self.h, self.g, self.xi0_vertices, self.xi0_edges)
        _check_homomorphism("xi1", self.h, self.g, self.xi1_vertices, self.xi1_edges)

    @cached_property
    def xi_image(self) -> frozenset[str]:
        """The set of doubled G-edges (union of both edge images)."""
        return frozenset(self.xi0_edges.values()) | frozenset(self.xi1_edges.values())

    @cached_property
    def _superscript(self) -> dict[str, int] | None:
        if set(self.xi0_edges.values()) & set(self.xi1_edges.values()):
            return None
        eps = dict.fromkeys(self.xi0_edges.values(), 0)
        eps.update(dict.fromkeys(self.xi1_edges.values(), 1))
        return eps

    @cached_property
    def superscript(self) -> Callable[[str], int | None]:
        """edge -> its superscript (0 or 1), or None for a spare edge.
        Without a superscript map (H1 fails) an image edge raises
        epsilon's error."""
        sup = self._superscript
        if sup is not None:
            return sup.get

        def digit(edge: str) -> int | None:
            return epsilon(self, edge) if self.in_image(edge) else None

        return digit

    @cached_property
    def _spare_index(self) -> dict[tuple[str, str], str]:
        """(source, target) -> the first spare edge between them, in G's
        edge order; one pass over the edges."""
        image, index = self.xi_image, {}
        for x, s, t in self.g.edge_ends():
            if x not in image:
                index.setdefault((s, t), x)
        return index

    @cached_property
    def _partner(self) -> dict[str, str] | None:
        if self._superscript is None:
            return None
        partner: dict[str, str] = {}
        for y in self.h.edges:
            e0, e1 = self.xi0_edges[y], self.xi1_edges[y]
            partner[e0], partner[e1] = e1, e0
        return partner

    @cached_property
    def _h_tails(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        """For each H-vertex that can reach an H-cycle: (path-to-cycle, cycle);
        empty exactly when H has no cycle."""
        return _h_tail_witness(self.h)

    # The module functions below do the work; they are looked up by name at
    # call time, so a wrapper installed on the module sees each computation.

    @cached_property
    def hypotheses(self) -> HypothesisReport:
        return check_standing_hypotheses(self)

    @cached_property
    def quotient(self) -> QuotientGraph:
        return quotient_graph(self)

    @cached_property
    def completion(self) -> dict[str, VertexCompletion]:
        return completion_tables(self)

    def in_image(self, edge: str) -> bool:
        return edge in self.xi_image

    def spare_count(self, edges: Sequence[str]) -> int:
        """How many of the given G-edges, counted with repetition, lie
        outside the embedded image."""
        return len(edges) - sum(map(self.xi_image.__contains__, edges))

    def spare_twin(self, edge: str) -> str | None:
        """The first spare edge parallel to the given G-edge, or None."""
        return self._spare_index.get((self.g.source(edge), self.g.target(edge)))

    def partner(self, edge: str) -> str:
        """The other copy of the same H-edge (requires H1)."""
        if self._partner is None:
            raise EmbeddingError("partner map undefined: H1 fails")
        try:
            return self._partner[edge]
        except KeyError:
            raise EmbeddingError(f"edge {edge!r} is not in the embedded image") from None


def epsilon(p: EmbeddingPair, edge: str) -> int:
    """Superscript (0 or 1) of the embedding containing the given G-edge."""
    if p._superscript is None:
        raise EmbeddingError("superscript map undefined: H1 fails")
    try:
        return p._superscript[edge]
    except KeyError:
        raise EmbeddingError(f"edge {edge!r} is not in the embedded image") from None


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class HypothesisReport:
    h0: CheckResult
    h1: CheckResult
    h2: CheckResult
    primitive: CheckResult
    h_has_cycle: bool  # informational: the small shift space is nonempty

    def standing(self) -> bool:
        return self.h0.passed and self.h1.passed and self.h2.passed and self.primitive.passed


def check_standing_hypotheses(p: EmbeddingPair) -> HypothesisReport:
    """Evaluate H0, H1, H2 and primitivity independently, with witnesses."""
    h0_bad = next(
        (w for w in p.h.vertices if p.xi0_vertices[w] != p.xi1_vertices[w]), None
    )
    h0 = CheckResult(h0_bad is None, h0_bad and f"vertex {h0_bad}")

    overlap = set(p.xi0_edges.values()) & set(p.xi1_edges.values())
    h1 = CheckResult(not overlap, f"shared image edge {sorted(overlap)[0]}" if overlap else None)

    h2_bad = next((y for y in p.h.edges if p.spare_twin(p.xi0_edges[y]) is None), None)
    h2 = CheckResult(h2_bad is None, h2_bad and f"edge {h2_bad}")

    prim = is_primitive(p.g)
    primitive = CheckResult(prim, None if prim else "no power of the adjacency matrix is positive")
    return HypothesisReport(h0, h1, h2, primitive, bool(p._h_tails))


@dataclass(frozen=True, eq=False)
class QuotientGraph:
    """The graph obtained by gluing each doubled edge pair into one edge."""

    graph: Graph
    tau: dict[str, str]  # G-edge -> quotient edge

    @cached_property
    def _fibers(self) -> dict[str, tuple[str, ...]]:
        fib: dict[str, list[str]] = {}
        for e, q in self.tau.items():
            fib.setdefault(q, []).append(e)
        return {q: tuple(sorted(es)) for q, es in fib.items()}

    def fiber(self, quotient_edge: str) -> tuple[str, ...]:
        return self._fibers[quotient_edge]


def quotient_graph(p: EmbeddingPair) -> QuotientGraph:
    """Identify xi0(y) with xi1(y) for every H-edge y.  Checks H0 and H1
    only, not the full hypothesis report.

    Quotient edge ids: merged edges are named after the H-edge, untouched
    edges after themselves, both with a prime suffix.  An untouched edge
    whose name is already taken gets one more prime until it is free, in
    G's edge order.
    """
    h0 = all(p.xi0_vertices[w] == p.xi1_vertices[w] for w in p.h.vertices)
    if not h0 or p._superscript is None:  # the superscript map exists iff H1 holds
        raise EmbeddingError("quotient graph needs H0 and H1")
    tau: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = []
    for y in p.h.edges:
        q = y + "'"
        e0 = p.xi0_edges[y]
        edges.append((q, p.g.source(e0), p.g.target(e0)))
        tau[e0] = q
        tau[p.xi1_edges[y]] = q
    taken = {q for q, _, _ in edges}
    for e in p.g.edges:
        if e not in p.xi_image:
            q = e + "'"
            while q in taken:
                q += "'"
            taken.add(q)
            edges.append((q, p.g.source(e), p.g.target(e)))
            tau[e] = q
    return QuotientGraph(Graph(p.g.vertices, edges), tau)


# -- completion tables -------------------------------------------------------


@dataclass(frozen=True)
class VertexCompletion:
    """Per-vertex data for building stratum approximants.

    xi_tail: an infinite forward path inside the embedded image, as a
        (lead-in, cycle) pair of G-edges, or None when no such tail exists.
    min_forced_path: a path to a xi-tail vertex minimizing the number of
        spare edges used (ties go to the first such vertex in G's order);
        min_forced is that count.
    """

    xi_tail: tuple[tuple[str, ...], tuple[str, ...]] | None
    min_forced_path: tuple[str, ...] | None
    min_forced: int | None


def _h_tail_witness(h: Graph) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """For each H-vertex that can reach an H-cycle: (path-to-cycle, cycle)."""
    result: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    for v in h.vertices:
        # BFS from v: the first edge back to v closes a shortest cycle through v
        parent: dict[str, tuple[str, str]] = {}
        q = deque([v])
        while q and v not in result:
            u = q.popleft()
            for e in h.out_edges(u):
                w = h.target(e)
                if w == v:
                    path = [e]
                    while u != v:
                        u, edge = parent[u]
                        path.append(edge)
                    result[v] = ((), tuple(reversed(path)))
                    break
                if w not in parent:
                    parent[w] = (u, e)
                    q.append(w)
    # backward closure: shortest path to any cycle vertex
    frontier = deque(result)
    while frontier:
        w = frontier.popleft()
        for e in h.in_edges(w):
            u = h.source(e)
            if u not in result:
                lead, cyc = result[w]
                result[u] = ((e,) + lead, cyc)
                frontier.append(u)
    return result


def completion_tables(p: EmbeddingPair) -> dict[str, VertexCompletion]:
    """Completion data by vertex, in G's vertex order; errors on a vertex
    with no outgoing edge."""
    g = p.g
    for v in g.vertices:
        if not g.out_edges(v):
            raise EmbeddingError(f"degenerate graph: vertex {v!r} has no outgoing edge")

    xi_tail: dict[str, tuple[tuple[str, ...], tuple[str, ...]] | None] = {
        v: None for v in g.vertices
    }
    for w, (lead, cyc) in p._h_tails.items():
        v = p.xi0_vertices[w]
        xi_tail[v] = (
            tuple(p.xi0_edges[y] for y in lead),
            tuple(p.xi0_edges[y] for y in cyc),
        )
    tail_vertices = [v for v in g.vertices if xi_tail[v] is not None]

    per: dict[str, VertexCompletion] = {}
    for v in g.vertices:
        # 0/1-weighted search: minimize spare-edge count on a path to a tail vertex
        forced: dict[str, tuple[int, tuple[str, ...]]] = {v: (0, ())}
        dq: deque[str] = deque([v])
        while dq:
            u = dq.popleft()
            cost, path = forced[u]
            for e in g.out_edges(u):
                w = g.target(e)
                c = cost + (0 if p.in_image(e) else 1)
                if w not in forced or c < forced[w][0]:
                    forced[w] = (c, path + (e,))
                    if p.in_image(e):
                        dq.appendleft(w)
                    else:
                        dq.append(w)
        mf_path = None
        mf = None
        for u in tail_vertices:
            if u in forced and (mf is None or forced[u][0] < mf):
                mf, mf_path = forced[u]
        per[v] = VertexCompletion(xi_tail[v], mf_path, mf)
    return per
