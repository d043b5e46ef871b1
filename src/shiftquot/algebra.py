"""Exact integer linear algebra and the algebraic invariants of the quotient.

The Smith diagonal drives everything: cokernels,
Bowen-Franks groups, the eight K-groups of the stable/unstable algebras and
their crossed products, the two-row homology table, and the synthesis
pipeline that realizes prescribed K-groups by a seed bundle.  The diagonal
is computed in two stages: pivots on +-1 entries over Z, each an invariant
factor 1, then the leftover block by elimination modulo a gcd of its
minors, so entries stay below that gcd; the unimodular certificates U and
V are built only when they are read.  The block-7 pair complex is counted
by path-count recurrences over the two graphs, with verdicts from local
facts of the seed; its cells are enumerated only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Sequence

from .embedding import EmbeddingPair
from .graphs import Graph, IntMatrix, adjacency_matrix, paths_of_length


class AlgebraError(ValueError):
    pass


# -- Smith normal form --------------------------------------------------------


def _chain(orders: Sequence[int]) -> list[int]:
    """The same positive cyclic orders rearranged into a divisibility chain
    of the same length, by Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b)."""
    f = list(orders)
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            g = gcd(f[i], f[j])
            f[i], f[j] = g, f[i] // g * f[j]
    return f


def _clear_column(m: list[list[int]], t: int, delta: int) -> None:
    """Zero column t below the pivot m[t][t] by row operations mod delta;
    the pivot becomes the gcd of the column."""
    for i in range(t + 1, len(m)):
        p, b = m[t][t], m[i][t]
        if b == 0:
            continue
        top, row = m[t][t:], m[i][t:]
        if b % p == 0:
            q = b // p
            m[i][t:] = [(v - q * w) % delta for v, w in zip(row, top)]
            continue
        # Euclid on the scalars, then one unimodular 2x2 step on the rows
        (x, y), (r0, r1), (s0, s1) = (p, b), (1, 0), (0, 1)
        while y:
            q = x // y
            x, y, r0, r1, s0, s1 = y, x - q * y, r1, r0 - q * r1, s1, s0 - q * s1
        m[t][t:] = [(r0 * w + s0 * v) % delta for v, w in zip(row, top)]
        m[i][t:] = [(p // x * v - b // x * w) % delta for v, w in zip(row, top)]


def _modular_chain(m: list[list[int]], modulus: int) -> list[int]:
    """The invariant factors of Z^rows / (M Z^cols + modulus Z^rows), one
    per row: with d_i the invariant factors of M, gcd(d_i, modulus) for
    i <= min(rows, cols), then modulus.  Eliminating mod modulus keeps the
    entries below it; each pivot s gives the order gcd(s, modulus)."""
    n = min(len(m), len(m[0]) if m else 0)
    m = [[x % modulus for x in row] for row in m]
    orders = [modulus] * (len(m) - n)
    for t in range(n):
        # the smallest entry, ties by (row, col); a 1 is found by a C scan
        i = next((i for i in range(t, len(m)) if 1 in m[i][t:]), None)
        if i is not None:
            j = m[i].index(1, t)
        else:
            live = [(x, i, j) for i in range(t, len(m)) for j, x in enumerate(m[i][t:], t) if x]
            if not live:
                orders += [modulus] * (n - t)
                break
            _, i, j = min(live)
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        _clear_column(m, t, modulus)
        while any(x % m[t][t] for x in m[t][t + 1:]):
            m = [list(col) for col in zip(*m)]  # the transpose has the same diagonal
            _clear_column(m, t, modulus)
        m[t][t + 1:] = [0] * (len(m[t]) - t - 1)
        orders.append(gcd(m[t][t], modulus))
    return _chain(orders)


def _unit_pivots(a: IntMatrix) -> tuple[int, list[list[int]]]:
    """(u, S): pivot over Z on a +-1 entry (the first in row-major order)
    while the remaining block holds one; u is the number of pivots and S the
    block left over.

    Row operations clear the pivot's column and column operations its row,
    leaving +-1 (+) S, so each pivot is an invariant factor 1 and the rest
    of the diagonal is S's.  S is the Schur complement: after t pivots its
    entries are (t + 1)-minors of A divided by the product of the pivots,
    +-1, so they grow no faster than Bareiss's."""
    m = [list(row) for row in a.entries]
    units = 0
    while True:
        for r, row in enumerate(m):
            if 1 in row:
                c = row.index(1)
                break
            if -1 in row:
                c = row.index(-1)
                break
        else:
            return units, m
        top = m.pop(r)
        p = top[c]
        for i, row in enumerate(m):
            x = row[c]
            if x:
                f = x * p  # p = +-1 is its own inverse
                row = m[i] = [v - f * w for v, w in zip(row, top)]
            del row[c]
        units += 1


def _smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of A, then zeros up to min(rows, cols).

    Stage 1 (_unit_pivots) gives u factors 1 and a leftover block S; the
    rest of the diagonal is S's.  Stage 2 runs Bareiss on S for its rank r
    and a nonzero r x r minor delta.  Every invariant factor of S divides
    delta, so in general they are the first r orders of _modular_chain(S,
    delta).

    When S is square (k x k) and nonsingular, the modulus is smaller: g, the
    gcd of |det S| and the four (k - 1)-minors in Bareiss's trailing 2 x 2
    block.  D_(k-1) = d_1 ... d_(k-1), the gcd of all (k - 1)-minors,
    divides each of those minors and det S = D_(k-1) d_k, hence g.  So
    d_i | g for i < k, gcd(d_i, g) = d_i, and the first k - 1 orders mod g
    are d_1 .. d_(k-1) (no elimination when g = 1); then
    d_k = |det S| / (d_1 ... d_(k-1))."""
    units, m = _unit_pivots(a)
    s = IntMatrix(a.rows - units, a.cols - units, tuple(map(tuple, m)))
    rank, minor, near = s.bareiss()
    n = min(s.rows, s.cols)
    if rank == s.rows == s.cols > 0:
        g = gcd(minor, near)
        head = _modular_chain(m, g)[:n - 1] if g > 1 else [1] * (n - 1)
        return (1,) * units + (*head, abs(minor) // prod(head))
    delta = abs(minor)
    head = _modular_chain(m, delta)[:rank] if delta > 1 else [1] * rank
    return (1,) * units + tuple(head) + (0,) * (n - rank)


def _tracked_elimination(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) by Euclidean elimination over Z on A bordered by identity
    blocks, [[A, I], [I, 0]]: row operations on the top rows build U on the
    right, column operations on the left columns build V below."""
    rows, cols = a.rows, a.cols
    m = [list(r) + [int(i == k) for k in range(rows)] for i, r in enumerate(a.entries)]
    m += [[int(i == k) for k in range(cols)] + [0] * rows for i in range(cols)]

    def add_row(dst, src, c):  # row_dst += c * row_src
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]

    for t in range(min(rows, cols)):
        # deterministic pivot: smallest nonzero |entry|, ties by (row, col)
        live = [(abs(m[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]]
        if not live:
            break
        pivot = min(live)[1:]
        while pivot:
            i, j = pivot
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            # clear column t then row t; a remainder becomes the new pivot
            pivot = None
            for i in range(rows):
                if i != t and m[i][t]:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t]:
                        pivot = (i, t)
                        break
            else:
                for j in range(cols):
                    if j != t and m[t][j]:
                        c = m[t][j] // m[t][t]
                        for row in m:
                            row[j] -= c * row[t]
                        if m[t][j]:
                            pivot = (t, j)
                            break
            if not pivot:
                # divisibility sweep: pull the first non-multiple into row t
                offender = next((i for i in range(t + 1, rows) for j in range(t + 1, cols)
                                 if m[i][j] % m[t][t]), None)
                if offender is not None:
                    add_row(t, offender, 1)
                    pivot = (t, t)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]

    top = m[:rows]
    return (
        IntMatrix.from_rows([r[cols:] for r in top]),
        IntMatrix.from_rows([r[:cols] for r in top]),
        IntMatrix.from_rows([r[:cols] for r in m[rows:]]),
    )


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal with a
    divisibility chain d1 | d2 | ...

    D's diagonal comes from the modular computation; the dense D is built
    from it on first read.  U and V are built on first read by the
    transform-tracking elimination, which must reproduce D."""

    a: IntMatrix
    factors: tuple[int, ...]  # D's diagonal, min(rows, cols) entries

    @cached_property
    def d(self) -> IntMatrix:
        rows, cols, f = self.a.rows, self.a.cols, self.factors
        return IntMatrix(rows, cols, tuple(tuple(f[i] if i == j else 0 for j in range(cols)) for i in range(rows)))

    @cached_property
    def _certificate(self) -> tuple[IntMatrix, IntMatrix]:
        u, d, v = _tracked_elimination(self.a)
        if d != self.d:
            raise AlgebraError("tracked elimination disagrees with the modular diagonal")
        return u, v

    u = property(lambda self: self._certificate[0])
    v = property(lambda self: self._certificate[1])

    def diagonal(self) -> tuple[int, ...]:
        return self.factors


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    return SmithDecomposition(a, _smith_diagonal(a))


# -- finitely generated abelian groups -----------------------------------------


@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form: free rank plus invariant factors d1 | d2 | ..."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0 or any(t < 2 for t in self.torsion):
            raise AlgebraError("invalid canonical form")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise AlgebraError("torsion factors must form a divisibility chain")

    @staticmethod
    def of(rank: int, factors: Sequence[int] = ()) -> "FgAbelianGroup":
        """Canonicalize arbitrary cyclic factors into invariant-factor form."""
        rank += sum(1 for f in factors if f == 0)
        chain = _chain([abs(f) for f in factors if f != 0])
        return FgAbelianGroup(rank, tuple(f for f in chain if f > 1))

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        return FgAbelianGroup.of(self.rank + other.rank, self.torsion + other.torsion)

    def render(self) -> str:
        parts: list[str] = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> FgAbelianGroup:
    """Z^rows / (A Z^cols) from the Smith diagonal."""
    diag = smith_normal_form(a).diagonal()
    nonzero = [d for d in diag if d != 0]
    rank = a.rows - len(nonzero)
    return FgAbelianGroup(rank, tuple(d for d in nonzero if d > 1))


# -- dimension groups, Bowen-Franks, K-theory ----------------------------------


@dataclass(frozen=True)
class MarkedGroupPresentation:
    """Stationary inductive limit lim(Z^n --matrix--> Z^n ...) of an n x n
    matrix, together with the label of its canonical automorphism.  Two
    presentations are compared as presented only; no isomorphism testing."""

    matrix: IntMatrix
    automorphism: str

    def render(self) -> str:
        return f"lim(Z^{self.matrix.rows}, {self.automorphism})"


def bowen_franks(g: Graph) -> FgAbelianGroup:
    a = adjacency_matrix(g)
    return cokernel(IntMatrix.identity(a.rows) - a)


@dataclass(frozen=True)
class RuelleKTheory:
    """The eight K-groups attached to a seed bundle.

    The stable/unstable algebra K-groups are stationary presentations with
    their automorphism labels; the crossed-product K-groups are plain
    finitely generated abelian groups.
    """

    k0_stable: MarkedGroupPresentation
    k1_stable: MarkedGroupPresentation
    k0_unstable: MarkedGroupPresentation
    k1_unstable: MarkedGroupPresentation
    k0_ruelle_s: FgAbelianGroup
    k1_ruelle_s: FgAbelianGroup
    k0_ruelle_u: FgAbelianGroup
    k1_ruelle_u: FgAbelianGroup


def ruelle_k_theory(p: EmbeddingPair) -> RuelleKTheory:
    """Compute all eight K-groups by integer linear algebra on the two
    graphs' adjacency matrices.  The formulas do not read the standing
    hypotheses; a caller that needs them reads p.hypotheses."""
    ag = adjacency_matrix(p.g)
    ah = adjacency_matrix(p.h)
    # I - A is square, so its kernel rank is its cokernel rank, and I - A^T
    # has the same Smith diagonal: one cokernel per graph gives all four groups
    bg, bh = bowen_franks(p.g), bowen_franks(p.h)
    k0 = bg.direct_sum(FgAbelianGroup(bh.rank))
    k1 = bh.direct_sum(FgAbelianGroup(bg.rank))

    return RuelleKTheory(
        k0_stable=MarkedGroupPresentation(ag.transpose(), "A_G^T"),
        k1_stable=MarkedGroupPresentation(ah.transpose(), "A_H^T"),
        k0_unstable=MarkedGroupPresentation(ag, "A_G^-1"),
        k1_unstable=MarkedGroupPresentation(ah, "A_H^-1"),
        k0_ruelle_s=k0,
        k1_ruelle_s=k1,
        k0_ruelle_u=k0,
        k1_ruelle_u=k1,
    )


@dataclass(frozen=True)
class HomologyRow:
    invariant: str  # "s" or "u"
    degree: int
    group: MarkedGroupPresentation | None  # None means the zero group

    @property
    def automorphism(self) -> str:
        return self.group.automorphism if self.group else "0"


def homology_table(p: EmbeddingPair) -> tuple[HomologyRow, ...]:
    """The homology of the invertible quotient system: two nonzero rows per
    invariant (degrees 0 and 1), zero elsewhere."""
    rep = p.hypotheses
    if not rep.standing():
        raise AlgebraError("homology table requires the standing hypotheses")
    ag = adjacency_matrix(p.g)
    ah = adjacency_matrix(p.h)
    return (
        HomologyRow("s", 0, MarkedGroupPresentation(ag, "A_G")),
        HomologyRow("s", 1, MarkedGroupPresentation(ah, "A_H")),
        HomologyRow("u", 0, MarkedGroupPresentation(ag.transpose(), "A_G^T")),
        HomologyRow("u", 1, MarkedGroupPresentation(ah.transpose(), "A_H^T")),
        HomologyRow("s", 2, None),
        HomologyRow("u", 2, None),
    )


# -- the pair complex -----------------------------------------------------------

Pair = tuple[tuple[str, ...], tuple[str, ...]]


def _walk_counts(g: Graph, n: int, backward: bool = False) -> list[dict[str, int]]:
    """Per vertex, the number of paths of each length 0..n that end there
    (that start there when backward): one pass over the edges per length."""
    ahead, behind = (g.source, g.target) if backward else (g.target, g.source)
    counts = [dict.fromkeys(g.vertices, 1)]
    for _ in range(n):
        prev, cur = counts[-1], dict.fromkeys(g.vertices, 0)
        for e in g.edges:
            cur[ahead(e)] += prev[behind(e)]
        counts.append(cur)
    return counts


def _cell_counts(
    p: EmbeddingPair, gin: list[dict[str, int]], hout: list[dict[str, int]], length: int
) -> tuple[int, ...]:
    """|C_0| .. |C_length| over words of the given length.  A pair in C_k is
    a G-path x of length - k followed by the two images of an H-path y of
    length k; the split point fixes (x, y), injective edge maps keep the
    words apart, and H1 keeps (a, b) apart from (b, a)."""
    middle = (
        2 * sum(gin[length - k][p.xi0_vertices[u]] * hout[k][u] for u in p.h.vertices)
        for k in range(1, length)
    )
    return (sum(gin[length].values()), *middle, 2 * sum(hout[length].values()))


@dataclass(frozen=True)
class PairComplex:
    """Words of the self-product shift presenting the two-to-one locus,
    partitioned by carry pattern, with the degree-one boundary data.

    The cell sizes are counted from path-count recurrences over the two
    graphs; the vertex cells and the H 6-words are enumerated only when
    read, and only when the G-paths of length 7 (the words of E_0) number
    at most word_cap."""

    pair: EmbeddingPair
    vertex_counts: tuple[int, ...]  # |V_0| .. |V_6| over 6-words
    edge_counts: tuple[int, ...]  # |E_0| .. |E_7| over 7-words
    word_cap: int

    @property
    def containments_ok(self) -> bool:
        """The containments hold by construction (see build_pair_complex), disjointness by H1."""
        return self.pair.hypotheses.h1.passed

    @property
    def h6_count(self) -> int:
        """The H-paths of length 6: V_6 holds both images of each, kept apart by H1."""
        return self.vertex_counts[6] // 2

    @property
    def quotient_rank(self) -> int:
        """V_6 modulo the swap action, which pairs the two images of each H 6-path."""
        return self.h6_count

    def _check_cap(self) -> None:
        words = self.edge_counts[0]
        if words > self.word_cap:
            raise AlgebraError(f"pair complex too large: {words} G-paths of length 7 exceed cap {self.word_cap}")

    @cached_property
    def vertex_cells(self) -> tuple[frozenset[Pair], ...]:
        self._check_cap()
        return _pair_cells(self.pair, 6)

    @cached_property
    def h6(self) -> tuple[tuple[str, ...], ...]:
        self._check_cap()
        return tuple(paths_of_length(self.pair.h, 6))

    def terminal_boundary_vanishes(self) -> bool:
        """The terminal-vertex image of every generator boundary
        xi0(y) - xi1(y), y an H 6-word, is zero: H0 at the terminal vertex
        of each H-edge that ends an H 6-path."""
        p = self.pair
        hin = _walk_counts(p.h, 5)[5]
        return all(
            p.g.target(p.xi0_edges[y]) == p.g.target(p.xi1_edges[y])
            for y in p.h.edges
            if hin[p.h.source(y)]
        )


def _pair_cells(p: EmbeddingPair, length: int) -> tuple[frozenset[Pair], ...]:
    """Cells V_0..V_length over words of the given length.

    Three pattern families: diagonal pairs, fully swapped doubled pairs,
    and equal-prefix-then-swapped-tail pairs.  This is the maximal reading
    of the cell listing under which the initial/terminal containments are
    actually satisfiable (carry-pivot words admit no consistent cell).
    """
    g, h = p.g, p.h
    cells: list[set[Pair]] = [set() for _ in range(length + 1)]
    for w in paths_of_length(g, length):
        cells[0].add((w, w))
    for k in range(1, length + 1):
        for y in paths_of_length(h, k):
            head = p.xi0_vertices[h.source(y[0])]
            y0 = tuple(p.xi0_edges[e] for e in y)
            y1 = tuple(p.xi1_edges[e] for e in y)
            xs = paths_of_length(g, length - k, dst=head) if k < length else [()]
            for x in xs:
                cells[k].add((x + y0, x + y1))
                cells[k].add((x + y1, x + y0))
    return tuple(frozenset(c) for c in cells)


def build_pair_complex(p: EmbeddingPair, word_cap: int = 10**7) -> PairComplex:
    """Count the cells of the block-7 pair complex and verify its structure.

    Every initial/terminal containment holds by construction: dropping the
    last or first letter of a pair in E_k lands in V_(k-1) or V_k (V_0 for
    E_0 and V_6 for E_7).  The cells are disjoint because the two words of a
    pair in V_k first differ at position 6 - k, which H1 guarantees.
    word_cap bounds the number of G-paths of length 7 when the cells are
    read; the counts are never refused."""
    if not p.hypotheses.standing():
        raise AlgebraError("pair complex requires the standing hypotheses")
    gin = _walk_counts(p.g, 7)
    hout = _walk_counts(p.h, 7, backward=True)
    return PairComplex(p, _cell_counts(p, gin, hout, 6), _cell_counts(p, gin, hout, 7), word_cap)


# -- realization of prescribed groups -------------------------------------------


def realize_group_matrix(target: FgAbelianGroup, d0: int, m0: int) -> IntMatrix:
    """A square matrix A, size >= d0, all entries >= m0, with
    Z^d / (I - A) Z^d isomorphic to the target group.

    Built by unimodular row/column operations from the diagonal of
    invariant factors padded with zeros (rank) and ones.
    """
    if d0 < 1 or m0 < 1:
        raise AlgebraError("d0 and m0 must be positive")
    k = target.rank
    tor = list(target.torsion)
    # at least one padding 1, and total size >= 2 so the final row
    # operation adds two distinct rows
    ones = max(1, d0 - len(tor) - k, 2 - len(tor) - k)
    diag = [0] * k + tor + [1] * ones
    d = len(diag)
    m = [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    # column ops: spread the trailing 1 across row d-1
    for j in range(d - 1):
        for i in range(d):
            m[i][j] += m[i][d - 1]
    # row ops: push every other row up to >= m0
    for i in range(d - 1):
        for j in range(d):
            m[i][j] += m0 * m[d - 1][j]
    # final fix for row d-1 itself
    for j in range(d):
        m[d - 1][j] += m[0][j]
    b = IntMatrix.from_rows(m)
    if any(x < m0 for row in b.entries for x in row):
        raise AlgebraError("construction failed to reach the entry bound")
    return b + IntMatrix.identity(d)


SYNTH_EDGE_BUDGET = 250_000
"""Most G-edges a synthesized seed may have.  The entries of A and B grow
with the torsion orders: K1 = Z/10000 (K0 torsion Z/4) gives 80,032
G-edges, 100,040 edges with H's (about 0.7 s on a 2-vCPU VM); Z/100000
gives 800,032 and 1,000,040 (about 11 s)."""


def _check_edge_budget(edges: int, at_least: str = "") -> None:
    if edges > SYNTH_EDGE_BUDGET:
        raise AlgebraError(
            f"the synthesized seed would have {at_least}{edges:,} G-edges, more than "
            f"the budget of {SYNTH_EDGE_BUDGET:,}: lower the torsion orders or the rank"
        )


def synthesize_seed(k0_torsion: FgAbelianGroup, k1: FgAbelianGroup) -> EmbeddingPair:
    """Build a seed bundle whose crossed-product K-groups realize the
    prescribed pair (K0 torsion part, K1).

    The small graph presents K1 through I - A; the big graph presents the
    K0 torsion through I - B with entries large enough to embed the small
    graph twice disjointly and leave spare parallel edges.  G's edge count
    is the entry sum of B; above SYNTH_EDGE_BUDGET the seed is refused
    before any edge is built.
    """
    if k0_torsion.rank != 0:
        raise AlgebraError("the K0 target must be torsion-only (rank 0)")
    # B has at least this many rows, and its entries are at least 3, so a
    # long target is refused before A and B are built
    rows = max(k1.rank + len(k1.torsion) + 1, len(k0_torsion.torsion) + 1, 2)
    _check_edge_budget(3 * rows * rows, "at least ")
    a = realize_group_matrix(k1, 1, 1)
    d = a.rows
    m0 = max(2 * x + 1 for row in a.entries for x in row)
    b = realize_group_matrix(k0_torsion, d, m0)
    _check_edge_budget(sum(map(sum, b.entries)))
    dprime = b.rows

    h_vertices = [f"w{i}" for i in range(d)]
    g_vertices = [f"v{i}" for i in range(dprime)]
    h_edges: list[tuple[str, str, str]] = []
    # adjacency_matrix(H) must equal A^T: #edges(src=w_c, dst=w_r) = A^T[r][c] = A[c][r]
    for c in range(d):
        for r in range(d):
            for n in range(a[c, r]):
                h_edges.append((f"y{c}_{r}_{n}", f"w{c}", f"w{r}"))
    g_edges: list[tuple[str, str, str]] = []
    for c in range(dprime):
        for r in range(dprime):
            for n in range(b[c, r]):
                g_edges.append((f"e{c}_{r}_{n}", f"v{c}", f"v{r}"))
    g = Graph(g_vertices, g_edges)
    h = Graph(h_vertices, h_edges)

    vmap = {f"w{i}": f"v{i}" for i in range(d)}
    xi0: dict[str, str] = {}
    xi1: dict[str, str] = {}
    for c in range(d):
        for r in range(d):
            mult = a[c, r]
            for n in range(mult):
                xi0[f"y{c}_{r}_{n}"] = f"e{c}_{r}_{2 * n}"
                xi1[f"y{c}_{r}_{n}"] = f"e{c}_{r}_{2 * n + 1}"
    return EmbeddingPair(g, h, vmap, xi0, dict(vmap), xi1)
