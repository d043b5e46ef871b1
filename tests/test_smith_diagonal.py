"""The two-stage Smith diagonal against its definition.

The definition (`reference.ref_smith_diagonal`) eliminates the whole
matrix modulo a maximal nonzero minor.  The package pivots on +-1 entries
over Z first and reduces only the leftover block, modulo a gcd of its
minors when the block is square and nonsingular.  Both must give the same
tuple on drawn matrices (rectangular, singular, all-zero, with no +-1
entry, with a common factor, with leftover blocks of size 0, 1 and 2) and
on I - A of drawn seeds, synthesized seeds and 48- and 64-vertex graphs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shiftquot import algebra
from shiftquot.algebra import FgAbelianGroup, _smith_diagonal, _unit_pivots, synthesize_seed
from shiftquot.graphs import Graph, IntMatrix, adjacency_matrix

from conftest import matrices, seeds
from reference import ref_smith_diagonal, ref_zero


def matrix(rows, cols, entries=()):
    data = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
    return IntMatrix(rows, cols, tuple(map(tuple, data)))


@st.composite
def scaled(draw, values=st.integers(-9, 9), max_size=7):
    """Matrices of 0 to max_size rows and columns whose entries share a
    drawn factor 1, 2, 3 or 6."""
    size = st.integers(0, max_size)
    a, factor = draw(matrices(size, size, values)), draw(st.sampled_from([1, 1, 2, 3, 6]))
    return IntMatrix(a.rows, a.cols, tuple(tuple(factor * x for x in row) for row in a.entries))


NO_UNITS = st.sampled_from([0, 2, -2, 3, -3, 4, 5, -6, 7, 9, 10, -15])


@settings(max_examples=400, deadline=None)
@given(scaled())
def test_drawn_matrices_match_the_reference(a):
    assert _smith_diagonal(a) == ref_smith_diagonal(a)


@settings(max_examples=300, deadline=None)
@given(scaled(NO_UNITS))
def test_matrices_with_no_unit_entry_match_the_reference(a):
    assert _unit_pivots(a)[0] == 0
    assert _smith_diagonal(a) == ref_smith_diagonal(a)


@settings(max_examples=200, deadline=None)
@given(scaled(st.integers(-1, 1), 6))
def test_sign_matrices_match_the_reference(a):
    """Entries in {-1, 0, 1}: every pivot is a unit, of either sign."""
    assert _smith_diagonal(a) == ref_smith_diagonal(a)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(1, 3),
    st.sampled_from([1, -1]),
    st.data(),
)
def test_leftover_blocks_of_size_0_1_2(k, units, sign, data):
    """A = [[s, r], [c, S + s c r]] with s = +-1 leaves S after one pivot;
    nesting gives `units` pivots.  S (k x k) has no +-1 entry, and r has
    no 1, so the first unit in row-major order is the corner s."""
    s_entries = data.draw(st.lists(NO_UNITS, min_size=k * k, max_size=k * k))
    m = [s_entries[i * k:(i + 1) * k] for i in range(k)]
    small = st.integers(-3, 3).filter(lambda x: x != 1)
    for _ in range(units):
        size = len(m)
        r = data.draw(st.lists(small, min_size=size, max_size=size))
        c = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        m = [[sign] + r] + [[ci] + [x + sign * ci * rj for x, rj in zip(row, r)] for ci, row in zip(c, m)]
    a = IntMatrix.from_rows(m)
    done, leftover = _unit_pivots(a)
    assert done == units and len(leftover) == k
    assert _smith_diagonal(a) == ref_smith_diagonal(a)


def test_edge_shapes():
    for a in (matrix(0, 0), matrix(0, 3), matrix(3, 0), ref_zero(3, 4), ref_zero(1, 1)):
        assert _smith_diagonal(a) == ref_smith_diagonal(a) == (0,) * min(a.rows, a.cols)
    for rows in ([[-1]], [[7]], [[-7]], [[6, 4]], [[6], [4]], [[0, 0], [0, 5]], [[4, 6], [6, 4]]):
        a = IntMatrix.from_rows(rows)
        assert _smith_diagonal(a) == ref_smith_diagonal(a)
    assert _smith_diagonal(IntMatrix.from_rows([[4, 6], [6, 4]])) == (2, 10)
    assert _smith_diagonal(IntMatrix.from_rows([[2, 0], [0, 2]])) == (2, 2)
    assert _smith_diagonal(IntMatrix.from_rows([[-1, 2], [3, 4]])) == (1, 10)


@pytest.mark.parametrize(
    "rows, moduli, diagonal",
    [
        ([[2, 3], [3, 2]], [], (1, 5)),
        ([[4, 6], [6, 4]], [2], (2, 10)),
        ([[2, 3, 0], [0, 2, 3], [3, 0, 2]], [], (1, 1, 35)),
        ([[6, 0], [0, 10]], [2], (2, 30)),
        ([[2, 4], [4, 2]], [2], (2, 6)),
    ],
)
def test_the_leftover_block_is_reduced_modulo_a_gcd_of_minors(monkeypatch, rows, moduli, diagonal):
    """A nonsingular leftover block is eliminated modulo gcd(det, (k-1)-minors),
    not modulo its determinant, and not at all when that gcd is 1."""
    seen = []
    chain = algebra._modular_chain

    def recording(m, modulus):
        seen.append(modulus)
        return chain(m, modulus)

    monkeypatch.setattr(algebra, "_modular_chain", recording)
    a = IntMatrix.from_rows(rows)
    assert _smith_diagonal(a) == diagonal == ref_smith_diagonal(a)
    assert seen == moduli


# -- I - A of seeds --------------------------------------------------------------


def identity_minus(g: Graph) -> IntMatrix:
    a = adjacency_matrix(g)
    return IntMatrix.identity(a.rows) - a


@settings(max_examples=150, deadline=None)
@given(seeds())
def test_drawn_seeds_match_the_reference(p):
    for g in (p.g, p.h):
        a = identity_minus(g)
        assert _smith_diagonal(a) == ref_smith_diagonal(a)
        assert _smith_diagonal(a.transpose()) == ref_smith_diagonal(a.transpose())


@pytest.mark.parametrize(
    "k0, k1",
    [
        (FgAbelianGroup(0), FgAbelianGroup(0)),
        (FgAbelianGroup(0, (4,)), FgAbelianGroup(1, (6,))),
        (FgAbelianGroup(0, (2, 6, 12)), FgAbelianGroup(2, (3, 9))),
        (FgAbelianGroup(0, (10, 30)), FgAbelianGroup(0, (12, 36))),
    ],
)
def test_synthesized_seeds_match_the_reference(k0, k1):
    p = synthesize_seed(k0, k1)
    for g in (p.g, p.h):
        a = identity_minus(g)
        assert _smith_diagonal(a) == ref_smith_diagonal(a)


def random_primitive_graph(n: int, mult_cap: int, density: float, seed: int) -> Graph:
    """A Hamiltonian cycle, a loop at v0 and random extra multiplicities."""
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(n):
            mult = rng.randint(1, mult_cap) if rng.random() < density else 0
            if j == (i + 1) % n or (i, j) == (0, 0):
                mult = max(mult, 1)
            edges += [(f"e{i}_{j}_{k}", f"v{i}", f"v{j}") for k in range(mult)]
    return Graph([f"v{i}" for i in range(n)], edges)


@pytest.mark.parametrize("n, mult_cap, density, seed", [(48, 2, 0.3, 48), (64, 2, 0.3, 64), (24, 9, 0.6, 9)])
def test_large_graphs_match_the_reference(n, mult_cap, density, seed):
    a = identity_minus(random_primitive_graph(n, mult_cap, density, seed))
    assert _smith_diagonal(a) == ref_smith_diagonal(a)
