import dataclasses
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from shiftquot import algebra, embedding
from shiftquot.algebra import (
    SYNTH_EDGE_BUDGET,
    AlgebraError,
    FgAbelianGroup,
    RuelleKTheory,
    SmithDecomposition,
    bowen_franks,
    build_pair_complex,
    cokernel,
    homology_table,
    realize_group_matrix,
    ruelle_k_theory,
    smith_normal_form,
    synthesize_seed,
)
from shiftquot.embedding import EmbeddingPair, check_standing_hypotheses
from shiftquot.graphs import Graph, IntMatrix

from reference import ref_pair_cells, ref_zero


def loops(n):
    return Graph(["v"], [(f"e{i}", "v", "v") for i in range(n)])


def verify_snf(a: IntMatrix):
    snf = smith_normal_form(a)
    assert (snf.u @ a @ snf.v).entries == snf.d.entries
    assert abs(snf.u.determinant()) == 1
    assert abs(snf.v.determinant()) == 1
    diag = snf.diagonal()
    for i in range(min(a.rows, a.cols)):
        for j in range(min(a.rows, a.cols)):
            if i != j:
                assert snf.d[i, j] == 0 or (i < j and False)
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros come after all nonzero factors
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        elif seen_zero:
            raise AssertionError("zero before nonzero factor")
    return snf


def test_snf_examples():
    snf = verify_snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert snf.diagonal() == (1, 6)
    snf = verify_snf(ref_zero(2, 3))
    assert snf.diagonal() == (0, 0)
    snf = verify_snf(IntMatrix.from_rows([[-2]]))
    assert snf.diagonal() == (2,)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_random(rows, cols, data):
    entries = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    verify_snf(IntMatrix.from_rows(entries))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8), st.data())
def test_snf_low_rank_products(rows, cols, inner, data):
    """B @ C with B rows x inner and C inner x cols: the singular path."""
    def draw(r, c):
        return IntMatrix.from_rows([[data.draw(st.integers(-6, 6)) for _ in range(c)] for _ in range(r)])

    a = draw(rows, inner) @ draw(inner, cols) if inner else ref_zero(rows, cols)
    rank, _, _ = a.bareiss()
    assert rank <= min(rows, cols, inner)
    snf = verify_snf(a)
    assert snf.diagonal().count(0) == min(rows, cols) - rank


def test_snf_48_vertex_scale():
    rng = random.Random(48)
    n = 48
    a = IntMatrix.from_rows(
        [[(i == j) - rng.randint(0, 9) for j in range(n)] for i in range(n)]
    )
    snf = smith_normal_form(a)
    group = cokernel(a)
    assert group.rank == 0 and 0 not in snf.diagonal()
    assert math.prod(group.torsion) == abs(a.determinant()) > 1
    assert "_certificate" not in vars(snf)  # U and V are built only when read


def test_snf_rank_deficient_40():
    """U @ D @ V with unimodular U, V and a known diagonal D of rank 34."""
    rng = random.Random(40)
    n = 40
    diag = [1] * 29 + [2, 2, 6, 12, 60] + [0] * 6
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(400):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        if rng.random() < 0.5:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        else:
            for row in rows:
                row[i] += c * row[j]
    a = IntMatrix.from_rows(rows)
    assert a.bareiss()[0] == 34
    assert smith_normal_form(a).diagonal() == tuple(diag)
    assert cokernel(a) == FgAbelianGroup(6, (2, 2, 6, 12, 60))


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[-2]])) == FgAbelianGroup(0, (2,))
    assert cokernel(IntMatrix.from_rows([[0]])) == FgAbelianGroup(1)
    assert cokernel(IntMatrix.from_rows([[0, -1], [0, 0]])) == FgAbelianGroup(1)


def test_cokernel_unimodular_invariance():
    rng = random.Random(31)
    a = IntMatrix.from_rows([[2, 4, 0], [0, 6, 3], [1, 1, 1]])
    base = cokernel(a)
    for _ in range(20):
        u = _random_unimodular(3, rng)
        v = _random_unimodular(3, rng)
        assert cokernel(u @ a @ v) == base


def _random_unimodular(n, rng):
    m = IntMatrix.identity(n)
    rows = [list(r) for r in m.entries]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def test_rank_nullity():
    rng = random.Random(32)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        diag = smith_normal_form(a).diagonal()
        rank = sum(1 for d in diag if d)
        assert rank == a.bareiss()[0]


def test_bowen_franks():
    assert bowen_franks(loops(2)) == FgAbelianGroup(0)
    assert bowen_franks(loops(3)) == FgAbelianGroup(0, (2,))
    g = Graph(["u", "w"], [("e", "u", "u"), ("f", "w", "w")])
    assert bowen_franks(g) == FgAbelianGroup(2)


def test_fg_group_canonicalization():
    assert FgAbelianGroup.of(0, [2, 3]) == FgAbelianGroup(0, (6,))
    assert FgAbelianGroup.of(1, [2, 2]) == FgAbelianGroup(1, (2, 2))
    assert FgAbelianGroup.of(0, [4, 6]) == FgAbelianGroup(0, (2, 12))
    assert FgAbelianGroup(1, (2,)).render() == "Z (+) Z/2"
    assert FgAbelianGroup(0, ()).render() == "0"
    with pytest.raises(AlgebraError):
        FgAbelianGroup(0, (3, 4))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(-40, 40), max_size=6))
def test_fg_group_of_matches_certified_snf(rank, factors):
    group = FgAbelianGroup.of(rank, factors)
    cyclic = [abs(f) for f in factors if f]
    assert group.rank == rank + factors.count(0)
    assert all(b % a == 0 for a, b in zip(group.torsion, group.torsion[1:]))
    assert math.prod(group.torsion) == math.prod(cyclic)
    if cyclic:
        d = [[f if i == j else 0 for j in range(len(cyclic))] for i, f in enumerate(cyclic)]
        snf = verify_snf(IntMatrix.from_rows(d))
        assert group.torsion == tuple(x for x in snf.diagonal() if x > 1)


def test_certificate_must_reproduce_the_diagonal():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    wrong = SmithDecomposition(a, (2, 3))
    with pytest.raises(AlgebraError):
        wrong.u


def test_cokernel_leaves_the_dense_d_unbuilt(monkeypatch):
    made = []
    real = algebra.smith_normal_form
    monkeypatch.setattr(algebra, "smith_normal_form", lambda a: made.append(real(a)) or made[-1])
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert cokernel(a) == FgAbelianGroup(0, (2, 6, 12))
    (snf,) = made
    assert snf.diagonal() == (2, 6, 12) and "d" not in vars(snf)
    assert (snf.u @ a @ snf.v).entries == snf.d.entries and "d" in vars(snf)


def test_k_theory_holds_the_eight_groups_and_reads_no_report(full3, monkeypatch):
    assert [f.name for f in dataclasses.fields(RuelleKTheory)] == [
        "k0_stable", "k1_stable", "k0_unstable", "k1_unstable",
        "k0_ruelle_s", "k1_ruelle_s", "k0_ruelle_u", "k1_ruelle_u",
    ]
    calls = []
    real = embedding.check_standing_hypotheses
    monkeypatch.setattr(embedding, "check_standing_hypotheses", lambda p: calls.append(p) or real(p))
    fresh = EmbeddingPair(full3.g, full3.h, full3.xi0_vertices, full3.xi0_edges,
                          full3.xi1_vertices, full3.xi1_edges)
    assert ruelle_k_theory(fresh) == ruelle_k_theory(full3)
    assert calls == []
    assert fresh.hypotheses.standing() and calls == [fresh]  # the counter sees a read


def test_ruelle_k_theory_full3(full3):
    assert full3.hypotheses.standing()
    kt = ruelle_k_theory(full3)
    assert kt.k0_ruelle_s == FgAbelianGroup(1, (2,))
    assert kt.k1_ruelle_s == FgAbelianGroup(1)
    assert kt.k0_ruelle_u == FgAbelianGroup(1, (2,))
    assert kt.k1_ruelle_u == FgAbelianGroup(1)
    assert kt.k0_stable.matrix.entries == ((3,),)
    assert kt.k0_stable.automorphism == "A_G^T"
    assert kt.k1_stable.matrix.entries == ((1,),)
    assert kt.k0_unstable.automorphism == "A_G^-1"


def test_ruelle_k_theory_full2_matrices(full2):
    # A_G = [2], A_H = [1]: K0(Rs) = Z? no: coker(1-2)=0 plus ker(1-1)=Z -> Z
    assert not full2.hypotheses.standing()  # H2 fails; formulas still computed
    kt = ruelle_k_theory(full2)
    assert kt.k0_ruelle_s == FgAbelianGroup(1)
    assert kt.k1_ruelle_s == FgAbelianGroup(1)


def test_homology_table(full3):
    rows = homology_table(full3)
    assert len(rows) == 6
    s0 = rows[0]
    assert (s0.invariant, s0.degree) == ("s", 0)
    assert s0.group.matrix.entries == ((3,),)
    s1 = rows[1]
    assert s1.group.matrix.entries == ((1,),)
    assert {r.automorphism for r in rows[:4]} == {"A_G", "A_H", "A_G^T", "A_H^T"}
    assert all(r.group is None for r in rows if r.degree >= 2)


def test_pair_complex_full3(full3):
    pc = build_pair_complex(full3)
    assert pc.containments_ok
    assert len(pc.vertex_cells[6]) == 2 * len(pc.h6)
    assert len(pc.h6) == 1
    assert pc.quotient_rank == len(pc.h6) == 1
    assert pc.terminal_boundary_vanishes()
    assert len(pc.vertex_cells[0]) == 3**6
    edge_cells = ref_pair_cells(full3, 7)
    assert len(edge_cells[0]) == pc.edge_counts[0] == 3**7
    # initial map of the degree-1 edge cell lands in the diagonal
    for e in edge_cells[1]:
        assert (e[0][:-1], e[1][:-1]) in pc.vertex_cells[0]


def test_pair_complex_twovertex(twovertex):
    pc = build_pair_complex(twovertex)
    assert pc.containments_ok
    assert len(pc.vertex_cells[6]) == 2 * len(pc.h6)
    assert pc.quotient_rank == len(pc.h6)
    assert pc.terminal_boundary_vanishes()


def test_pair_complex_cap(full3):
    # the cap refuses only the enumeration of cells, never the counts
    pc = build_pair_complex(full3, word_cap=10)
    assert pc.edge_counts[0] == 3**7
    with pytest.raises(AlgebraError, match="2187 G-paths of length 7 exceed cap 10"):
        pc.vertex_cells


@pytest.mark.parametrize(
    "target,d0,m0",
    [
        (FgAbelianGroup(0, (2,)), 1, 1),
        (FgAbelianGroup(1), 1, 1),
        (FgAbelianGroup(0), 1, 1),
        (FgAbelianGroup(2, (3, 6)), 3, 5),
    ],
)
def test_realize_group_matrix(target, d0, m0):
    a = realize_group_matrix(target, d0, m0)
    assert a.rows == a.cols >= d0
    assert all(x >= m0 for row in a.entries for x in row)
    assert cokernel(IntMatrix.identity(a.rows) - a) == target


def test_realize_rank_one_has_one_zero_factor():
    a = realize_group_matrix(FgAbelianGroup(1), 1, 1)
    diag = smith_normal_form(IntMatrix.identity(a.rows) - a).diagonal()
    assert sum(1 for d in diag if d == 0) == 1


def test_synthesize_roundtrip():
    k1 = FgAbelianGroup(1)
    k0 = FgAbelianGroup(0, (2,))
    p = synthesize_seed(k0, k1)
    assert check_standing_hypotheses(p).standing()
    kt = ruelle_k_theory(p)
    assert kt.k0_ruelle_s == FgAbelianGroup(1, (2,))
    assert kt.k1_ruelle_s == FgAbelianGroup(1)


def test_synthesize_trivial():
    p = synthesize_seed(FgAbelianGroup(0), FgAbelianGroup(0))
    assert check_standing_hypotheses(p).standing()
    kt = ruelle_k_theory(p)
    assert kt.k0_ruelle_s == FgAbelianGroup(0)
    assert kt.k1_ruelle_s == FgAbelianGroup(0)


def test_synthesize_rejects_free_k0():
    with pytest.raises(AlgebraError):
        synthesize_seed(FgAbelianGroup(1), FgAbelianGroup(0))


def test_synthesize_refuses_more_g_edges_than_the_budget():
    # G-edges are the entry sum of B: 800,032 for K1 = Z/100000
    with pytest.raises(AlgebraError, match=r"would have 800,032 G-edges, more than the budget of 250,000"):
        synthesize_seed(FgAbelianGroup(0, (4,)), FgAbelianGroup(0, (100000,)))
    # a long target is refused from its size alone, before A and B are built
    for k0, k1 in [(FgAbelianGroup(0), FgAbelianGroup(400)), (FgAbelianGroup(0, (2,) * 300), FgAbelianGroup(0))]:
        with pytest.raises(AlgebraError, match=r"would have at least [\d,]+ G-edges"):
            synthesize_seed(k0, k1)
    assert SYNTH_EDGE_BUDGET == 250_000


INVARIANTS_SURVEY = os.path.join(os.path.dirname(__file__), "..", "scripts", "invariants_survey.py")


def test_invariants_survey_script_rows_are_ok_and_aligned():
    proc = subprocess.run([sys.executable, INVARIANTS_SURVEY], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert len(rows) == 10 and all(row.endswith("  ok") for row in rows)
    labels = ["K1 target", "K0 torsion", "sizes", "recomputed K0", "recomputed K1", "check"]
    starts = [header.index(label) for label in labels]
    assert starts == sorted(starts) and starts[0] == 0
    for row in rows:
        # every cell starts at its header's column, after at least two spaces
        assert all(row[i - 2:i] == "  " and row[i] != " " for i in starts[1:]), row
