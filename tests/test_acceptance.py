"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single CRITERION line on success; failures surface as
ordinary assertion errors.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import random_lasso, random_walk_lasso
from shiftquot.algebra import (
    FgAbelianGroup,
    build_pair_complex,
    ruelle_k_theory,
    smith_normal_form,
    synthesize_seed,
)
from shiftquot.embedding import EmbeddingPair, check_standing_hypotheses
from shiftquot.geometry import (
    circle_specs,
    embedding_injectivity_check,
    fiber_classify,
    zeta_approx,
)
from shiftquot.graphs import Graph, IntMatrix
from shiftquot.metrics import (
    circle_distance,
    d_class,
    d_extended,
    d_quotient_graph,
    d_shift,
    d_stratum,
)
from shiftquot.rays import (
    LassoRay,
    canonical,
    class_equal,
    first_nonxi,
    kappa,
    lift_preimage,
    parse_ray,
    shift,
    shift_by,
    theta,
)
from shiftquot.smale import (
    BiLasso,
    apply_witness,
    bilasso_equal,
    bracket,
    inv_shift_tower,
    pair_related,
    pi_xi_tower,
    shift_bilasso,
    shift_tower,
    tower_distance,
)


def report(num: int, message: str) -> None:
    print(f"CRITERION {num}: PASS  {message}")


def timed(limit: float):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.elapsed < limit, f"runtime {self.elapsed:.1f}s over {limit}s"

    return _Timer()


def random_two_vertex_bundle(seed: int) -> EmbeddingPair:
    """Random standing-hypotheses seed on two vertices: the small graph is a
    loop plus a 2-cycle with random multiplicities; the big graph doubles
    every small edge and keeps spare parallels."""
    rng = random.Random(seed)
    h_counts = {("u", "u"): rng.randint(1, 2), ("u", "z"): rng.randint(1, 2), ("z", "u"): 1}
    g_vertices = ["u", "z"]
    h_vertices = ["a", "b"]
    hv_to_gv = {"a": "u", "b": "z"}
    h_edges, g_edges = [], []
    xi0, xi1 = {}, {}
    for (s, t), mult in h_counts.items():
        hs = "a" if s == "u" else "b"
        ht = "a" if t == "u" else "b"
        spare = rng.randint(1, 2)
        for n in range(mult):
            y = f"y_{s}{t}_{n}"
            h_edges.append((y, hs, ht))
            e0, e1 = f"e_{s}{t}_{2*n}", f"e_{s}{t}_{2*n+1}"
            g_edges.append((e0, s, t))
            g_edges.append((e1, s, t))
            xi0[y] = e0
            xi1[y] = e1
        for k in range(spare):
            g_edges.append((f"s_{s}{t}_{k}", s, t))
    g_edges.append(("s_zz_0", "z", "z"))  # spare loop keeps things primitive
    p = EmbeddingPair(Graph(g_vertices, g_edges), Graph(h_vertices, h_edges),
                      hv_to_gv, xi0, dict(hv_to_gv), xi1)
    assert check_standing_hypotheses(p).standing()
    return p


@pytest.fixture(scope="module")
def twov_random():
    return random_two_vertex_bundle(977)


def redigit(p, x: LassoRay, rng: random.Random) -> LassoRay:
    """Swap a random subset of doubled edges for their partners (keeps the
    quotient image, hence frequently produces nearby rays)."""
    swap = lambda e: p.partner(e) if p.in_image(e) and rng.random() < 0.5 else e
    return LassoRay.make(p.g, [swap(e) for e in x.prefix], [swap(e) for e in x.cycle])


# -- 1 ---------------------------------------------------------------------------


def test_criterion_01_hypothesis_gate(full2, full3):
    with timed(1.0) as t:
        rep2 = check_standing_hypotheses(full2)
        assert not rep2.h2.passed and rep2.h2.witness == "edge h"
        assert rep2.h0.passed and rep2.h1.passed and rep2.primitive.passed
        rep3 = check_standing_hypotheses(full3)
        assert rep3.standing()
    report(1, f"gate decisions in {t.elapsed * 1e3:.1f} ms")


# -- 2 ---------------------------------------------------------------------------


def _corpus_pairs(p, rng, count, max_prefix=8):
    pairs = []
    while len(pairs) < count:
        x = random_lasso(p, rng, max_prefix=max_prefix)
        y = redigit(p, x, rng) if rng.random() < 0.4 else random_lasso(p, rng, max_prefix=max_prefix)
        if kappa(p, x) == kappa(p, y):
            pairs.append((x, y))
    return pairs


def _corpus_pairs_walk(p, rng, count):
    pairs = []
    while len(pairs) < count:
        x = random_walk_lasso(p.g, rng, rng.randint(0, 6))
        y = redigit(p, x, rng) if rng.random() < 0.5 else random_walk_lasso(p.g, rng, rng.randint(0, 6))
        if kappa(p, x) == kappa(p, y) != math.inf:
            pairs.append((x, y))
    return pairs


def test_criterion_02_metric_axioms(full3, twov_random):
    rng = random.Random(20_002)
    with timed(60.0) as t:
        n_checked = 0
        for p, pairs, triples in (
            (full3, _corpus_pairs(full3, rng, 5200), 3600),
            (twov_random, _corpus_pairs_walk(twov_random, rng, 800), 600),
        ):
            for x, y in pairs:
                d = d_stratum(p, x, y)
                assert d == d_stratum(p, y, x)  # symmetry
                dg = d_shift(x, y)
                assert d_quotient_graph(p, x, y) <= d <= 3 * dg  # bounds
                lam = d - d_quotient_graph(p, x, y)
                assert lam <= 2 * dg
                assert circle_distance(theta(p, x), theta(p, y)) <= dg
                assert (d == 0) == class_equal(p, x, y)  # separation
                n_checked += 1
            made = 0
            while made < triples:
                x, y = pairs[rng.randrange(len(pairs))]
                z, _ = pairs[rng.randrange(len(pairs))]
                if kappa(p, z) != kappa(p, x):
                    continue
                made += 1
                assert d_stratum(p, x, y) <= d_stratum(p, x, z) + d_stratum(p, z, y)
                n_checked += 1
        assert n_checked >= 10_000
    report(2, f"{n_checked} exact axiom checks in {t.elapsed:.1f} s")


# -- 3 ---------------------------------------------------------------------------


def test_criterion_03_expansiveness(full3):
    rng = random.Random(20_003)
    with timed(30.0) as t:
        x = parse_ray(full3.g, "c;a")
        y = parse_ray(full3.g, "c,b;a")
        d0 = d_stratum(full3, x, y)
        d1 = d_stratum(full3, shift(x), shift(y))
        assert d1 == 8 * d0  # the witness pair attains the extreme ratio
        hits = 0
        for xx, yy in _corpus_pairs(full3, rng, 6000, max_prefix=6):
            d = d_stratum(full3, xx, yy)
            if d == 0 or d > Fraction(1, 4):
                continue
            hits += 1
            ds = d_stratum(full3, shift(xx), shift(yy))
            assert 2 * d <= ds <= 8 * d
        assert hits >= 1000
    report(3, f"{hits} expanding pairs, witness ratio 8, in {t.elapsed:.1f} s")


# -- 4 ---------------------------------------------------------------------------


def test_criterion_04_lifting(full3):
    rng = random.Random(20_004)
    with timed(30.0) as t:
        done = 0
        while done < 1000:
            x = random_lasso(full3, rng)
            w = redigit(full3, x, rng) if rng.random() < 0.6 else random_lasso(full3, rng)
            first = rng.choice(full3.g.edges)
            y = LassoRay.make(full3.g, (first,) + w.prefix, w.cycle)
            if kappa(full3, x) != kappa(full3, shift(y)):
                continue
            dxsy = d_stratum(full3, x, shift(y))
            if dxsy > Fraction(1, 2):
                continue
            done += 1
            z = lift_preimage(full3, x, y)
            assert class_equal(full3, shift(z), x)
            assert d_extended(full3, z, y).hi <= dxsy / 2
    report(4, f"{done} lifts verified exactly in {t.elapsed:.1f} s")


# -- 5 ---------------------------------------------------------------------------


def test_criterion_05_zeta_suite(full3):
    rng = random.Random(20_005)
    with timed(60.0) as t:
        for _ in range(400):
            x = random_lasso(full3, rng, finite=rng.random() < 0.7)
            v, b = zeta_approx(full3, x, depth=12)
            assert abs(v) <= 1 + float(b)
        count = 0
        while count < 300:
            x = random_lasso(full3, rng)
            y = random_lasso(full3, rng)
            vx, bx = zeta_approx(full3, x, depth=12)
            vy, by = zeta_approx(full3, y, depth=12)
            d = d_extended(full3, x, y, depth=12)
            assert abs(vx - vy) <= 8 * float(d.hi) + float(bx + by) + 1e-9
            count += 1
        count = 0
        while count < 300:
            x = random_lasso(full3, rng)
            if kappa(full3, x) == 0:
                continue
            count += 1
            n = first_nonxi(full3, x)
            vx, bx = zeta_approx(full3, x, depth=14)
            vs, bs = zeta_approx(full3, shift_by(x, n), depth=14)
            th = cmath.exp(2j * math.pi * float(theta(full3, x).turns))
            lhs = vx - (1 - 2.0 ** (1 - n)) * th
            rhs = 2.0 ** (-3 - n) * vs
            assert abs(lhs - rhs) <= float(bx) + float(bs) + 1e-9
        inj = embedding_injectivity_check(full3, depth=6)
        assert inj.injective and inj.classes > 500
    report(5, f"bound/Lipschitz/recursion + {inj.classes} classes injective in {t.elapsed:.1f} s")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_06_figure_geometry(full3):
    with timed(10.0) as t:
        specs = [s for s in circle_specs(full3, 1, 4) if s.levels]
        by_n: dict[int, list] = {}
        for s in specs:
            by_n.setdefault(s.levels[0][0], []).append(s)
        assert [len(by_n[n]) for n in (1, 2, 3, 4)] == [1, 2, 4, 8]
        for n, group in by_n.items():
            angles = sorted(s.levels[0][1].turns for s in group)
            assert angles == [Fraction(j, 2 ** (n - 1)) for j in range(2 ** (n - 1))]
            for s in group:
                assert s.radius == Fraction(1, 2 ** (3 + n))
                j = s.levels[0][1].turns * 2 ** (n - 1)
                expected = (1 - 2.0 ** (1 - n)) * cmath.exp(
                    2j * math.pi * float(j) * 2.0 ** (1 - n)
                )
                assert abs(s.center_value() - expected) <= 1e-9
    report(6, f"counts 1/2/4/8 with exact centers and radii in {t.elapsed * 1e3:.0f} ms")


# -- 7 ---------------------------------------------------------------------------


def test_criterion_07_k_theory(full3):
    rng = random.Random(20_007)
    with timed(30.0) as t:
        kt = ruelle_k_theory(full3)
        assert kt.k0_ruelle_s == FgAbelianGroup(1, (2,))
        assert kt.k1_ruelle_s == FgAbelianGroup(1)
        assert kt.k0_ruelle_u == FgAbelianGroup(1, (2,))
        assert kt.k1_ruelle_u == FgAbelianGroup(1)
        for _ in range(1000):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            snf = smith_normal_form(a)
            assert (snf.u @ a @ snf.v).entries == snf.d.entries
            assert abs(snf.u.determinant()) == 1
            assert abs(snf.v.determinant()) == 1
            nonzero = [d for d in snf.diagonal() if d]
            assert all(d > 0 for d in nonzero)
            for da, db in zip(nonzero, nonzero[1:]):
                assert db % da == 0
    report(7, f"K-groups exact + 1000 SNF certificates in {t.elapsed:.1f} s")


# -- 8 ---------------------------------------------------------------------------


def _random_chain(rng, max_factors=3, cap=12):
    chain = []
    d = rng.randint(2, cap)
    for _ in range(rng.randint(0, max_factors)):
        if d > cap:
            break
        chain.append(d)
        d *= rng.randint(1, 3)
    return tuple(chain)


def test_criterion_08_synthesis_roundtrip():
    rng = random.Random(20_008)
    with timed(120.0) as t:
        done = 0
        while done < 20:
            k1 = FgAbelianGroup(rng.randint(0, 2), _random_chain(rng))
            k0 = FgAbelianGroup(0, _random_chain(rng))
            p = synthesize_seed(k0, k1)
            assert check_standing_hypotheses(p).standing()
            kt = ruelle_k_theory(p)
            assert kt.k0_ruelle_s == FgAbelianGroup(k1.rank, k0.torsion)
            assert kt.k1_ruelle_s == k1
            done += 1
    report(8, f"{done} synthesized bundles recompute their targets in {t.elapsed:.1f} s")


# -- 9 ---------------------------------------------------------------------------


def test_criterion_09_pair_complex(full3):
    with timed(120.0) as t:
        pc = build_pair_complex(full3, word_cap=10**7)
        assert pc.containments_ok
        assert len(pc.vertex_cells[6]) == 2 * len(pc.h6)
        assert pc.quotient_rank == len(pc.h6) == 1
        assert pc.terminal_boundary_vanishes()
    report(9, f"containments, |V6| = 2|H6|, rank {pc.quotient_rank}, boundary zero in {t.elapsed:.1f} s")


# -- 10 --------------------------------------------------------------------------


M_DEPTH = 8


def _tower(p, bilasso):
    return pi_xi_tower(p, bilasso, M_DEPTH)


def _random_bilasso(p, rng, window=4):
    g = p.g
    past = (rng.choice(g.edges),)
    core = tuple(rng.choice(g.edges) for _ in range(rng.randint(0, 2 * window)))
    future = (rng.choice(g.edges),)
    return BiLasso.make(g, past, core, future, origin=1 - len(core) // 2)


def _close_variants(p, rng, count=3):
    """Bi-lassos agreeing on a window around the origin, free elsewhere."""
    g = p.g
    shared = tuple(rng.choice(g.edges) for _ in range(9))  # positions -4..4
    out = []
    for _ in range(count):
        left = tuple(rng.choice(g.edges) for _ in range(2))
        right = tuple(rng.choice(g.edges) for _ in range(2))
        past = (rng.choice(g.edges),)
        future = (rng.choice(g.edges),)
        core = left + shared + right
        out.append(BiLasso.make(g, past, core, future, origin=-4 - len(left)))
    return out


def _assert_c1_c2(p, rng):
    slack = Fraction(3, 2**M_DEPTH)
    g = p.g
    hits = [0, 0]
    # C1: equal from position -1 on, free below
    shared = tuple(rng.choice(g.edges) for _ in range(8))
    x = BiLasso.make(g, (rng.choice(g.edges),), (rng.choice(g.edges),) + shared, (rng.choice(g.edges),), origin=-2)
    y = BiLasso.make(g, (rng.choice(g.edges),), (rng.choice(g.edges),) + shared, (rng.choice(g.edges),), origin=-2)
    tx, ty = _tower(p, x), _tower(p, y)
    if tower_distance(p, tx, ty).hi <= Fraction(1, 2) and bracket(p, tx, ty) == ty:
        hits[0] = 1
        d = tower_distance(p, tx, ty)
        ds = tower_distance(p, _tower(p, shift_bilasso(x)), _tower(p, shift_bilasso(y)))
        assert ds.hi <= d.hi / 2 + slack
    # C2: equal through position 3, free beyond
    shared2 = tuple(rng.choice(g.edges) for _ in range(8))

    def mk():
        tail = tuple(rng.choice(g.edges) for _ in range(3))
        return BiLasso.make(g, (shared2[0],), shared2[1:] + tail, (rng.choice(g.edges),), origin=-3)

    x2, y2 = mk(), mk()
    tx2, ty2 = _tower(p, x2), _tower(p, y2)
    if tower_distance(p, tx2, ty2).hi <= Fraction(1, 2) and bracket(p, tx2, ty2) == tx2:
        hits[1] = 1
        d = tower_distance(p, pi_xi_tower(p, x2, M_DEPTH + 1), pi_xi_tower(p, y2, M_DEPTH + 1))
        # sigma^{-1} drops a level: compare the deep tails
        dinv = tower_distance(
            p,
            inv_shift_tower(pi_xi_tower(p, x2, M_DEPTH + 1)),
            inv_shift_tower(pi_xi_tower(p, y2, M_DEPTH + 1)),
        )
        assert dinv.hi <= d.hi / 2 + slack
    return hits


def test_criterion_10_smale_suite(full2, full3):
    rng = random.Random(20_010)
    with timed(120.0) as t:
        c1_hits = c2_hits = 0
        for p in (full2, full3):
            # B1 exact
            for _ in range(8):
                x = _tower(p, _random_bilasso(p, rng))
                assert bracket(p, x, x) == x
            # B2-B4 levelwise on close triples
            for _ in range(12):
                xs = _close_variants(p, rng, 3)
                tx, ty, tz = (_tower(p, b) for b in xs)
                yz = bracket(p, ty, tz)
                assert bracket(p, tx, yz) == bracket(p, tx, tz)  # B2
                xy = bracket(p, tx, ty)
                assert bracket(p, xy, tz) == bracket(p, tx, tz)  # B3
                sx, sy = (_tower(p, shift_bilasso(b)) for b in xs[:2])
                assert bracket(p, sx, sy) == shift_tower(p, bracket(p, tx, ty))  # B4
            for _ in range(10):
                h1, h2 = _assert_c1_c2(p, rng)
                c1_hits += h1
                c2_hits += h2
        assert c1_hits >= 5 and c2_hits >= 5  # the contraction cases did fire
        # pair relation vs metric on 100 sampled pairs (FULL3)
        agree = 0
        for _ in range(100):
            x = _random_bilasso(full3, rng, window=2)
            roll = rng.random()
            if roll < 0.35:
                w = pair_related(full3, x, x)
                y = x
            elif roll < 0.6:
                y = BiLasso(
                    tuple(full3.partner(e) if full3.in_image(e) else e for e in x.past),
                    tuple(full3.partner(e) if full3.in_image(e) else e for e in x.core),
                    tuple(full3.partner(e) if full3.in_image(e) else e for e in x.future),
                    x.origin,
                )
                if any(not full3.in_image(e) for e in x.past + x.core + x.future):
                    y = x  # total swap needs an all-image path
            else:
                y = _random_bilasso(full3, rng, window=2)
            w = pair_related(full3, x, y)
            metric_zero = all(
                d_class(
                    full3,
                    canonical(full3, x.ray_from(1 - n)),
                    canonical(full3, y.ray_from(1 - n)),
                    16,
                ).lo
                == 0
                for n in range(M_DEPTH + 1)
            )
            assert (w is not None) == metric_zero
            if w is not None:
                assert bilasso_equal(apply_witness(full3, w, x), y)
            agree += 1
        # s-injectivity: equal right tails, different pasts, never related
        for _ in range(50):
            core = tuple(rng.choice(full3.g.edges) for _ in range(4))
            x = BiLasso.make(full3.g, ("c",), core, ("a",))
            y = BiLasso.make(full3.g, ("b",), core, ("a",))
            assert pair_related(full3, x, y) is None
    report(10, f"bracket axioms, C1/C2, {agree} relation/metric agreements in {t.elapsed:.1f} s")


# -- 11 --------------------------------------------------------------------------


def _oracle_fiber(p, base):
    """Independent classification: direct scans for the doubled/spare counts
    and a float-geometry clustering of sampled coordinates for the circle
    count."""
    q = p.quotient
    doubled = {q.tau[p.xi0_edges[y]] for y in p.h.edges}
    cyc_doubled = sum(1 for e in base.cycle if e in doubled)
    cyc_spare = len(base.cycle) - cyc_doubled
    pre_doubled = sum(1 for e in base.prefix if e in doubled)
    pre_spare = len(base.prefix) - pre_doubled
    if cyc_doubled == 0:
        return ("points", 2**pre_doubled)
    if cyc_spare > 0:
        return ("totally_disconnected", None)
    # finite spare count: enumerate compatible stems up to the last spare
    n_max = 0
    for i, e in enumerate(base.prefix, start=1):
        if e not in doubled:
            n_max = i
    stems = [((), None)]
    for i in range(1, n_max + 1):
        new = []
        for stem, at in stems:
            for e in q.fiber(base.edge_at(i)):
                if at is None or p.g.source(e) == at:
                    new.append((stem + (e,), p.g.target(e)))
        stems = new
    # each stem's coordinate set should be one circle, disjoint from the others
    circles = []
    for stem, at in stems:
        samples = []
        rng = random.Random(hash(stem) & 0xFFFF)
        for _ in range(6):
            tail_len = rng.randint(8, 12)
            edges = list(stem)
            node = at if at is not None else rng.choice(p.g.vertices)
            for j in range(n_max + 1, n_max + 1 + tail_len):
                options = [
                    e for e in q.fiber(base.edge_at(j)) if p.g.source(e) == node
                ]
                e = rng.choice(options)
                edges.append(e)
                node = p.g.target(e)
            # close with the doubled cycle image
            cyc = []
            start = node
            for j in range(len(base.cycle)):
                options = [
                    e
                    for e in q.fiber(base.cycle[(n_max + tail_len + j) % len(base.cycle)])
                    if p.g.source(e) == node
                ]
                e = options[0]
                cyc.append(e)
                node = p.g.target(e)
            if node != start:
                continue
            try:
                ray = LassoRay.make(p.g, edges, cyc)
            except Exception:
                continue
            v, _ = zeta_approx(p, ray, depth=14)
            samples.append(v)
        center = sum(samples) / len(samples)
        radius = sum(abs(s - center) for s in samples) / len(samples)
        circles.append((center, radius))
    # cluster: stems whose circles coincide merge
    merged = []
    for c, r in circles:
        for k, (c2, r2) in enumerate(merged):
            if abs(c - c2) < 1e-6 and abs(r - r2) < 1e-6:
                break
        else:
            merged.append((c, r))
    return ("circles", len(merged))


def test_criterion_11_fiber_oracle(full3):
    q = full3.quotient
    qg = q.graph
    with timed(120.0) as t:
        bases = []
        for pre_len in range(0, 5):
            for pre in _words(qg, pre_len):
                for cyc_len in (1, 2):
                    for cyc in _words(qg, cyc_len):
                        try:
                            bases.append(LassoRay.make(qg, pre, cyc))
                        except Exception:
                            continue
        bases = list({(b.prefix, b.cycle): b for b in bases}.values())
        checked = 0
        for base in bases:
            got = fiber_classify(full3, base)
            kind, count = _oracle_fiber(full3, base)
            assert got.kind == kind, (base, got, kind)
            if count is not None:
                assert got.count == count, (base, got, count)
            checked += 1
        # the named spec cases
        assert fiber_classify(full3, parse_ray(qg, ";c'")).render() == "Points(1)"
        assert fiber_classify(full3, parse_ray(qg, ";c',h'")).render() == "TotallyDisconnected"
    report(11, f"{checked} fibers match the oracle in {t.elapsed:.1f} s")


def _words(g, n):
    if n == 0:
        return [()]
    out = []

    def ext(word, at):
        if len(word) == n:
            out.append(tuple(word))
            return
        for e in g.edges if at is None else g.out_edges(at):
            if at is not None and g.source(e) != at:
                continue
            word.append(e)
            ext(word, g.target(e))
            word.pop()

    ext([], None)
    return out
