"""Cross-checks on the two-vertex seed: the one-vertex examples exercise the
digit arithmetic, these exercise endpoint bookkeeping."""

import math
import random
from fractions import Fraction

from conftest import random_walk_lasso
from shiftquot.metrics import d_extended, d_stratum
from shiftquot.rays import class_equal, kappa, lift_preimage, shift
from shiftquot.smale import (
    BiLasso,
    bracket,
    pi_xi_tower,
    shift_bilasso,
    shift_tower,
)


def _close_bilassos(p, rng, count=3):
    """Bi-lassos sharing a 9-edge window around the origin, random beyond."""
    g = p.g
    v = rng.choice(g.vertices)
    shared, at = [], v
    for _ in range(9):
        e = rng.choice(g.out_edges(at))
        shared.append(e)
        at = g.target(e)

    def close_cycle(anchor, forward):
        for _ in range(80):
            cyc, cur = [], anchor
            for _ in range(rng.randint(1, 3)):
                if forward:
                    e = rng.choice(g.out_edges(cur))
                    cyc.append(e)
                    cur = g.target(e)
                else:
                    options = [e for e in g.edges if g.target(e) == cur]
                    e = rng.choice(options)
                    cyc.append(e)
                    cur = g.source(e)
                if cur == anchor:
                    return tuple(cyc) if forward else tuple(reversed(cyc))
        return None

    out = []
    for _ in range(count):
        left, node = [], v
        for _ in range(2):
            options = [e for e in g.edges if g.target(e) == node]
            e = rng.choice(options)
            left.append(e)
            node = g.source(e)
        left.reverse()
        past = close_cycle(node, forward=False)
        right, node2 = [], at
        for _ in range(2):
            e = rng.choice(g.out_edges(node2))
            right.append(e)
            node2 = g.target(e)
        future = close_cycle(node2, forward=True)
        if past is None or future is None:
            return None
        core = tuple(left) + tuple(shared) + tuple(right)
        out.append(BiLasso.make(g, past, core, future, origin=-4 - len(left)))
    return out


def _redigit(p, x, rng):
    from shiftquot.rays import LassoRay

    swap = lambda e: p.partner(e) if p.in_image(e) and rng.random() < 0.5 else e
    return LassoRay.make(p.g, [swap(e) for e in x.prefix], [swap(e) for e in x.cycle])


def test_expansiveness_two_vertex(twovertex):
    rng = random.Random(61)
    checked = 0
    while checked < 800:
        x = random_walk_lasso(twovertex.g, rng, rng.randint(0, 6))
        y = _redigit(twovertex, x, rng) if rng.random() < 0.8 else random_walk_lasso(
            twovertex.g, rng, rng.randint(0, 6)
        )
        if kappa(twovertex, x) != kappa(twovertex, y) or kappa(twovertex, x) == math.inf:
            continue
        d = d_stratum(twovertex, x, y)
        if d == 0 or d > Fraction(1, 4):
            continue
        checked += 1
        ds = d_stratum(twovertex, shift(x), shift(y))
        assert 2 * d <= ds <= 8 * d


def test_lift_contract_two_vertex(twovertex):
    rng = random.Random(62)
    done = 0
    while done < 400:
        x = random_walk_lasso(twovertex.g, rng, rng.randint(0, 5))
        y = random_walk_lasso(twovertex.g, rng, rng.randint(1, 6))
        if math.inf in (kappa(twovertex, x), kappa(twovertex, y)):
            continue
        if twovertex.g.target(y.edge_at(1)) != twovertex.g.source(x.edge_at(1)):
            continue
        if kappa(twovertex, x) != kappa(twovertex, shift(y)):
            continue
        d = d_stratum(twovertex, x, shift(y))
        if d > Fraction(1, 2):
            continue
        done += 1
        z = lift_preimage(twovertex, x, y)
        assert class_equal(twovertex, shift(z), x)
        assert d_extended(twovertex, z, y).hi <= d / 2


def test_fiber_counts_two_vertex(twovertex):
    from shiftquot.geometry import fiber_classify
    from shiftquot.rays import LassoRay

    q = twovertex.quotient
    qg = q.graph
    doubled = {q.tau[twovertex.xi0_edges[y]] for y in twovertex.h.edges}

    def words(n, require_cycle=False):
        out = []

        def ext(w, at):
            if len(w) == n:
                if not require_cycle or qg.target(w[-1]) == qg.source(w[0]):
                    out.append(tuple(w))
                return
            for e in qg.edges if at is None else qg.out_edges(at):
                if at is not None and qg.source(e) != at:
                    continue
                w.append(e)
                ext(w, qg.target(e))
                w.pop()

        ext([], None)
        return out

    kinds = set()
    for plen in range(0, 3):
        for pre in words(plen):
            for cyc in words(1, require_cycle=True) + words(2, require_cycle=True):
                try:
                    base = LassoRay.make(qg, pre, cyc)
                except Exception:
                    continue
                fc = fiber_classify(twovertex, base)
                kinds.add(fc.kind)
                if fc.kind == "circles":
                    n_max = max(
                        (i for i, e in enumerate(base.prefix, 1) if e not in doubled),
                        default=0,
                    )
                    stems = [((), None)]
                    for i in range(1, n_max + 1):
                        stems = [
                            (s + (e,), twovertex.g.target(e))
                            for s, at in stems
                            for e in q.fiber(base.edge_at(i))
                            if at is None or twovertex.g.source(e) == at
                        ]
                    assert fc.count == len(stems)
                elif fc.kind == "points":
                    m = sum(1 for e in base.prefix if e in doubled)
                    assert fc.count == 2**m
    assert kinds == {"circles", "points", "totally_disconnected"}


def test_bracket_axioms_two_vertex(twovertex):
    rng = random.Random(63)
    done = 0
    while done < 15:
        xs = _close_bilassos(twovertex, rng, 3)
        if xs is None:
            continue
        done += 1
        tx, ty, tz = (pi_xi_tower(twovertex, b, 8) for b in xs)
        assert bracket(twovertex, tx, tx) == tx
        yz = bracket(twovertex, ty, tz)
        assert bracket(twovertex, tx, yz) == bracket(twovertex, tx, tz)
        xy = bracket(twovertex, tx, ty)
        assert bracket(twovertex, xy, tz) == bracket(twovertex, tx, tz)
        sx, sy = (pi_xi_tower(twovertex, shift_bilasso(b), 8) for b in xs[:2])
        assert bracket(twovertex, sx, sy) == shift_tower(twovertex, bracket(twovertex, tx, ty))
