import random
from fractions import Fraction

import pytest

from shiftquot.metrics import d_class
from shiftquot.rays import canonical, parse_ray, shift
from shiftquot.smale import (
    BiLasso,
    PairWitness,
    SmaleError,
    apply_witness,
    bilasso_equal,
    bracket,
    inv_shift_tower,
    pair_related,
    parse_bilasso,
    pi_xi_tower,
    shift_bilasso,
    shift_tower,
    tower_distance,
)


def bl(p, text):
    return parse_bilasso(p.g, text)


def test_bilasso_literal_roundtrip(full3):
    x = bl(full3, "c;a,b;a")
    assert ";".join(",".join(part) for part in (x.past, x.core, x.future)) == "c;a,b;a"
    assert x.window(1, 1)[0] == "a" and x.window(2, 2)[0] == "b" and x.window(3, 3)[0] == "a"
    assert x.window(0, 0)[0] == "c" and x.window(-5, -5)[0] == "c"


def test_bilasso_validation(full3):
    from shiftquot.graphs import Graph

    g = Graph(["u", "w"], [("f", "u", "w"), ("g", "w", "u")])
    with pytest.raises(SmaleError):
        BiLasso.make(g, ("f",), (), ("f", "g"))  # past does not close
    x = BiLasso.make(g, ("f", "g"), (), ("f", "g"))
    assert x.window(1, 1)[0] == "f"


def test_bilasso_equality_and_shift(full3):
    x = bl(full3, "c;a,b;a")
    assert bilasso_equal(x, x)
    y = shift_bilasso(x)
    assert y.window(0, 0)[0] == "a" and y.window(1, 1)[0] == "b"
    assert not bilasso_equal(x, y)
    # same path written with different cores
    a = BiLasso(("c",), ("a",), ("a",), 1)
    b = BiLasso(("c",), (), ("a",), 1)
    assert bilasso_equal(a, b)


def test_ray_from(full3):
    x = bl(full3, "c;a,b;a")
    assert x.ray_from(1) == parse_ray(full3.g, "a,b;a")
    assert x.ray_from(0) == parse_ray(full3.g, "c,a,b;a")
    assert x.ray_from(3) == parse_ray(full3.g, ";a")
    assert x.ray_from(-2) == parse_ray(full3.g, "c,c,c,a,b;a")


def test_pi_xi_tower_constant(full3):
    t = pi_xi_tower(full3, bl(full3, "a;;a"), 3)
    assert all(lvl == canonical(full3, parse_ray(full3.g, ";a")) for lvl in t.levels)


def test_tower_consistency_checked(full3):
    t = pi_xi_tower(full3, bl(full3, "c;a,b;a"), 4)
    for lo, hi in zip(t.levels, t.levels[1:]):
        assert canonical(full3, shift(hi.rep)) == lo


def test_tower_equivariance(full3):
    rng = random.Random(51)
    for text in ("c;a,b;a", "c;b,c,a;b", "a;c;b"):
        x = bl(full3, text)
        assert pi_xi_tower(full3, shift_bilasso(x), 5) == shift_tower(
            full3, pi_xi_tower(full3, x, 5)
        )


def test_tower_distance_contract(full3):
    t = pi_xi_tower(full3, bl(full3, "c;a,b;a"), 8)
    d = tower_distance(full3, t, t)
    assert d.lo == 0 and d.hi == Fraction(3, 2**8)
    s = pi_xi_tower(full3, bl(full3, "c;b,b;a"), 8)
    d2 = tower_distance(full3, t, s)
    assert d2.lo >= d_class(full3, t.level(0), s.level(0)).lo


def test_tower_distance_depth_mismatch(full3):
    with pytest.raises(SmaleError):
        tower_distance(
            full3,
            pi_xi_tower(full3, bl(full3, "a;;a"), 3),
            pi_xi_tower(full3, bl(full3, "a;;a"), 4),
        )


def test_bracket_b1_and_level0(full3):
    x = pi_xi_tower(full3, bl(full3, "c;a,b,c,a;a"), 8)
    assert bracket(full3, x, x) == x
    y = pi_xi_tower(full3, bl(full3, "c;a,b,c,b;a"), 8)
    z = bracket(full3, x, y)
    assert z.level(0) == x.level(0)
    for n in range(1, 9):
        dn = d_class(full3, z.level(n), y.level(n))
        assert dn.hi <= Fraction(1, 2 ** (n + 1)) + Fraction(6, 2**16)


def test_bracket_precondition(full3):
    x = pi_xi_tower(full3, bl(full3, "a;;a"), 2)
    y = pi_xi_tower(full3, bl(full3, "c;;c"), 2)
    with pytest.raises(SmaleError):
        bracket(full3, x, y)


def test_pair_related_cases(full2, full3):
    w = pair_related(full2, bl(full2, "a;;a"), bl(full2, "b;;b"))
    assert w is not None and w.case == "b" and w.i == 0
    w = pair_related(full3, bl(full3, "c;;a"), bl(full3, "c;;b"))
    assert w is not None and w.case == "c" and w.m == 0
    x = bl(full3, "c;a,b;a")
    assert pair_related(full3, x, x).case == "a"


def test_pair_related_carry_pivot(full3):
    x, y = bl(full3, "c;b;a"), bl(full3, "c;a;b")
    w = pair_related(full3, x, y)
    assert w is not None and w.case == "c" and w.m == 1
    assert bilasso_equal(apply_witness(full3, w, x), y)


def test_apply_witness_rejects_a_malformed_witness(full3):
    x = bl(full3, "a;c;b")
    with pytest.raises(SmaleError, match="unknown witness case 'z'"):
        apply_witness(full3, PairWitness("z"), x)
    with pytest.raises(SmaleError, match="needs its pivot position m"):
        apply_witness(full3, PairWitness("c", i=0), x)


def test_pair_related_rejects_same_superscript_pivot(full3):
    # equal doubled edge at the pivot does not glue the paths
    x, y = bl(full3, "c;a,a;a"), bl(full3, "c;a,b;b")
    assert x.window(1, 1)[0] == y.window(1, 1)[0] == "a"
    assert pair_related(full3, x, y) is None


def test_pair_related_symmetric_and_reconstructs(full3):
    cases = [
        ("c;;a", "c;;b"),
        ("c;b;a", "c;a;b"),
        ("c;a,b,b;a", "c;a,a,a;b"),
    ]
    for tx, ty in cases:
        x, y = bl(full3, tx), bl(full3, ty)
        w = pair_related(full3, x, y)
        wr = pair_related(full3, y, x)
        assert (w is None) == (wr is None)
        if w is not None:
            assert bilasso_equal(apply_witness(full3, w, x), y)


def test_pair_related_agrees_with_metric(full3):
    rng = random.Random(52)
    texts = ["c;a,b;a", "c;b,a;b", "c;a,a;b", "c;b,b;a", "c;;a", "c;;b", "a;c;a"]
    for tx in texts:
        for ty in texts:
            x, y = bl(full3, tx), bl(full3, ty)
            w = pair_related(full3, x, y)
            related_metric = all(
                d_class(
                    full3,
                    canonical(full3, x.ray_from(1 - n)),
                    canonical(full3, y.ray_from(1 - n)),
                ).hi
                == 0
                for n in range(6)
            )
            assert (w is not None) == related_metric


def test_s_injectivity_spot_check(full3):
    # distinct paths with equal right tails are never identified
    rng = random.Random(53)
    pool = ["a", "b", "c"]
    for _ in range(60):
        core = tuple(rng.choice(pool) for _ in range(4))
        x = BiLasso.make(full3.g, ("c",), core, ("a",))
        y = BiLasso.make(full3.g, ("b",), core, ("a",))  # same tail, new past
        assert not bilasso_equal(x, y)
        assert pair_related(full3, x, y) is None


def test_inv_shift_tower(full3):
    t = pi_xi_tower(full3, bl(full3, "c;a,b;a"), 5)
    assert inv_shift_tower(t).levels == t.levels[1:]
