"""The invertible system: bi-infinite lassos, truncated inverse-limit towers,
the bracket map and the two-sided pair relation.

A point of the invertible quotient is an inverse-limit sequence of
quotient-space points; computationally we truncate at an explicit depth M
and certify all metric statements with the 3 * 2^-M tail slack (the
quotient space has diameter at most 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

from .embedding import EmbeddingPair
from .graphs import Graph
from .metrics import MetricInterval, d_class, d_quotient_graph, lambda_hat, lambda_tail
from .rays import (
    ClassPoint,
    LassoRay,
    RayError,
    canonical,
    grow_classes,
    grow_member_levels,
    lift_classes,
    normal_form,
    raw_levels,
    shift,
)


class SmaleError(ValueError):
    pass


@dataclass(frozen=True)
class BiLasso:
    """Bi-infinite eventually periodic path.

    The core occupies positions origin .. origin+len(core)-1; to the left
    the past cycle repeats (anchored so that position origin-1 carries the
    cycle's last edge), to the right the future cycle repeats (anchored so
    that the first position after the core carries the cycle's first edge).
    """

    past: tuple[str, ...]
    core: tuple[str, ...]
    future: tuple[str, ...]
    origin: int = 1

    @staticmethod
    def make(
        g: Graph,
        past: tuple[str, ...] | list[str],
        core: tuple[str, ...] | list[str],
        future: tuple[str, ...] | list[str],
        origin: int = 1,
    ) -> "BiLasso":
        past, core, future = tuple(past), tuple(core), tuple(future)
        if not past or not future:
            raise SmaleError("past and future cycles must be nonempty")
        # the path from the past cycle on is a lasso, and so is the past cycle
        try:
            LassoRay.make(g, past + core, future)
            LassoRay.make(g, (), past)
        except RayError as exc:
            raise SmaleError(str(exc)) from None
        return BiLasso(past, core, future, origin)

    def core_end(self) -> int:
        return self.origin + len(self.core) - 1

    def window(self, a: int, b: int) -> tuple[str, ...]:
        """Edges at positions a..b (empty when a > b), read as one slice of
        the past cycle, the core and the future cycle each."""
        lo = self.origin
        hi = self.origin + len(self.core)  # first future position
        start = max(a, hi)
        return (
            _laps(self.past, a - lo, min(b + 1, lo) - a)
            + self.core[max(a, lo) - lo : max(0, min(b + 1, hi) - lo)]
            + _laps(self.future, start - hi, b + 1 - start)
        )

    def ray_from(self, n: int) -> LassoRay:
        """The one-sided ray read from position n onward."""
        first_future = self.origin + len(self.core)
        if n >= first_future:
            k = (n - first_future) % len(self.future)
            return normal_form((), self.future[k:] + self.future[:k])
        return normal_form(self.window(n, first_future - 1), self.future)


def _laps(cycle: tuple[str, ...], k: int, count: int) -> tuple[str, ...]:
    """`count` edges (none when count <= 0) of the cycle repeating from its
    index k, taken mod its length."""
    if count <= 0:
        return ()
    k %= len(cycle)
    return (cycle * ((k + count - 1) // len(cycle) + 1))[k : k + count]


def shift_bilasso(x: BiLasso) -> BiLasso:
    """The left shift: pure reindexing (position n of the result is
    position n+1 of the input)."""
    return replace(x, origin=x.origin - 1)


def bilasso_equal(x: BiLasso, y: BiLasso) -> bool:
    """Semantic equality of the represented bi-infinite paths."""
    lp = math.lcm(len(x.past), len(y.past))
    lf = math.lcm(len(x.future), len(y.future))
    a = min(x.origin, y.origin) - lp
    b = max(x.core_end(), y.core_end()) + lf
    return x.window(a, b) == y.window(a, b)


def parse_bilasso(g: Graph, text: str) -> BiLasso:
    """Bi-lasso literal 'past;core;future' (each comma-separated; the core
    may be empty).  The core starts at position 1."""
    parts = text.split(";")
    if len(parts) != 3:
        raise SmaleError("bi-lasso literal needs two ';' separators")
    seqs = [[t.strip() for t in part.split(",") if t.strip()] for part in parts]
    return BiLasso.make(g, seqs[0], seqs[1], seqs[2], origin=1)


# -- towers ---------------------------------------------------------------------


@dataclass(frozen=True)
class Tower:
    """Truncated inverse-limit point: levels x^0 .. x^M with
    sigma(x^{n+1}) = x^n as quotient points."""

    levels: tuple[ClassPoint, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise SmaleError("tower needs at least one level")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> ClassPoint:
        return self.levels[n]


def pi_xi_tower(p: EmbeddingPair, x: BiLasso, depth: int) -> Tower:
    """The tower of quotient points read from positions 1, 0, -1, ...: the
    class of the ray from position 1, then each deeper level from the one
    before, with the edge at its position put in front."""
    if depth < 0:
        raise SmaleError("tower needs at least one level")
    return Tower(tuple(grow_classes(p, x.ray_from(1), x.window(1 - depth, 0))))


def shift_tower(p: EmbeddingPair, t: Tower) -> Tower:
    """Forward dynamics on truncated towers (same depth)."""
    head = canonical(p, shift(t.levels[0].rep))
    return Tower((head,) + t.levels[:-1])


def inv_shift_tower(t: Tower) -> Tower:
    """Backward dynamics; loses one level of depth."""
    if len(t.levels) < 2:
        raise SmaleError("tower too shallow to invert")
    return Tower(t.levels[1:])


def tower_distance(p: EmbeddingPair, x: Tower, y: Tower, ray_depth: int = 16) -> MetricInterval:
    """Certified sup-metric enclosure over the truncated levels 0..M, with
    the 3 * 2^-M tail bound for everything beyond the truncation.  It reads
    the whole towers it is given; to truncate them, slice their levels.

    Level n enters as 2^-n times a class distance whose upper end is at
    most the diameter 3 plus the approximant slack 3 * 2^-ray_depth, so it
    adds at most (3 + 3 * 2^-ray_depth) * 2^-n to either end.  At the first
    n where that bound is at most the running lower end, no later level can
    raise the lower end or the upper end (which is never below it), and
    the levels from n on are not read; an error such a level would raise
    does not surface.

    The class distances come from _level_distances: the first unequal
    level with finitely many spare edges is measured in full, and each
    later one is grown from the one before in O(1) integer steps, so a
    pair of towers sharing a core of L edges costs O(M + L), not O(M * L).
    Equal points with finitely many spare edges are at distance exactly 0
    and cost one comparison.  Levels with infinitely many spare edges go
    through d_class, with its slack and its errors.  The weighted values
    are compared with the running ends on integers.

    A pair at distance 0, such as a point and its carry partner, keeps `lo`
    at 0 and so reads every level 0..M.  No stop rule is known for it: a
    level at exactly 0 proves nothing about the deeper levels.
    """
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    m = x.depth
    reach = 3 + 3 * Fraction(2) ** -ray_depth
    rn, rd = reach.numerator, reach.denominator
    # the two ends as unreduced numerators and denominators
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 3, 1 << m
    levels = _level_distances(p, x, y, ray_depth)
    for n in range(m + 1):
        # reach * 2^-n <= lo
        if rn * lo_d <= (lo_n * rd) << n:
            break
        a, b, den = next(levels)
        den <<= n
        if a * lo_d > lo_n * den:
            lo_n, lo_d = a, den
        if b * hi_d > hi_n * den:
            hi_n, hi_d = b, den
    return MetricInterval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


def bracket(p: EmbeddingPair, x: Tower, y: Tower, ray_depth: int = 16) -> Tower:
    """Local product coordinates: level 0 from x, deeper levels lifted
    toward y one preimage at a time.

    Defined when the tower distance is at most 1/2.  Level n enters that
    distance as 2^-n times a class distance whose upper end is at most the
    diameter 3 plus the approximant slack 3 * 2^-ray_depth, so a level with
    (3 + 3 * 2^-ray_depth) * 2^-n <= 1/2 can neither push the distance past
    1/2 nor raise an upper end that already exceeds it.  Only the levels
    before the first such n are read: levels 0-2 at the default ray depth.
    They are read as in tower_distance: the first unequal level with
    finitely many spare edges in full, the later ones grown from it, equal
    points compared, not measured, and levels with infinitely many spare
    edges through d_class.

    Level n + 1 is the class of lift_preimage(level n, level n + 1 of y),
    grown from level n by lift_classes: the lifted ray and its flip are
    each a member of level n with one edge put in front.  Only level 0 is
    checked as a lasso of G; by induction every later level is one, since
    each junction of a candidate edge with a member is still checked.
    """
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    reach = 3 + 3 * Fraction(2) ** -ray_depth
    rn, rd = reach.numerator, reach.denominator
    hi_n, hi_d = 3, 1 << x.depth
    levels = _level_distances(p, x, y, ray_depth)
    for n in range(x.depth + 1):
        # reach * 2^-n <= 1/2
        if 2 * rn <= rd << n:
            break
        _, b, den = next(levels)
        if b * hi_d > hi_n * (den << n):
            hi_n, hi_d = b, den << n
    hi = Fraction(hi_n, hi_d)
    if hi > Fraction(1, 2):
        raise SmaleError(f"bracket undefined: tower distance {hi} > 1/2")
    targets = [y.level(n).rep for n in range(1, x.depth + 1)]
    return Tower(tuple(lift_classes(p, x.level(0), targets)))


# The members of a level with their first levels (gap, digit-sum numerator,
# denominator), as raw_levels gives them, and the state _level_distances
# holds for a level: the members of each point, q and lambda_hat's numerator
# and denominator.
_Members = list[tuple[LassoRay, tuple[int | float, int, int]]]
_Read = tuple[_Members, _Members, int | None, int, int]


def _level_distances(
    p: EmbeddingPair, x: Tower, y: Tower, ray_depth: int
) -> Iterator[tuple[int, int, int]]:
    """The class distance of each level n = 0, 1, ... of two towers, in
    order, as integers (lo, hi, den): the distance lies in [lo / den,
    hi / den], and lo = hi on levels with finitely many spare edges.

    On such a level the distance is d_Q + lambda_hat of the two reps: the
    quotient-graph term 2^-q (q = None when it is 0) and the layer term.
    Both, and so the distance, take the same value on any members of the
    two classes: a flip swaps image edges for their partners, which tau
    identifies, and changes a digit sum only by a carry or the total swap,
    which leaves every level's gap and angle as they were.  So when each
    member of level n + 1 is e.m for a member m of level n (as in a tower
    grown by pi_xi_tower or lift_classes), the distance of level n + 1 is
    read off the reps e.mx and f.my, where mx and my are any such members,
    from q, lambda_hat and the first levels of mx and my (see _grown):
    O(1) integer steps and one comparison per member.  The step needs only
    that the members grow from those of the level it holds, so it holds
    the last level measured this way.

    The first unequal level, and a level where some member grows from no
    member held, is read in full (_full_read).  Equal points are at
    distance 0 and read nothing.  The levels of two towers built by
    pi_xi_tower or lift_classes are equal below some level n and unequal
    from n on (the shift of equal classes is one class), so their one full
    read is at level n.  A level where either point has infinitely many
    spare edges goes through d_class, with its slack and its errors.
    """
    image = p.xi_image
    held: _Read | None = None  # the last level measured
    for cx, cy in zip(x.levels, y.levels):
        if not (image.issuperset(cx.rep.cycle) and image.issuperset(cy.rep.cycle)):
            d = d_class(p, cx, cy, ray_depth)
            (lo_n, lo_d), (hi_n, hi_d) = d.lo.as_integer_ratio(), d.hi.as_integer_ratio()
            yield lo_n * hi_d, hi_n * lo_d, lo_d * hi_d
            continue
        if cx == cy:
            yield 0, 0, 1
            continue
        grown = None if held is None else _grown(p, held, cx, cy)
        held = _full_read(p, cx, cy) if grown is None else grown
        _, _, q, num, den = held
        if q is not None:  # 2^-q + num / den
            num, den = den + (num << q), den << q
        yield num, num, den


def _full_read(p: EmbeddingPair, cx: ClassPoint, cy: ClassPoint) -> _Read:
    """The state _level_distances holds for a level, read from scratch:
    the members of each point with their first levels, the position q
    where the reps' quotient images first differ (None when they do not),
    and lambda_hat of the reps as a numerator and a denominator."""
    dq = d_quotient_graph(p, cx.rep, cy.rep)  # 1 / 2^q, or 0
    lam = lambda_hat(p, cx.rep, cy.rep)
    q = dq.denominator.bit_length() - 1 if dq else None
    mx, my = (
        [(m, next(raw_levels(p, m))) for m in (c.rep, c.partner) if m is not None] for c in (cx, cy)
    )
    return mx, my, q, lam.numerator, lam.denominator


def _grown(p: EmbeddingPair, held: _Read, cx: ClassPoint, cy: ClassPoint) -> _Read | None:
    """The state of the level after `held`, whose points are cx and cy,
    grown from it; None when some member is not grown from a member of
    `held`.  With e and f the reps' first edges:

    - tau(e) = tau(f) halves d_Q (q + 1, and 0 stays 0); otherwise the
      images differ at position 1 and d_Q = 1 (q = 0);
    - when the reps' first levels are finite and equal, lambda_hat skips
      them as it skipped the ones before: the new level (1, 0, 1) of a
      spare e divides it by 8, an image e that joins the level before
      divides it by 2;
    - otherwise lambda_hat is the tail on the two first levels, with
      nothing skipped.
    """
    mx, my = grow_member_levels(p, cx, held[0]), grow_member_levels(p, cy, held[1])
    if mx is None or my is None:
        return None
    _, _, q, num, den = held
    e, f = cx.rep.edge_at(1), cy.rep.edge_at(1)
    tau = p.quotient.tau
    if tau[e] != tau[f]:
        q = 0
    elif q is not None:
        q += 1
    lx, ly = mx[0][1], my[0][1]
    if lx[0] != math.inf and lx[:2] == ly[:2]:
        den <<= 1 if p.in_image(e) else 3
    else:
        num, den = lambda_tail(lx, ly, 0)
    return mx, my, q, num, den


# -- the two-sided pair relation --------------------------------------------------


@dataclass(frozen=True)
class PairWitness:
    """Evidence that two bi-infinite paths project to the same point.

    case 'a': equality.  case 'b': a total superscript swap along a
    bi-infinite doubled path (i is the superscript on the first input).
    case 'c': agreement strictly below the pivot position m, a pivot that
    is either a shared spare edge or an oppositely swapped doubled pair,
    and a plainly swapped tail with constant superscript i above m.
    """

    case: str
    i: int | None = None
    m: int | None = None


def _swapped(p: EmbeddingPair, a: str, b: str) -> int | None:
    """Superscript i when (a, b) = (xi^i(z), xi^{1-i}(z)); None otherwise."""
    if a == b or not p.in_image(a) or not p.in_image(b) or p.partner(a) != b:
        return None
    return p.superscript(a)


def pair_related(p: EmbeddingPair, x: BiLasso, y: BiLasso) -> PairWitness | None:
    """Decide whether two bi-infinite paths are identified in the invertible
    quotient, with a witness."""
    lp = math.lcm(len(x.past), len(y.past))
    lf = math.lcm(len(x.future), len(y.future))
    # below both cores both paths repeat with period lp, and above both
    # with period lf, so positions lo .. hi + lf - 1 decide everything: two
    # past periods and one position more (a pivot in the periodic past is
    # found in its upper period, a whole period above lo), the cores, and
    # two future periods.  Position lo + k is index k
    lo = min(x.origin, y.origin) - 2 * lp - 1
    hi = max(x.core_end(), y.core_end()) + lf
    xs, ys = x.window(lo, hi + lf - 1), y.window(lo, hi + lf - 1)
    if xs == ys:
        return PairWitness("a")
    top = hi - lo

    # constant-superscript swap on the far future period, else unrelated;
    # only here can a swap test fail for want of a partner map (H1)
    tail_i = _swapped(p, xs[top], ys[top])
    if tail_i is None or any(_swapped(p, a, b) != tail_i for a, b in zip(xs[top:], ys[top:])):
        return None

    # case c: the pivot is the last position where the plain swap fails;
    # case b: there is none
    m = next((k for k in range(top - 1, -1, -1) if _swapped(p, xs[k], ys[k]) != tail_i), None)
    if m is None:
        return PairWitness("b", i=tail_i)
    # a shared spare edge or an oppositely swapped pair, and equality
    # strictly below it
    xm, ym = xs[m], ys[m]
    pivot_ok = (xm == ym and not p.in_image(xm)) or _swapped(p, xm, ym) == 1 - tail_i
    if not pivot_ok or xs[:m] != ys[:m]:
        return None
    return PairWitness("c", i=tail_i, m=lo + m)


def apply_witness(p: EmbeddingPair, w: PairWitness, x: BiLasso) -> BiLasso:
    """Reconstruct the partner path from one input and a witness."""
    if w.case == "a":
        return x

    def swap_seq(seq: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(p.partner(e) for e in seq)

    if w.case == "b":
        return BiLasso(swap_seq(x.past), swap_seq(x.core), swap_seq(x.future), x.origin)
    if w.case != "c":
        raise SmaleError(f"unknown witness case {w.case!r}")
    if w.m is None:
        raise SmaleError("a case 'c' witness needs its pivot position m")
    # widen the core so the pivot sits inside it, keeping both cycle phases
    lpast, lfut = len(x.past), len(x.future)
    k_lo = max(1, -(-(x.origin - min(x.origin, w.m) + 1) // lpast))
    lo = x.origin - lpast * k_lo
    end = x.core_end()
    k_hi = max(1, -(-(max(end, w.m) - end) // lfut) + 1)
    hi = end + lfut * k_hi
    core = list(x.window(lo, hi))
    for idx, n in enumerate(range(lo, hi + 1)):
        e = core[idx]
        if n >= w.m and p.in_image(e):
            core[idx] = p.partner(e)
    return BiLasso(x.past, tuple(core), swap_seq(x.future), lo)
