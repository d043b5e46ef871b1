"""The invertible system: bi-infinite lassos, truncated inverse-limit towers,
the bracket map, the two-sided pair relation, and transversal sets.

A point of the invertible quotient is an inverse-limit sequence of
quotient-space points; computationally we truncate at an explicit depth M
and certify all metric statements with the 3 * 2^-M tail slack (the
quotient space has diameter at most 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .embedding import EmbeddingPair, epsilon
from .graphs import Graph, paths_of_length
from .metrics import MetricInterval, d_class
from .rays import (
    ClassPoint,
    LassoRay,
    RayError,
    canonical,
    grow_classes,
    lift_classes,
    normal_form,
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


def format_bilasso(x: BiLasso) -> str:
    return ";".join(",".join(part) for part in (x.past, x.core, x.future))


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


def make_tower(p: EmbeddingPair, levels: list[ClassPoint]) -> Tower:
    for lo, hi in zip(levels, levels[1:]):
        if canonical(p, shift(hi.rep)) != lo:
            raise SmaleError("tower levels are not shift-consistent")
    return Tower(tuple(levels))


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


def _equal_finite(p: EmbeddingPair, cx: ClassPoint, cy: ClassPoint) -> bool:
    """Whether the points are equal with finitely many spare edges (a cycle
    inside the image), where d_class is exactly 0."""
    return cx == cy and p.xi_image.issuperset(cx.rep.cycle)


def tower_distance(
    p: EmbeddingPair, x: Tower, y: Tower, depth: int | None = None, ray_depth: int = 16
) -> MetricInterval:
    """Certified sup-metric enclosure over the truncated levels 0..M, with
    the 3 * 2^-M tail bound for everything beyond the truncation.

    Level n enters as 2^-n times a class distance whose upper end is at
    most the diameter 3 plus the approximant slack 3 * 2^-ray_depth, so it
    adds at most (3 + 3 * 2^-ray_depth) * 2^-n to either end.  At the first
    n where that bound is at most the running lower end, no later level can
    raise the lower end or the upper end (which is never below it), and
    the levels from n on are not read; an error such a level would raise
    does not surface.

    A level whose two points are equal with finitely many spare edges is
    at class distance exactly 0 and moves neither end, so it costs one
    comparison and no metric.  Equal points with infinitely many spare
    edges still go through d_class, with its slack and its errors.

    A pair at distance 0, such as a point and its carry partner, keeps `lo`
    at 0 and so reads every level 0..M.  No stop rule is known for it: a
    level at exactly 0 proves nothing about the deeper levels.
    """
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    if depth is not None and depth < 0:
        raise SmaleError(f"depth must be at least 0, got {depth}")
    m = x.depth if depth is None else min(depth, x.depth)
    reach = 3 + 3 * Fraction(2) ** -ray_depth
    lo = Fraction(0)
    hi = Fraction(3, 2**m)
    for n in range(m + 1):
        # reach * 2^-n <= lo, on integers
        if reach.numerator * lo.denominator <= (lo.numerator * reach.denominator) << n:
            break
        cx, cy = x.level(n), y.level(n)
        if _equal_finite(p, cx, cy):
            continue
        d = d_class(p, cx, cy, ray_depth)
        w = Fraction(1, 2**n)
        lo = max(lo, w * d.lo)
        hi = max(hi, w * d.hi)
    return MetricInterval(lo, hi)


def bracket(p: EmbeddingPair, x: Tower, y: Tower, ray_depth: int = 16) -> Tower:
    """Local product coordinates: level 0 from x, deeper levels lifted
    toward y one preimage at a time.

    Defined when the tower distance is at most 1/2.  Level n enters that
    distance as 2^-n times a class distance whose upper end is at most the
    diameter 3 plus the approximant slack 3 * 2^-ray_depth, so a level with
    (3 + 3 * 2^-ray_depth) * 2^-n <= 1/2 can neither push the distance past
    1/2 nor raise an upper end that already exceeds it.  Only the levels
    before the first such n are read: levels 0-2 at the default ray depth.
    As in tower_distance, equal points with finitely many spare edges are
    compared, not measured.

    Level n + 1 is the class of lift_preimage(level n, level n + 1 of y),
    grown from level n by lift_classes: the lifted ray and its flip are
    each a member of level n with one edge put in front.  Only level 0 is
    checked as a lasso of G; by induction every later level is one, since
    each junction of a candidate edge with a member is still checked.
    """
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    reach = 3 + 3 * Fraction(2) ** -ray_depth
    hi = Fraction(3, 2**x.depth)
    for n in range(x.depth + 1):
        if reach / 2**n <= Fraction(1, 2):
            break
        cx, cy = x.level(n), y.level(n)
        if not _equal_finite(p, cx, cy):
            hi = max(hi, d_class(p, cx, cy, ray_depth).hi / 2**n)
    if hi > Fraction(1, 2):
        raise SmaleError(f"bracket undefined: tower distance {hi} > 1/2")
    targets = [y.level(n).rep for n in range(1, x.depth + 1)]
    return Tower(tuple(lift_classes(p, x.level(0), targets)))


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
    return epsilon(p, a)


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


# -- transversals ------------------------------------------------------------------


@dataclass(frozen=True)
class TransversalSpec:
    """A minimal-length cycle avoiding the embedded image, and the periodic
    points repeating it."""

    cycle: tuple[str, ...]
    points: tuple[BiLasso, ...]


def transversal_spec(p: EmbeddingPair) -> TransversalSpec:
    g = p.g
    spare = Graph(g.vertices, [(e, g.source(e), g.target(e)) for e in g.edges if not p.in_image(e)])
    best: tuple[str, ...] | None = None
    for L in range(1, len(g.vertices) + 1):
        candidates = [w for v in g.vertices for w in paths_of_length(spare, L, src=v, dst=v)]
        if candidates:
            best = min(candidates)
            break
    if best is None:
        raise SmaleError("no cycle avoids the embedded image")
    pts = tuple(
        BiLasso(best[k:] + best[:k], (), best[k:] + best[:k], 1)
        for k in range(len(best))
    )
    return TransversalSpec(best, pts)


def membership_yu(spec: TransversalSpec, x: BiLasso) -> bool:
    """Whether the whole past of x (positions <= 0) repeats the transversal
    cycle."""
    span = math.lcm(len(x.past), len(spec.cycle)) + len(x.core) + len(x.future) + abs(x.origin) + 2
    seen = x.window(-span, 0)
    return any(q.window(-span, 0) == seen for q in spec.points)


def membership_ys(spec: TransversalSpec, x: BiLasso) -> bool:
    """Whether x agrees with a transversal point on all positions >= -1."""
    span = math.lcm(len(x.future), len(spec.cycle)) + len(x.core) + len(x.past) + abs(x.core_end()) + 2
    seen = x.window(-1, span)
    return any(q.window(-1, span) == seen for q in spec.points)
