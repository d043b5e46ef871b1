"""Exact metrics on rays and on the quotient space.

All values are exact rationals, evaluated on integers with one Fraction
per term: the quotient-graph term from the first position where the
edges' quotient images differ, the layer term from the digit sums over a
common denominator.  On rays with finitely many spare edges
the layered pseudo-metric evaluates in closed form: the recursion consumes
one spare edge per level and bottoms out in a circle distance of binary
angles.  Rays whose cycle leaves the embedded image (infinitely many spare
edges) are handled by depth-N approximants and certified intervals of
width at most 6 * 2^-N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .embedding import EmbeddingPair
from .rays import (
    Angle,
    ClassPoint,
    LassoRay,
    RayError,
    first_difference,
    kappa,
    raw_levels,
    stratum_approximant,
)


@dataclass(frozen=True)
class MetricInterval:
    """Certified enclosure [lo, hi] of a metric value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.lo <= self.hi):
            raise ValueError("invalid interval")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @staticmethod
    def point(v: Fraction) -> "MetricInterval":
        return MetricInterval(v, v)


def d_shift(x: LassoRay, y: LassoRay) -> Fraction:
    """Shift-space metric 2^-(longest common prefix); 0 for equal rays."""
    n = first_difference(x, y)
    return Fraction(0) if n is None else Fraction(1, 2 ** (n - 1))


def circle_distance(s: Angle, t: Angle) -> Fraction:
    """Shortest arc between two circle points, in turns (range [0, 1/2])."""
    return s.distance(t)


def tau_ray(p: EmbeddingPair, x: LassoRay) -> LassoRay:
    """Image of a ray in the quotient graph's shift space (d_quotient_graph
    reads the images edge by edge without building them)."""
    q = p.quotient
    return LassoRay.make(
        q.graph, [q.tau[e] for e in x.prefix], [q.tau[e] for e in x.cycle]
    )


def d_quotient_graph(p: EmbeddingPair, x: LassoRay, y: LassoRay) -> Fraction:
    """Shift metric between the quotient-graph images of two rays.

    tau is a graph homomorphism, so the images need no building: their
    first difference is the first position where tau differs on the two
    edge streams."""
    n = first_difference(x, y, p.quotient.tau.__getitem__)
    return Fraction(0) if n is None else Fraction(1, 1 << (n - 1))


def lambda_hat(p: EmbeddingPair, x: LassoRay, y: LassoRay) -> Fraction:
    """The layer part of the metric for rays with finitely many spare edges.

    Each level where both rays share their first spare position n and
    their binary angle is skipped at weight 2^-(2+n) (both rays shift past
    that spare edge); the first level where they differ contributes the
    gap between the weights 2^-n plus the circle distance of the angles.
    A ray with no spare edges has position 'infinity' (weight 0) and its
    series angle.  This closed form agrees with the limit of the stratum
    values along approximating sequences, so it extends the stratum metric
    to mixed finite strata exactly.

    The value is one Fraction over the common denominator
    dx * dy * 2^(largest finite n) * 2^exponent, where a digit sum's
    denominator dx is 2^(n-1) on a finite level and (2^L - 1) * 2^gap on
    the tail (L the cycle length).
    """
    exponent = 0
    # a finite level's digit sum lies in [0, 1) over 2^(gap - 1), so at equal
    # gaps equal numerators are equal angles; the loop stops at the first
    # tail, whose sum is compared as a value
    for (nx, ax, dx), (ny, ay, dy) in zip(raw_levels(p, x), raw_levels(p, y)):
        if nx != ny or ax != ay or nx == math.inf:
            break
        exponent += 2 + nx
    return Fraction(*lambda_tail((nx, ax, dx), (ny, ay, dy), exponent))


def lambda_tail(
    lx: tuple[int | float, int, int], ly: tuple[int | float, int, int], exponent: int
) -> tuple[int, int]:
    """lambda_hat from the first levels (gap, digit-sum numerator,
    denominator) where two rays differ, or from their tails, when the
    equal levels before them weigh 2^-exponent: the gap between the
    weights 2^-gap plus the circle distance of the angles, times
    2^-exponent, as a numerator and a denominator.

    Both sums lie in [0, 1], so their difference is at most one turn and
    the shorter way round is the circle distance: a tail summing to
    exactly 1 (all ones) is at distance 0 from one summing to 0, with no
    reduction mod 1.
    """
    (nx, ax, dx), (ny, ay, dy) = lx, ly
    unit = dx * dy
    diff = abs(ax * dy - ay * dx)
    arc = min(diff, unit - diff)
    top = max((n for n in (nx, ny) if n != math.inf), default=0)
    wx = 0 if nx == math.inf else unit << (top - nx)
    wy = 0 if ny == math.inf else unit << (top - ny)
    return abs(wx - wy) + (arc << top), unit << (top + exponent)


def d_stratum(p: EmbeddingPair, x: LassoRay, y: LassoRay) -> Fraction:
    """Layered metric on a common stratum (equal finite spare counts)."""
    kx, ky = kappa(p, x), kappa(p, y)
    if kx != ky:
        raise RayError(f"stratum mismatch: kappa {kx} vs {ky} (use d_extended)")
    if kx == math.inf:
        raise RayError("kappa is infinite (use d_extended)")
    return _d_finite(p, x, y)


def _d_finite(p: EmbeddingPair, x: LassoRay, y: LassoRay) -> Fraction:
    if x == y:  # equal normal forms are the same point
        return Fraction(0)
    return d_quotient_graph(p, x, y) + lambda_hat(p, x, y)


def d_extended(p: EmbeddingPair, x: LassoRay, y: LassoRay, depth: int = 12) -> MetricInterval:
    """The extended pseudo-metric, as an exact point for rays with finitely
    many spare edges and as a certified interval otherwise.

    The interval moves both rays into a common stratum by approximants
    agreeing to depth+1; each replacement moves the value by at most
    3 * 2^-(depth+1), so the enclosure has width at most 6 * 2^-depth.
    """
    kx, ky = kappa(p, x), kappa(p, y)
    if kx != math.inf and ky != math.inf:
        return MetricInterval.point(_d_finite(p, x, y))
    inner = depth + 1
    K = max(p.spare_count(x.head(inner)), p.spare_count(y.head(inner)))
    xa = x if kx == K else stratum_approximant(p, x, inner, K)
    ya = y if ky == K else stratum_approximant(p, y, inner, K)
    value = _d_finite(p, xa, ya)
    slack = Fraction(3, 2**depth)
    return MetricInterval(max(Fraction(0), value - slack), value + slack)


def d_class(
    p: EmbeddingPair, cx: ClassPoint, cy: ClassPoint, depth: int = 12
) -> MetricInterval:
    """Distance between quotient-space points (well defined: flip partners
    are at pseudo-distance zero)."""
    return d_extended(p, cx.rep, cy.rep, depth)
