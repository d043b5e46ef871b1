"""Eventually periodic rays of the big edge shift and the carry identification.

A LassoRay (finite prefix + repeating cycle) is the computable stand-in for
a one-sided infinite edge path.  On these we can decide everything the
quotient construction needs exactly: the spare-edge count kappa, the first
spare position, the binary angle theta, the carry partner ("flip"), and
canonical class representatives.

Positions are 1-indexed throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .embedding import EmbeddingPair, epsilon
from .graphs import Graph


class RayError(ValueError):
    """Raised for invalid rays or violated ray-operation preconditions."""


def normal_form(prefix: Sequence[str], cycle: tuple[str, ...]) -> "LassoRay":
    """The lasso of an (already composable) prefix and cycle in normal
    form: the cycle cut to its primitive root, then every prefix suffix
    that repeats the cycle rotated into it."""
    n = len(cycle)
    cyc = cycle
    for d in range(1, n):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            cyc = cycle[:d]
            break
    pre = list(prefix)
    while pre and pre[-1] == cyc[-1]:
        pre.pop()
        cyc = (cyc[-1],) + cyc[:-1]
    return LassoRay(tuple(pre), cyc)


def _lasso_fault(g: Graph, whole: tuple[str, ...], start: int) -> str | None:
    """What LassoRay.make rejects in the edges `whole` whose cycle begins
    at index `start`, or None: the first unknown edge, else the first
    non-composable pair, else an open cycle.  One lookup per edge in each
    of the graph's endpoint tables."""
    try:
        sources = list(map(g._src.__getitem__, whole))
    except KeyError as exc:
        return f"unknown edge {exc.args[0]!r}"
    targets = list(map(g._dst.__getitem__, whole))
    if targets[:-1] != sources[1:]:
        i = next(i for i, (t, s) in enumerate(zip(targets, sources[1:])) if t != s)
        return f"edges {whole[i]!r},{whole[i + 1]!r} are not composable"
    if targets[-1] != sources[start]:
        return "cycle does not close up"
    return None


@dataclass(frozen=True)
class LassoRay:
    """Normal form: the cycle is primitive and the prefix is shortest
    (no rotation of the cycle absorbs a prefix suffix), so equality of the
    represented infinite paths is plain component equality."""

    prefix: tuple[str, ...]
    cycle: tuple[str, ...]

    @staticmethod
    def make(g: Graph, prefix: Sequence[str], cycle: Sequence[str]) -> "LassoRay":
        """Validate endpoint compatibility (including the cycle wrap) and
        normalize."""
        pre = tuple(prefix)
        cyc = tuple(cycle)
        if not cyc:
            raise RayError("cycle must be nonempty")
        fault = _lasso_fault(g, pre + cyc, len(pre))
        if fault is not None:
            raise RayError(fault)
        return normal_form(pre, cyc)

    def edge_at(self, n: int) -> str:
        """Edge at 1-indexed position n."""
        if n < 1:
            raise RayError("positions are 1-indexed")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - 1 - len(self.prefix)) % len(self.cycle)]

    def head(self, n: int) -> tuple[str, ...]:
        """Edges at positions 1..n."""
        return tuple(itertools.islice(edge_stream(self), max(n, 0)))


def edge_stream(x: LassoRay) -> Iterator[str]:
    """The edges of x at positions 1, 2, ..., without end."""
    return itertools.chain(x.prefix, itertools.cycle(x.cycle))


def parse_ray(g: Graph, text: str) -> LassoRay:
    """Ray literal: 'e1,e2,...;c1,c2,...' (prefix before ';', cycle after)."""
    if ";" not in text:
        raise RayError("ray literal needs a ';' between prefix and cycle")
    pre_text, cyc_text = text.split(";", 1)
    prefix = [t.strip() for t in pre_text.split(",") if t.strip()]
    cycle = [t.strip() for t in cyc_text.split(",") if t.strip()]
    return LassoRay.make(g, prefix, cycle)


def format_ray(x: LassoRay) -> str:
    return ",".join(x.prefix) + ";" + ",".join(x.cycle)


@dataclass(frozen=True)
class Angle:
    """Point of the circle stored as a reduced rational number of turns in
    [0, 1)."""

    turns: Fraction

    @staticmethod
    def of(value: Fraction | int) -> "Angle":
        return Angle(Fraction(value) % 1)

    def distance(self, other: "Angle") -> Fraction:
        """Shortest arc length in turns, in [0, 1/2]."""
        d = abs(self.turns - other.turns)
        return min(d, 1 - d)


@dataclass(frozen=True)
class ClassPoint:
    """A point of the quotient space, held by its canonical representative
    and that representative's carry partner (its flip, or None), as
    canonical builds it.  The partner follows from the rep, so equality,
    hashing and the repr read the rep only."""

    rep: LassoRay
    partner: LassoRay | None = field(compare=False, repr=False)


# -- basic quantities ---------------------------------------------------------


def kappa(p: EmbeddingPair, x: LassoRay) -> int | float:
    """Number of positions whose edge lies outside the embedded image;
    math.inf when the cycle contains such an edge."""
    if not p.xi_image.issuperset(x.cycle):
        return math.inf
    return p.spare_count(x.prefix)


def first_nonxi(p: EmbeddingPair, x: LassoRay) -> int:
    """The least position carrying a spare edge; error when kappa = 0."""
    n, _ = level(p, x)
    if n == math.inf:
        raise RayError("ray lies entirely in the embedded image (kappa = 0)")
    return int(n)


def digit_series(p: EmbeddingPair, x: LassoRay) -> Fraction:
    """Exact value of sum eps(x_j) 2^-j over all positions, in [0, 1].

    Only defined when kappa(x) = 0.  This is the raw series value, not
    reduced mod 1: the all-ones tail really gives 1.
    """
    if kappa(p, x) != 0:
        raise RayError("digit series needs kappa = 0")
    return next(levels(p, x))[1]


def levels(p: EmbeddingPair, x: LassoRay) -> Iterator[tuple[int | float, Fraction]]:
    """(gap, raw digit sum) of each level of the ray, in order.

    A level runs up to and including the next spare edge; its gap is the
    number of positions it spans and its digit sum runs over the positions
    before that spare edge (a value in [0, 1)).  When the ray has finitely
    many spare edges the walk ends with (math.inf, full series of the
    all-image tail), a value in [0, 1]; otherwise it never ends.
    """
    for gap, num, den in raw_levels(p, x):
        yield gap, Fraction(num, den)


def raw_levels(p: EmbeddingPair, x: LassoRay) -> Iterator[tuple[int | float, int, int]]:
    """levels, each digit sum as a numerator and a denominator (unreduced).

    One superscript lookup per edge, None meaning a spare edge.  When H1
    fails the levels before the first image edge come out, then epsilon's
    error."""
    digit = _digit_lookup(p)
    edges: Iterable[str] = x.prefix
    if not p.xi_image.issuperset(x.cycle):
        edges = edge_stream(x)
    gap = digits = 0
    for e in edges:
        gap += 1
        d = digit(e)
        if d is None:
            yield gap, digits, 1 << (gap - 1)
            gap = digits = 0
        else:
            digits = digits << 1 | d
    # the tail: the last gap prefix digits, then the spare-free cycle repeating
    lap = 0
    for e in x.cycle:
        lap = lap << 1 | digit(e)
    period = 2 ** len(x.cycle) - 1
    yield math.inf, digits * period + lap, period << gap


def _digit_lookup(p: EmbeddingPair):
    """edge -> its superscript, or None for an edge outside the image.
    Without a superscript map (H1 fails) an image edge raises epsilon's
    error."""
    sup = p._superscript
    if sup is not None:
        return sup.get

    def digit(e: str) -> int | None:
        return epsilon(p, e) if p.in_image(e) else None

    return digit


def level(p: EmbeddingPair, x: LassoRay) -> tuple[int | float, Fraction]:
    """(first spare position, raw digit sum) of the ray's first level; see
    levels.  When kappa = 0 the position is math.inf and the sum is the
    full series (in [0, 1])."""
    return next(levels(p, x))


def theta(p: EmbeddingPair, x: LassoRay) -> Angle:
    """The binary angle of the ray: the first level's digit sum mod 1."""
    return Angle.of(level(p, x)[1])


# -- shift, flip, canonical ----------------------------------------------------


def shift(x: LassoRay) -> LassoRay:
    """Drop the first edge (rotate the cycle when the prefix is empty)."""
    return shift_by(x, 1)


def shift_by(x: LassoRay, n: int) -> LassoRay:
    """n applications of shift, as one slice or one rotation."""
    m = len(x.prefix)
    if n <= m:
        return LassoRay(x.prefix[max(n, 0):], x.cycle)
    k = (n - m) % len(x.cycle)
    return LassoRay((), x.cycle[k:] + x.cycle[:k])


def flip(p: EmbeddingPair, x: LassoRay) -> LassoRay | None:
    """The unique partner of x under the carry identification, or None.

    Cases: a position n inside the image whose superscript differs from the
    constant superscript of the tail after it (binary carry 0.0111... =
    0.1000...); a spare edge followed by a constant-superscript tail; and
    the total swap when every edge lies in one embedding (0.000... = 1).
    """
    found = _flip_at(p, x)
    return None if found is None else found[0]


def _flip_at(p: EmbeddingPair, x: LassoRay) -> tuple[LassoRay, int] | None:
    """flip(x) and the first position where it differs from x, or None:
    the pivot position m - 1 for an image pivot (its digit carries), m for
    a spare pivot (the tail after it swaps), 1 for the total swap.  At that
    position flip(x) carries the partner of x's edge."""
    if not p.xi_image.issuperset(x.cycle):
        return None
    digit = _digit_lookup(p)
    digits_cycle = set(map(digit, x.cycle))
    if len(digits_cycle) != 1:
        return None
    i = digits_cycle.pop()
    # m = first position of the maximal constant-superscript streak ending
    # the ray (a spare edge's digit is None)
    m = len(x.prefix) + 1
    while m >= 2 and digit(x.prefix[m - 2]) == i:
        m -= 1
    swap = p.partner
    if m == 1:
        return LassoRay(tuple(swap(e) for e in x.prefix), tuple(swap(e) for e in x.cycle)), 1
    pivot = x.prefix[m - 2]
    new_prefix = list(x.prefix)
    for j in range(m - 1, len(x.prefix)):
        new_prefix[j] = swap(x.prefix[j])
    new_cycle = tuple(swap(e) for e in x.cycle)
    if p.in_image(pivot):
        # carry: the pivot digit is 1-i; swap it too
        new_prefix[m - 2] = swap(pivot)
        at = m - 1
    else:
        # spare pivot, tail swap only
        at = m
    # renormalize: the prefix may now end in cycle edges
    return normal_form(new_prefix, new_cycle), at


def first_difference(x: LassoRay, y: LassoRay) -> int | None:
    """The least position where the rays carry different edges; None when
    they are equal."""
    if x == y:
        return None
    # the prefixes side by side, then both edge streams past the shorter one
    n = 0
    for a, b in zip(x.prefix, y.prefix):
        n += 1
        if a != b:
            return n
    bound = max(len(x.prefix), len(y.prefix)) + math.lcm(len(x.cycle), len(y.cycle)) + 1
    for a, b in itertools.islice(zip(edge_stream(x), edge_stream(y)), n, bound):
        n += 1
        if a != b:
            return n
    return None


def canonical(p: EmbeddingPair, x: LassoRay) -> ClassPoint:
    """Canonical class representative: the positionwise lexicographically
    smaller of x and its flip (by global edge index).  flip is an
    involution, so the other of the two is the representative's partner.

    The two rays first differ where flip pivots, and there the flip
    carries the partner of x's edge, so one comparison of edge indices
    decides."""
    found = _flip_at(p, x)
    if found is None:
        return ClassPoint(x, None)
    other, n = found
    e = x.edge_at(n)
    index = p.g.edge_index
    if index[e] < index[p.partner(e)]:
        return ClassPoint(x, other)
    return ClassPoint(other, x)


def class_equal(p: EmbeddingPair, x: LassoRay, y: LassoRay) -> bool:
    return canonical(p, x) == canonical(p, y)


# -- stratum approximants -------------------------------------------------------


def stratum_approximant(p: EmbeddingPair, x: LassoRay, depth: int, k: int) -> LassoRay:
    """A lasso agreeing with x on positions 1..depth with exactly k spare
    edges, ending in an all-image tail.

    The completion inserts spare edges only beyond the agreed prefix, so
    the shift-metric distance to x is at most 2^-depth.
    """
    if depth < 1:
        raise RayError("depth must be >= 1")
    head = list(x.head(depth))
    j = p.spare_count(head)
    if k < j:
        raise RayError(f"stratum {k} too small: prefix already has {j} spare edges")
    needed = k - j
    tables = p.completion
    v = p.g.target(head[-1])
    comp = tables[v]
    if comp.min_forced is None:
        raise RayError(f"no image tail reachable from vertex {v!r}")
    if needed < comp.min_forced:
        raise RayError(
            f"stratum {k} unreachable: at least {comp.min_forced} spare edges "
            f"needed after depth {depth}"
        )
    route = list(comp.min_forced_path or ())
    u = v
    for e in route:
        u = p.g.target(e)
    tail = tables[u].xi_tail
    if tail is None:
        raise RayError(f"no image tail at vertex {u!r}")
    lead, cyc = tail
    route.extend(lead)
    budget = needed - comp.min_forced
    # extra spare edges come from swapping image edges on the route to their
    # parallel spare twins (H2); extend with cycle laps until enough slots
    slots = [idx for idx, e in enumerate(route) if p.in_image(e)]
    while len(slots) < budget:
        base = len(route)
        route.extend(cyc)
        slots.extend(range(base, base + len(cyc)))
    for idx in slots[:budget]:
        spare = p.spare_twin(route[idx])
        if spare is None:
            raise RayError(f"no spare edge parallel to {route[idx]!r} (H2 fails)")
        route[idx] = spare
    return LassoRay.make(p.g, head + route, cyc)


# -- preimage lifting -----------------------------------------------------------


def lift_preimage(p: EmbeddingPair, x: LassoRay | ClassPoint, y: LassoRay) -> LassoRay:
    """A shift-preimage of x starting like y.

    Returns z with shift(z) in the class of x and the first edge of z glued
    to the first edge of y (equal as quotient edges).  Among the valid
    candidates - both class representatives of x, prepended with either
    copy of y's first edge - the one whose binary angle lands closest to
    y's is chosen; this is what makes the contraction bound
    d(z, y) <= d(x, shift(y)) / 2 hold through binary carries.  A class
    point x gives its rep and the partner it holds; a ray is flipped.
    """
    ray = x.rep if isinstance(x, ClassPoint) else x
    g = p.g
    y1 = y.edge_at(1)
    if g.target(y1) != g.source(ray.edge_at(1)):
        raise RayError("first edge of x is not composable after the first edge of y")

    other = x.partner if isinstance(x, ClassPoint) else flip(p, ray)
    reps = [ray] if other is None or other == ray else [ray, other]
    if p.in_image(y1):
        firsts = [y1, p.partner(y1)]
    else:
        firsts = [y1]

    # a candidate e.rep is scored from rep's first level: a spare e puts a
    # spare edge at position 1, an image e adds one leading digit; only its
    # new junction needs a check, unless rep itself is not a lasso of G
    target_n, t_num, t_den = next(raw_levels(p, y))
    scored = [
        (rep, next(raw_levels(p, rep)), _lasso_fault(g, rep.prefix + rep.cycle, len(rep.prefix)))
        for rep in reps
    ]
    candidates = [(e, rep, lv, fault) for e in firsts for rep, lv, fault in scored]
    for e, rep, _, fault in candidates:
        if fault is not None:
            raise RayError(_lasso_fault(g, (e,) + rep.prefix + rep.cycle, 1 + len(rep.prefix)))
        head = rep.edge_at(1)
        if g.target(e) != g.source(head):
            raise RayError(f"edges {e!r},{head!r} are not composable")

    # the first candidate landing on y's level and angle has the best score
    # (0, 0, index); without one, the nearest angle wins, the first on ties.
    # An angle is a numerator and a denominator reduced mod 1 (sums lie in [0, 1])
    t_num %= t_den
    angles = []
    for e, rep, (n, num, den), _ in candidates:
        if p.in_image(e):
            n, num, den = n + 1, (epsilon(p, e) * den + num) % (2 * den), 2 * den
        else:
            n, num, den = 1, 0, 1
        if n == target_n and num * t_den == t_num * den:
            break
        angles.append(Angle(Fraction(num, den)))
    else:
        target = Angle(Fraction(t_num, t_den))
        e, rep, _, _ = candidates[min(range(len(angles)), key=lambda i: angles[i].distance(target))]
    # every candidate passed the checks above, so no second validation
    return normal_form((e,) + rep.prefix, rep.cycle)
