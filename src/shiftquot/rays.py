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
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .embedding import EmbeddingPair
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
        sources = list(map(g.source, whole))
    except KeyError as exc:
        return f"unknown edge {exc.args[0]!r}"
    targets = list(map(g.target, whole))
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


def format_exact(x: Fraction | int) -> str:
    """str(x) at any size: Decimal's text of an integer is not held to
    Python's limit on integer-to-text digits (sys.set_int_max_str_digits)."""
    num, den = x.as_integer_ratio()
    return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


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
    n, _, _ = next(raw_levels(p, x))
    if n == math.inf:
        raise RayError("ray lies entirely in the embedded image (kappa = 0)")
    return int(n)


def raw_levels(p: EmbeddingPair, x: LassoRay) -> Iterator[tuple[int | float, int, int]]:
    """(gap, digit-sum numerator, denominator) of each level of the ray, in
    order: the one level walk.

    A level runs up to and including the next spare edge; its gap is the
    number of positions it spans and its digit sum runs over the positions
    before that spare edge (a value in [0, 1), over 2^(gap - 1)).  When the
    ray has finitely many spare edges the walk ends with (math.inf, full
    series of the all-image tail), a value in [0, 1], unreduced: the
    all-ones tail sums to exactly 1.  Otherwise it never ends.

    One superscript lookup per edge, None meaning a spare edge.  When H1
    fails the levels before the first image edge come out, then the
    superscript map's EmbeddingError."""
    digit = p.superscript
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


def theta(p: EmbeddingPair, x: LassoRay) -> Angle:
    """The binary angle of the ray: the first level's digit sum mod 1."""
    _, num, den = next(raw_levels(p, x))
    return Angle.of(Fraction(num, den))


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
    """flip(x) and the first position where it differs from x, or None.

    The carry rule: when x's cycle lies in one embedding, let m be the
    first position of the maximal streak of that superscript ending the
    ray.  The position is the pivot position m - 1 for an image pivot (its
    digit carries), m for a spare pivot (the tail after it swaps), 1 for
    the total swap (m = 1).  At that position flip(x) carries the partner
    of x's edge."""
    if not p.xi_image.issuperset(x.cycle):
        return None
    digit = p.superscript
    digits_cycle = set(map(digit, x.cycle))
    if len(digits_cycle) != 1:
        return None
    i = digits_cycle.pop()
    # a spare edge's digit is None
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


def first_difference(x: LassoRay, y: LassoRay, key: Callable[[str], object] | None = None) -> int | None:
    """The least position where the rays carry different edges, or
    different key(edge) when a key is given; None when there is none.

    Both edge streams are periodic past the longer prefix, so one common
    period beyond it decides: max(len(prefix)) + lcm(len(cycle)) positions."""
    bound = max(len(x.prefix), len(y.prefix)) + math.lcm(len(x.cycle), len(y.cycle))
    xs, ys = edge_stream(x), edge_stream(y)
    if key is not None:
        xs, ys = map(key, xs), map(key, ys)
    for n, (a, b) in enumerate(itertools.islice(zip(xs, ys), bound), 1):
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
    path = tables[v].min_forced_path
    if path is None:
        raise RayError(f"no image tail reachable from vertex {v!r}")
    forced = p.spare_count(path)
    if needed < forced:
        raise RayError(
            f"stratum {k} unreachable: at least {forced} spare edges "
            f"needed after depth {depth}"
        )
    route = list(path)
    u = v
    for e in route:
        u = p.g.target(e)
    tail = tables[u].xi_tail
    if tail is None:
        raise RayError(f"no image tail at vertex {u!r}")
    lead, cyc = tail
    route.extend(lead)
    budget = needed - forced
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


# -- growing a class one edge at a time ---------------------------------------------
#
# Write e.x for normal_form((e,) + x.prefix, x.cycle).  The class of e.x
# follows from the class of x in O(1) steps.  e.x has x's cycle, so it has a
# flip exactly when x has one.  When flip(x) has a pivot, or x is a total
# swap (every edge has the cycle's superscript) and e is spare (the new
# pivot), flip(e.x) = e.flip(x): canonical decides one position later than
# for x, on the same two edges.  When x is a total swap and e an image edge,
# the flip swaps e too: flip(e.x) = partner(e).flip(x), the first edges
# decide, and e.x is again a total swap exactly when e has the cycle's
# superscript.


def _prepend(e: str, x: LassoRay) -> LassoRay:
    """e.x for x in normal form: only an empty prefix can take e into the
    cycle, as a rotation."""
    if x.prefix or e != x.cycle[-1]:
        return LassoRay((e,) + x.prefix, x.cycle)
    return LassoRay((), (e,) + x.cycle[:-1])


def _total_swap(p: EmbeddingPair, point: ClassPoint) -> bool:
    """Whether the flip of the point's members is a total swap.  Only two
    flips change position 1: the total swap, and a carry at position 1,
    whose pivot digit is the opposite of the cycle's superscript."""
    other = point.partner
    if other is None:
        return False
    a = point.rep.edge_at(1)
    return a != other.edge_at(1) and p.superscript(a) == p.superscript(point.rep.cycle[0])


def _prepend_class(
    p: EmbeddingPair, point: ClassPoint, total: bool, e: str, k: int
) -> tuple[ClassPoint, bool, int, str | None]:
    """The class point of e.x, where x is member k of `point` (0 its rep, 1
    its partner) and `total` says whether flip(x) is a total swap.  Returns
    that point, the same flag for e.x, the member e.x is in it, and the
    edge put in front of the other member (None when there is none)."""
    x, other = (point.partner, point.rep) if k else (point.rep, point.partner)
    ex = _prepend(e, x)
    if other is None:
        return ClassPoint(ex, None), False, 0, None
    d = p.superscript(e)
    if total and d is not None:
        f = p.partner(e)
        index = p.g.edge_index
        k = 0 if index[e] < index[f] else 1
        total = d == p.superscript(x.cycle[0])
    else:
        f, total = e, False
    fx = _prepend(f, other)
    return (ClassPoint(fx, ex) if k else ClassPoint(ex, fx)), total, k, f


def grow_classes(p: EmbeddingPair, x: LassoRay, lead: Sequence[str]) -> list[ClassPoint]:
    """canonical(p, x), then the class point of each longer ray lead[j:] + x
    for j = len(lead) - 1 down to 0, each from the one before in O(1)
    steps.  The edges of `lead` must compose, in order, before x."""
    point = canonical(p, x)
    points = [point]
    total, k = _total_swap(p, point), int(point.rep != x)
    for e in reversed(lead):
        point, total, k, _ = _prepend_class(p, point, total, e, k)
        points.append(point)
    return points


# -- preimage lifting -----------------------------------------------------------


def lift_preimage(p: EmbeddingPair, x: LassoRay, y: LassoRay) -> LassoRay:
    """A shift-preimage of x starting like y.

    Returns z with shift(z) in the class of x and the first edge of z glued
    to the first edge of y (equal as quotient edges).  Among the valid
    candidates - both class representatives of x, prepended with either
    copy of y's first edge - the one whose binary angle lands closest to
    y's is chosen; this is what makes the contraction bound
    d(z, y) <= d(x, shift(y)) / 2 hold through binary carries.
    """
    y1 = _lift_start(p, x, y)
    other = flip(p, x)
    reps = [x] if other is None or other == x else [x, other]
    e, k, _ = _lift_choice(p, y1, y, reps, None)
    # every candidate passed the checks of _lift_choice, so no second validation
    return _prepend(e, reps[k])


def lift_classes(p: EmbeddingPair, point: ClassPoint, targets: Sequence[LassoRay]) -> list[ClassPoint]:
    """point, then for each target y in turn the class of lift_preimage of
    the last class point toward y, with the same choice and the same
    errors.  Each class is grown from the one before (see _prepend_class);
    of y only the first level is read.  `point` holds its rep's flip as its
    partner, as canonical builds it.

    Each member's first level (gap, digit sum as an unreduced numerator and
    denominator) is grown with the edge put in front of it, not read
    again: an image edge of superscript d makes (n, num, den) into
    (n + 1, d * den + num, 2 * den), a spare edge into (1, 0, 1).  The sum
    stays unreduced (the all-image tail of all ones sums to 1, and a digit
    in front of it gives (d + 1) / 2, not d / 2); it is reduced mod 1 only
    to compare angles.

    The members of `point` are checked as lassos of G, as lift_preimage
    checks them.  A later member is e.m for a member m of the class before
    and an edge e whose junction with m was checked there (each candidate
    edge is checked before every member), so it is a lasso of G too.
    """
    out = [point]
    member_levels: list[tuple[int | float, int, int]] | None = None  # read at the first lift
    total = _total_swap(p, point)
    digit = p.superscript
    for y in targets:
        members = [point.rep] if point.partner is None else [point.rep, point.partner]
        y1 = _lift_start(p, point.rep, y)
        e, k, member_levels = _lift_choice(p, y1, y, members, member_levels)
        point, total, j, f = _prepend_class(p, point, total, e, k)
        lifted = _grown_level(member_levels[k], digit(e))
        if f is None:
            member_levels = [lifted]
        else:
            other = _grown_level(member_levels[1 - k], digit(f))
            member_levels = [other, lifted] if j else [lifted, other]
        out.append(point)
    return out


def _grown_level(level: tuple[int | float, int, int], d: int | None) -> tuple[int | float, int, int]:
    """The first level of e.x from the first level of x, for an edge e of
    superscript d (None for a spare edge)."""
    if d is None:
        return 1, 0, 1
    n, num, den = level
    return n + 1, d * den + num, 2 * den


def grow_member_levels(
    p: EmbeddingPair,
    point: ClassPoint,
    before: list[tuple[LassoRay, tuple[int | float, int, int]]],
) -> list[tuple[LassoRay, tuple[int | float, int, int]]] | None:
    """The members of `point`, its rep first, each with its first level
    (gap, digit-sum numerator, denominator) as raw_levels gives it, grown
    from the members of the class before, given with their first levels
    as `before`: a member e.m, for its first edge e and a member m of
    `before`, has the level of m grown by e (see lift_classes), in O(1)
    steps and one comparison of shift(e.m) with m.  None when some member
    of `point` is no such ray."""
    digit = p.superscript
    out = []
    for r in (point.rep,) if point.partner is None else (point.rep, point.partner):
        pre, cyc = r.prefix, r.cycle
        shifted = (pre[1:], cyc) if pre else ((), cyc[1:] + cyc[:1])  # shift(r), unbuilt
        for m, level in before:
            if (m.prefix, m.cycle) == shifted:
                out.append((r, _grown_level(level, digit(r.edge_at(1)))))
                break
        else:
            return None
    return out


def _lift_start(p: EmbeddingPair, ray: LassoRay, y: LassoRay) -> str:
    """y's first edge, after checking that ray's first edge composes after it."""
    g = p.g
    y1 = y.edge_at(1)
    if g.target(y1) != g.source(ray.edge_at(1)):
        raise RayError("first edge of x is not composable after the first edge of y")
    return y1


def _lift_choice(
    p: EmbeddingPair,
    y1: str,
    y: LassoRay,
    members: list[LassoRay],
    member_levels: list[tuple[int | float, int, int]] | None,
) -> tuple[str, int, list[tuple[int | float, int, int]]]:
    """The lift e.members[k] toward y that lift_preimage picks, as (e, k,
    the members' first levels).  The candidates are the members with
    either copy of y's first edge y1 in front; each one's junction is
    checked.  Without the members' first levels (None) they are read
    here, and the members are checked as lassos of G as well."""
    g = p.g
    firsts = [y1, p.partner(y1)] if p.in_image(y1) else [y1]
    target_n, t_num, t_den = next(raw_levels(p, y))
    faults: list[str | None] = [None] * len(members)
    if member_levels is None:
        member_levels = [next(raw_levels(p, m)) for m in members]
        faults = [_lasso_fault(g, m.prefix + m.cycle, len(m.prefix)) for m in members]
    candidates = [(e, k) for e in firsts for k in range(len(members))]
    for e, k in candidates:
        m = members[k]
        if faults[k] is not None:
            raise RayError(_lasso_fault(g, (e,) + m.prefix + m.cycle, 1 + len(m.prefix)))
        head = m.edge_at(1)
        if g.target(e) != g.source(head):
            raise RayError(f"edges {e!r},{head!r} are not composable")

    # the first candidate landing on y's level and angle has the best score
    # (0, 0, index); without one, the nearest angle wins, the first on ties.
    # An angle is a numerator and a denominator reduced mod 1 (sums lie in [0, 1])
    digit = p.superscript
    t_num %= t_den
    angles = []
    for e, k in candidates:
        n, num, den = _grown_level(member_levels[k], digit(e))
        num %= den
        if n == target_n and num * t_den == t_num * den:
            break
        angles.append(Angle(Fraction(num, den)))
    else:
        target = Angle(Fraction(t_num, t_den))
        e, k = candidates[min(range(len(angles)), key=lambda i: angles[i].distance(target))]
    return e, k, member_levels
