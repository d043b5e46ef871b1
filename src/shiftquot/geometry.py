"""Planar realization of the quotient space: the nested-circle embedding.

The complex coordinate of a ray is defined by a contraction recursion: at
each spare edge the picture recurses into a disc of radius 2^(-3-n) around
a point determined by the binary angle accumulated so far.  Circle centers
and radii are kept symbolically (rational coefficients times roots of
unity); floats appear only at render time, with certified error bounds.
Every center, radius and angle is dyadic, so the circle enumeration walks
on integers (digit-sum numerators and radius exponents) and builds the
exact Fraction and Angle values only for the circles it emits, each
distinct value once per call: the emitted specs share them.  Rendering
likewise turns each distinct coefficient and angle into a float once and
formats each distinct circle once.  A walk that would visit more than
CIRCLE_BUDGET circles is refused before it starts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .embedding import EmbeddingPair, EmbeddingError, epsilon
from .graphs import paths_of_length
from .metrics import tau_ray
from .rays import (
    Angle,
    LassoRay,
    RayError,
    canonical,
    format_ray,
    kappa,
    levels,
    stratum_approximant,
)


def _angle_complex(a: Angle) -> complex:
    return cmath.exp(2j * math.pi * float(a.turns))


def zeta_exact_terms(
    p: EmbeddingPair, x: LassoRay
) -> list[tuple[Fraction, Angle]]:
    """The complex coordinate of a finite-stratum ray as an exact sum of
    (rational coefficient, angle) terms.

    Unrolls the recursion: the levels give the center of the ray's circle
    (see _spec_from_levels), and the final all-image tail contributes its
    series angle scaled by the accumulated contraction factor, which is
    the circle's radius.
    """
    if kappa(p, x) == math.inf:
        raise RayError("exact coordinate needs finitely many spare edges")
    *chain, (_, tail) = levels(p, x)
    spec = _spec_from_levels((), [(n, Angle.of(t)) for n, t in chain])
    return [*spec.center_terms, (spec.radius, Angle.of(tail))]


def _eval_terms(terms: list[tuple[Fraction, Angle]]) -> complex:
    return sum((float(c) * _angle_complex(a) for c, a in terms), 0j)


def zeta_approx(
    p: EmbeddingPair, x: LassoRay, depth: int = 12
) -> tuple[complex, Fraction]:
    """Approximate complex coordinate with a certified error bound.

    The ray is replaced by its depth-N stratum approximant (moving the
    value by at most 8 * 3 * 2^-N via the Lipschitz bound), and the exact
    term sum is evaluated in floating point (tiny rounding slack added).
    """
    j = sum(1 for e in x.head(depth) if not p.in_image(e))
    xa = stratum_approximant(p, x, depth, j)
    terms = zeta_exact_terms(p, xa)
    value = _eval_terms(terms)
    rounding = Fraction(len(terms) * 8 + 16, 2**48)
    bound = Fraction(24, 2**depth) + rounding
    return value, bound


# -- circle specifications -----------------------------------------------------


@dataclass(frozen=True)
class CircleSpec:
    """One circle of the image: the full coordinate set of the rays that
    extend a fixed prefix ending at its last spare edge."""

    prefix: tuple[str, ...]
    levels: tuple[tuple[int, Angle], ...]  # (gap to the i-th spare edge, angle)
    center_terms: tuple[tuple[Fraction, Angle], ...]
    radius: Fraction

    def center_value(self) -> complex:
        return _eval_terms(list(self.center_terms))

    def sort_key(self):
        return (
            len(self.levels),
            tuple(n for n, _ in self.levels),
            tuple(a.turns for _, a in self.levels),
        )


def _spec_from_levels(
    prefix: tuple[str, ...], levels: list[tuple[int, Angle]]
) -> CircleSpec:
    """Level i contributes (prod_{j<i} 2^(-3-n_j)) * (1 - 2^(1-n_i)) *
    e^(2 pi i theta_i) to the center; the radius is the full product."""
    terms: list[tuple[Fraction, Angle]] = []
    scale = Fraction(1)
    total_gap = 0
    for n, a in levels:
        coeff = scale * (1 - Fraction(2) ** (1 - n))
        if coeff:
            terms.append((coeff, a))
        scale *= Fraction(1, 2 ** (3 + n))
        total_gap += n
    radius = Fraction(1, 2 ** (3 * len(levels) + total_gap))
    return CircleSpec(prefix, tuple(levels), tuple(terms), radius)


def circle_specs(
    p: EmbeddingPair,
    max_k: int,
    max_depth: int,
    min_radius: Fraction | float = 0,
) -> list[CircleSpec]:
    """All circles arising from prefixes with at most max_k spare edges,
    the last one no deeper than max_depth, larger than min_radius.

    Deterministic order: by stratum, then gap chain, then angle chain.
    """
    specs, _ = circle_specs_report(p, max_k, max_depth, min_radius)
    return specs


def _steps_to_spare(p: EmbeddingPair) -> dict[str, int | float]:
    """Fewest edges in a path from each vertex whose last edge is spare
    (inf where no spare edge is reachable): one backward BFS."""
    g = p.g
    dist: dict[str, int | float] = dict.fromkeys(g.vertices, math.inf)
    frontier = [v for v in g.vertices if any(not p.in_image(e) for e in g.out_edges(v))]
    for v in frontier:
        dist[v] = 1
    for v in frontier:  # grows while it is read: breadth-first order
        for e in g.in_edges(v):
            u = g.source(e)
            if dist[u] == math.inf:
                dist[u] = dist[v] + 1
                frontier.append(u)
    return dist


CIRCLE_BUDGET = 250_000
"""Most circles, kept or pruned, that one circle enumeration may visit.
twovertex has 233,785 at max_k 3, depth 8 (`render` takes about 9 s and
330 MiB on a 2-vCPU VM) and 945,977 at depth 9."""


def circle_count(
    p: EmbeddingPair, max_k: int, max_depth: int, stop: int | float = math.inf
) -> int:
    """Circles the walk of circle_specs_report visits, pruned ones included:
    the unit circle plus one per path of length <= max_depth that ends in
    its j-th spare edge (1 <= j <= max_k) at a vertex with an all-image
    tail.  A transfer recurrence over (vertex, spare edges so far), which
    drops paths that can reach no further spare edge within max_depth (as
    the walk does) and returns early, with a partial count, at the first
    length where the count exceeds `stop`.
    """
    g = p.g
    has_tail = {v for v in g.vertices if p.completion[v].xi_tail is not None}
    to_spare = _steps_to_spare(p)
    # live[(v, j)]: paths ending at v with j < max_k spare edges
    live = {(v, 0): 1 for v in g.vertices if to_spare[v] <= max_depth} if max_k > 0 else {}
    total = 1
    for length in range(1, max_depth + 1):
        if not live or total > stop:
            break
        room = max_depth - length
        nxt: dict[tuple[str, int], int] = {}
        for (v, j), c in live.items():
            for e in g.out_edges(v):
                w = g.target(e)
                if p.in_image(e):
                    key = (w, j)
                else:
                    if w in has_tail:
                        total += c
                    if j + 1 == max_k:
                        continue
                    key = (w, j + 1)
                if to_spare[w] <= room:
                    nxt[key] = nxt.get(key, 0) + c
        live = nxt
    return total


def circle_specs_report(
    p: EmbeddingPair,
    max_k: int,
    max_depth: int,
    min_radius: Fraction | float = 0,
) -> tuple[list[CircleSpec], Fraction]:
    """circle_specs plus the total radius of pruned circles.

    Raises EmbeddingError, before walking, if the walk would visit more
    than CIRCLE_BUDGET circles (circle_count, pruned circles included).

    The walk carries dyadic integers only: the digit sum of the current gap
    as a numerator N over 2^gap, and each radius as its exponent e (radius
    2^-e).  A level is the tuple (count, e, levels, center terms, gap chain,
    numerator chain); its exact angle and center coefficient are taken when
    it is pushed, and only if circles of its size are kept.  Tables that
    live for this call build each distinct value once: the angle keyed by
    (gap, N), the center coefficient by (gap, e of the enclosing level) and
    the radius by e, so emitted specs share them.  Circles with equal gap
    chains have equal angle denominators, so (stratum, gap chain, numerator
    chain) sorts exactly like the angle chain, and the stable sort keeps
    ties in walk order.  Edges from which no spare edge is reachable within
    the depth are skipped: they emit nothing.

    render_svg walks again rather than take the specs its caller already
    holds, so `render` walks twice: the benchmark's smoke test pins two
    walks per render job, and one walk waits for a change to the benchmark.
    """
    tables = p.completion
    min_r = Fraction(min_radius).limit_denominator(10**12) if isinstance(min_radius, float) else Fraction(min_radius)
    has_tail = {v for v in p.g.vertices if tables[v].xi_tail is not None}
    if not has_tail:
        raise EmbeddingError("no all-image tails exist (the small graph has no cycle)")
    count = circle_count(p, max_k, max_depth, stop=CIRCLE_BUDGET)
    if count > CIRCLE_BUDGET:
        raise EmbeddingError(
            f"the circle walk would visit at least {count:,} circles, more than "
            f"the budget of {CIRCLE_BUDGET:,}: lower the depth or max_k"
        )
    # radius 2^-e is kept iff 2^-e >= min_r, i.e. iff e <= e_max
    e_max = math.inf if min_r <= 0 else (min_r.denominator // min_r.numerator).bit_length() - 1
    found: list[tuple[tuple, CircleSpec]] = []
    pruned: dict[int, int] = {}  # exponent -> number of pruned circles
    angles: dict[tuple[int, int], Angle] = {}
    coeffs: dict[tuple[int, int], Fraction] = {}
    radii: dict[int, Fraction] = {}

    # stratum zero: the unit circle itself
    if e_max >= 0:
        found.append(((0, (), ()), _spec_from_levels((), [])))
    else:
        pruned[0] = 1

    g = p.g
    # per vertex, in reverse out-edge order (the stack pops them in order):
    # (edge, target, superscript or None for a spare edge, fewest further
    # edges before a spare one can be taken)
    to_spare = _steps_to_spare(p)
    steps = {
        v: tuple(
            (e, g.target(e), epsilon(p, e), to_spare[g.target(e)])
            if p.in_image(e) else (e, g.target(e), None, 0)
            for e in reversed(g.out_edges(v))
        )
        for v in g.vertices
    }
    top = (0, 0, (), (), (), ())
    # (step, position of its edge, gap and numerator before it, level)
    roots = reversed(g.vertices) if max_k > 0 else ()
    stack = [(s, 1, 0, 0, top) for v in roots for s in steps[v] if s[3] < max_depth]
    prefix: list[str] = []
    while stack:
        (edge, at, eps, _), pos, gap, num, lev = stack.pop()
        del prefix[pos - 1:]
        prefix.append(edge)
        if eps is not None:
            gap += 1
            num = 2 * num + eps
        else:
            k, e0, levels, terms, gaps, nums = lev
            n = gap + 1
            radius_exp = e0 + 3 + n
            gaps += (n,)
            nums += (num,)
            if radius_exp <= e_max:
                # N / 2^gap in lowest terms, so that equal angles are one object
                shift = (num & -num).bit_length() - 1 if num else gap
                key = (gap - shift, num >> shift)
                angle = angles.get(key)
                if angle is None:
                    angle = angles[key] = Angle(Fraction(key[1], 1 << key[0]))
                levels += ((n, angle),)
                if n > 1:
                    coeff = coeffs.get((gap, e0))
                    if coeff is None:
                        coeff = coeffs[gap, e0] = Fraction((1 << gap) - 1, 1 << (gap + e0))
                    terms += ((coeff, angle),)
                if at in has_tail:
                    radius = radii.get(radius_exp)
                    if radius is None:
                        radius = radii[radius_exp] = Fraction(1, 1 << radius_exp)
                    found.append(((k + 1, gaps, nums), CircleSpec(tuple(prefix), levels, terms, radius)))
            elif at in has_tail:
                pruned[radius_exp] = pruned.get(radius_exp, 0) + 1
            if k + 1 == max_k:
                continue
            lev = (k + 1, radius_exp, levels, terms, gaps, nums)
            gap = num = 0
        room = max_depth - pos
        for s in steps[at]:
            if s[3] < room:
                stack.append((s, pos + 1, gap, num, lev))

    found.sort(key=lambda item: item[0])
    total = sum((Fraction(c, 1 << e) for e, c in pruned.items()), Fraction(0))
    return [spec for _, spec in found], total


# -- fiber classification --------------------------------------------------------


@dataclass(frozen=True)
class FiberClass:
    kind: str  # "circles" | "points" | "totally_disconnected"
    count: int | None = None

    def render(self) -> str:
        if self.kind == "circles":
            return f"Circles({self.count})"
        if self.kind == "points":
            return f"Points({self.count})"
        return "TotallyDisconnected"


def fiber_classify(p: EmbeddingPair, base: LassoRay) -> FiberClass:
    """Classify the fiber of the quotient-graph factor map over a base ray.

    Finitely many doubled positions give 2^m isolated points; finitely many
    spare positions (with doubled tail) give disjoint circles counted by
    the compatible prefixes up to the last spare edge; otherwise the fiber
    is totally disconnected.
    """
    q = p.quotient
    for e in base.prefix + base.cycle:
        if not q.graph.has_edge(e):
            raise RayError(f"unknown quotient edge {e!r}")
    doubled = {q.tau[p.xi0_edges[y]] for y in p.h.edges}
    m_cycle = any(e in doubled for e in base.cycle)
    spare_cycle = any(e not in doubled for e in base.cycle)
    if not m_cycle:
        m = sum(1 for e in base.prefix if e in doubled)
        return FiberClass("points", 2**m)
    if spare_cycle:
        return FiberClass("totally_disconnected")
    n_max = 0
    for i, e in enumerate(base.prefix, start=1):
        if e not in doubled:
            n_max = i
    # compatible lifts of positions 1..i, counted by the vertex they end at
    # (None before position 1, where a lift may start anywhere)
    ends: dict[str, int] | None = None
    for i in range(1, n_max + 1):
        step: dict[str, int] = {}
        for e in q.fiber(base.edge_at(i)):
            lifts = 1 if ends is None else ends.get(p.g.source(e), 0)
            if lifts:
                step[p.g.target(e)] = step.get(p.g.target(e), 0) + lifts
        ends = step
    count = 1 if ends is None else sum(ends.values())
    return FiberClass("circles", count)


# -- rendering --------------------------------------------------------------------


def render_svg(
    p: EmbeddingPair,
    max_k: int,
    max_depth: int,
    min_radius: Fraction | float,
    scale: float,
) -> str:
    """Deterministic SVG of the circle specifications (byte-reproducible).

    Specs with equal levels are one circle, and their sort puts them next
    to each other, so each run of them is drawn from one formatted line;
    each distinct coefficient and angle becomes a float once.  The center
    sums its terms as CircleSpec.center_value does, so the bytes match it.
    """
    specs = circle_specs(p, max_k, max_depth, min_radius)
    margin = 1.1
    size = 2 * margin * scale

    def fmt(v: float) -> str:
        return f"{v:.9f}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(size)}" height="{fmt(size)}" '
        f'viewBox="0 0 {fmt(size)} {fmt(size)}">',
    ]
    # keyed by id: the walk builds each distinct value once, and specs
    # holds every key alive until the loop ends
    floats: dict[int, float] = {}
    units: dict[int, complex] = {}
    last: CircleSpec | None = None
    for spec in specs:
        if last is None or spec.levels != last.levels:
            last = spec
            for coeff, a in spec.center_terms:
                if id(coeff) not in floats:
                    floats[id(coeff)] = float(coeff)
                if id(a) not in units:
                    units[id(a)] = _angle_complex(a)
            c = sum((floats[id(coeff)] * units[id(a)] for coeff, a in spec.center_terms), 0j)
            cx = margin * scale + scale * c.real
            cy = margin * scale - scale * c.imag
            r = scale * float(spec.radius)
            line = (
                f'  <circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" '
                'fill="none" stroke="black" stroke-width="0.5"/>'
            )
        lines.append(line)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- discrete injectivity check ----------------------------------------------------


@dataclass(frozen=True)
class InjectivityReport:
    classes: int
    collisions: tuple[tuple[str, str], ...]

    @property
    def injective(self) -> bool:
        return not self.collisions


def _discrete_invariant(p: EmbeddingPair, x: LassoRay):
    """(quotient image, chain of (gap, angle) level data, tail angle): a
    complete invariant of the identification class for finite strata."""
    *chain, (_, tail) = levels(p, x)
    return (tau_ray(p, x), tuple(chain), Angle.of(tail).turns)


def embedding_injectivity_check(
    p: EmbeddingPair,
    depth: int,
    tail_length: int = 1,
    class_cap: int = 200_000,
) -> InjectivityReport:
    """Exhaustively verify that distinct identification classes of bounded
    lassos have distinct discrete invariants.

    Enumerates all lassos with prefix length <= depth and cycle length
    <= tail_length whose spare count is finite.
    """
    g = p.g
    # a cycle carrying a spare edge gives kappa = infinity whatever the prefix
    cycles = [
        w.edges
        for L in range(1, tail_length + 1)
        for v in g.vertices
        for w in paths_of_length(g, L, src=v, dst=v)
        if all(p.in_image(e) for e in w.edges)
    ]
    cycles_at: dict[str, list[tuple[str, ...]]] = {v: [] for v in g.vertices}
    for cyc in cycles:
        cycles_at[g.source(cyc[0])].append(cyc)

    reps: dict[object, LassoRay] = {}
    invariants: dict[object, object] = {}
    collisions: list[tuple[str, str]] = []
    # depth-first over composable prefixes, each prefix before its extensions;
    # the empty prefix takes every cycle and extends by every edge
    stack: list[tuple[str, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            at = g.target(prefix[-1])
            here, onward = cycles_at[at], g.out_edges(at)
        else:
            here, onward = cycles, g.edges
        for cyc in here:
            c = canonical(p, LassoRay.make(g, prefix, cyc))
            key = (c.rep.prefix, c.rep.cycle)
            if key in reps:
                continue
            if len(reps) >= class_cap:
                raise RayError("class cap exceeded")
            reps[key] = c.rep
            inv = _discrete_invariant(p, c.rep)
            other = invariants.get(inv)
            if other is not None:
                collisions.append((format_ray(other), format_ray(c.rep)))
            else:
                invariants[inv] = c.rep
        if len(prefix) < depth:
            stack.extend(prefix + (e,) for e in reversed(onward))
    return InjectivityReport(len(reps), tuple(collisions))
