"""Planar realization of the quotient space: the nested-circle embedding.

The complex coordinate of a ray is defined by a contraction recursion: at
each spare edge the picture recurses into a disc of radius 2^(-3-n) around
a point determined by the binary angle accumulated so far.  Circle centers
and radii are kept symbolically (rational coefficients times roots of
unity); floats appear only at render time, with certified error bounds.
Every center, radius and angle is dyadic, so the circle enumeration walks
on integers (digit-sum numerators and radius exponents).  Most circles
are given by many paths, so the walk merges paths into states with a path
count and builds each distinct circle, and each distinct exact value,
once: one spec per circle, holding the number of paths that give it.
Rendering formats each circle once and writes it once per path.  A walk
that would count more than CIRCLE_BUDGET circles is refused before it
starts.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .embedding import EmbeddingPair, EmbeddingError, epsilon
from .graphs import paths_of_length
from .rays import (
    Angle,
    LassoRay,
    RayError,
    canonical,
    format_ray,
    kappa,
    levels,
    normal_form,
    raw_levels,
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
    spec = _spec_from_levels([(n, Angle.of(t)) for n, t in chain])
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


class CircleSpec(NamedTuple):
    """One circle of the image: the full coordinate set of the rays that
    extend a prefix ending at its last spare edge, and the number of such
    prefixes that give this circle."""

    levels: tuple[tuple[int, Angle], ...]  # (gap to the i-th spare edge, angle)
    center_terms: tuple[tuple[Fraction, Angle], ...]
    radius: Fraction
    paths: int = 1

    def center_value(self) -> complex:
        return _eval_terms(list(self.center_terms))


def _spec_from_levels(levels: list[tuple[int, Angle]]) -> CircleSpec:
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
    return CircleSpec(tuple(levels), tuple(terms), radius)


def circle_specs(
    p: EmbeddingPair,
    max_k: int,
    max_depth: int,
    min_radius: Fraction | float = 0,
) -> list[CircleSpec]:
    """All circles arising from prefixes with at most max_k spare edges,
    the last one no deeper than max_depth, larger than min_radius: one
    spec per distinct circle, with the number of prefixes that give it.

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
"""Most circles, kept or pruned, that one circle enumeration may count,
each as often as paths give it.  twovertex has 233,785 at max_k 3, depth
8, from 2,048 distinct circles (`render` takes about 0.2 s and 73 MiB peak
RSS in-process on a 2-vCPU VM, most of it the SVG text), and 945,977 at
depth 9."""

INJECTIVITY_CLASS_CAP = 200_000
"""Most identification classes that one embedding_injectivity_check may
count before it is refused."""


def circle_count(
    p: EmbeddingPair, max_k: int, max_depth: int, stop: int | float = math.inf
) -> int:
    """Circles that circle_specs_report counts, pruned ones included, each
    as often as paths give it: the unit circle plus one per path of length
    <= max_depth that ends in its j-th spare edge (1 <= j <= max_k) at a
    vertex with an all-image tail.  A transfer recurrence over (vertex,
    spare edges so far), which drops paths that can reach no further spare
    edge within max_depth (as the walk does) and returns early, with a
    partial count, at the first length where the count exceeds `stop`.
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

    Raises EmbeddingError, before walking, if the walk would count more
    than CIRCLE_BUDGET circles (circle_count, pruned circles included).

    The walk goes length by length over states (vertex, gap, numerator,
    chain id), each with the number of paths that reach it: the transfer
    recurrence of circle_count, refined by the level chain.  The gap's
    digit sum is a numerator N over 2^gap, and a radius is its exponent e
    (radius 2^-e).  Each level chain is interned as an integer id keyed on
    (parent id, gap, N), so a distinct circle is one id, built once with
    the number of paths that give it.  Its angle, center coefficient and
    radius come from tables keyed by (gap, N), (gap, e of the enclosing
    level) and e, and only if circles of its size are kept; the chains of
    pruned circles are keyed on (stratum, e) alone, and the pruned radius
    is summed from the counts.  Circles with equal gap chains have equal
    angle denominators, so (stratum, gap chain, numerator chain) sorts the
    distinct circles exactly like their angle chains.  Edges from which no
    spare edge is reachable within the depth are skipped, and the walk
    stops at the first length with no live state.

    render_svg walks again rather than take the specs its caller already
    holds, so `render` makes two state walks: the benchmark's smoke test
    pins two walks per render job, and one walk waits for a change to the
    benchmark.
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
    pruned: dict[int, int] = {}  # exponent -> number of pruned circles
    angles: dict[tuple[int, int], Angle] = {}
    coeffs: dict[tuple[int, int], Fraction] = {}

    g = p.g
    to_spare = _steps_to_spare(p)
    # per vertex, in out-edge order: (target, superscript or None for a
    # spare edge, fewest further edges before a spare one can be taken)
    steps: dict[str, list[tuple]] = {v: [] for v in g.vertices}
    for e in g.edges:
        w = g.target(e)
        steps[g.source(e)].append((w, epsilon(p, e), to_spare[w]) if p.in_image(e) else (w, None, 0))
    # chains[id]: (stratum, e, levels, center terms, gap chain, numerator
    # chain), levels and the rest None for the chain of a pruned circle
    chains: list[tuple] = [(0, 0, (), (), (), ())]
    chain_ids: dict[tuple[int, int, int], int] = {}
    # live and nxt map a state to the number of paths into it; found maps
    # the chain id of each kept circle to the number of paths that give it
    found: dict[int, int] = {}
    if e_max >= 0:
        found[0] = 1  # stratum zero: the unit circle itself
    else:
        pruned[0] = 1
    live = {(v, 0, 0, 0): 1 for v in g.vertices} if max_k > 0 else {}
    for length in range(max_depth):
        if not live:
            break
        room = max_depth - length
        nxt: dict[tuple, int] = {}
        for (v, gap, num, chain), c in live.items():
            for w, eps, further in steps[v]:
                if further >= room:
                    continue
                if eps is not None:
                    key = (w, gap + 1, 2 * num + eps, chain)
                else:
                    k, e0, levels, terms, gaps, nums = chains[chain]
                    n = gap + 1
                    e = e0 + 3 + n
                    kept = e <= e_max
                    chain_key = (chain, n, num) if kept else (-1, k + 1, e)
                    new = chain_ids.get(chain_key)
                    if new is None:
                        new = chain_ids[chain_key] = len(chains)
                        if kept:
                            # N / 2^gap in lowest terms, so that equal angles are one object
                            shift = (num & -num).bit_length() - 1 if num else gap
                            akey = (gap - shift, num >> shift)
                            angle = angles.get(akey)
                            if angle is None:
                                angle = angles[akey] = Angle(Fraction(akey[1], 1 << akey[0]))
                            if n > 1:
                                coeff = coeffs.get((gap, e0))
                                if coeff is None:
                                    coeff = coeffs[gap, e0] = Fraction((1 << gap) - 1, 1 << (gap + e0))
                                terms += ((coeff, angle),)
                            chains.append((k + 1, e, levels + ((n, angle),), terms, gaps + (n,), nums + (num,)))
                        else:
                            chains.append((k + 1, e, None, None, None, None))
                    if w in has_tail:
                        if kept:
                            found[new] = found.get(new, 0) + c
                        else:
                            pruned[e] = pruned.get(e, 0) + c
                    if k + 1 == max_k:
                        continue
                    key = (w, 0, 0, new)
                nxt[key] = nxt.get(key, 0) + c
        live = nxt

    order = sorted(found, key=lambda i: (chains[i][0], chains[i][4], chains[i][5]))
    radii: dict[int, Fraction] = {}
    specs = []
    for i in order:
        _, e, levels, terms, _, _ = chains[i]
        radius = radii.get(e)
        if radius is None:
            radius = radii[e] = Fraction(1, 1 << e)
        specs.append(CircleSpec(levels, terms, radius, found[i]))
    total = sum((Fraction(c, 1 << e) for e, c in pruned.items()), Fraction(0))
    return specs, total


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

    Each spec's circle is formatted once and its line written spec.paths
    times, in circle_specs order; each distinct coefficient and angle
    becomes a float once.  The center sums its terms as
    CircleSpec.center_value does, so the bytes match it.
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
    for _, terms, radius, paths in specs:
        for coeff, a in terms:
            if id(coeff) not in floats:
                floats[id(coeff)] = float(coeff)
            if id(a) not in units:
                units[id(a)] = _angle_complex(a)
        c = sum((floats[id(coeff)] * units[id(a)] for coeff, a in terms), 0j)
        cx = margin * scale + scale * c.real
        cy = margin * scale - scale * c.imag
        r = scale * float(radius)
        line = (
            f'  <circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" '
            'fill="none" stroke="black" stroke-width="0.5"/>'
        )
        lines += [line] * paths
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
    """(quotient image, chain of (gap, digit-sum numerator) level data, tail
    angle): a complete invariant of the identification class for finite
    strata.  A level's digit sum has denominator 2^(gap - 1), so levels of
    equal gap compare by numerator alone."""
    *chain, (_, num, den) = raw_levels(p, x)
    tau = p.quotient.tau
    image = normal_form([tau[e] for e in x.prefix], tuple(tau[e] for e in x.cycle))
    return (image, tuple((gap, n) for gap, n, _ in chain), Fraction(num % den, den))


def _normal_spellings(
    p: EmbeddingPair, depth: int, tail_length: int
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The (prefix, cycle) of every lasso in normal form with prefix length
    <= depth, cycle length <= tail_length and finite spare count, each
    once, depth-first over composable prefixes (each prefix before its
    extensions; the empty prefix takes every cycle and extends by every
    edge); at one prefix, cycles by length, then start vertex, then the
    order of paths_of_length."""
    g = p.g
    # a cycle carrying a spare edge gives kappa = infinity whatever the prefix
    cycles = [
        w
        for L in range(1, tail_length + 1)
        for v in g.vertices
        for w in paths_of_length(g, L, src=v, dst=v)
        if all(p.in_image(e) for e in w) and normal_form((), w).cycle == w
    ]
    cycles_at: dict[str, list[tuple[str, ...]]] = {v: [] for v in g.vertices}
    for cyc in cycles:
        cycles_at[g.source(cyc[0])].append(cyc)

    stack: list[tuple[str, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            last = prefix[-1]
            at = g.target(last)
            for cyc in cycles_at[at]:
                if cyc[-1] != last:
                    yield prefix, cyc
            onward = g.out_edges(at)
        else:
            for cyc in cycles:
                yield prefix, cyc
            onward = g.edges
        if len(prefix) < depth:
            stack.extend(prefix + (e,) for e in reversed(onward))


def embedding_injectivity_check(
    p: EmbeddingPair,
    depth: int,
    tail_length: int = 1,
) -> InjectivityReport:
    """Exhaustively verify that distinct identification classes of bounded
    lassos have distinct discrete invariants.

    Enumerates all lassos with prefix length <= depth and cycle length
    <= tail_length whose spare count is finite, depth-first (see
    _normal_spellings), and counts each class when its first member is
    met; a collision pairs the first class with that invariant and the
    later one.  Spellings not in normal form are skipped, and that is
    exact: each spells a lasso met earlier in the same order.  A cycle
    r^k (k > 1) at a prefix is met first as r at that prefix, since r is
    shorter; a prefix P + (e,) with a cycle c ending in e is met first at
    P with the cycle (e,) + c[:-1], of the same length at the same vertex.
    So the classes and their first-met order are those of the walk over
    every spelling.  Each new class runs canonical once and records its
    rep and partner, so the class's other member is skipped by a set
    lookup.  More than INJECTIVITY_CLASS_CAP classes raise RayError.
    """
    seen: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    classes = 0
    invariants: dict[object, LassoRay] = {}
    collisions: list[tuple[str, str]] = []
    for key in _normal_spellings(p, depth, tail_length):
        if key in seen:
            continue
        if classes >= INJECTIVITY_CLASS_CAP:
            raise RayError(
                f"class cap exceeded: more than {INJECTIVITY_CLASS_CAP} identification classes at depth {depth}"
            )
        classes += 1
        c = canonical(p, LassoRay(*key))
        for x in (c.rep, c.partner):
            if x is not None:
                seen.add((x.prefix, x.cycle))
        other = invariants.setdefault(_discrete_invariant(p, c.rep), c.rep)
        if other is not c.rep:
            collisions.append((format_ray(other), format_ray(c.rep)))
    return InjectivityReport(classes, tuple(collisions))
