"""Planar realization of the quotient space: the nested-circle embedding.

The complex coordinate of a ray is defined by a contraction recursion: at
each spare edge the picture recurses into a disc of radius 2^(-3-n) around
a point determined by the binary angle accumulated so far.  Circle centers
and radii are kept symbolically (rational coefficients times roots of
unity); floats appear only at render time, with certified error bounds.
Every center, radius and angle is dyadic, so the circle enumeration walks
on integers, one level at a time, merging paths into states with a path
count: one spec per distinct circle, each exact value built once.
Rendering converts each value once and writes each circle once per path.
A walk that would count more than CIRCLE_BUDGET circles is refused before
it starts.

The three bulk enumerators, circle_specs_report, render_svg and
embedding_injectivity_check, run with the cyclic garbage collector
paused: they allocate many long-lived acyclic objects, which the
collector would scan again and again while freeing nothing.
"""

from __future__ import annotations

import cmath
import functools
import gc
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .embedding import EmbeddingPair, EmbeddingError
from .graphs import paths_of_length
from .rays import (
    Angle,
    LassoRay,
    RayError,
    format_exact,
    format_ray,
    kappa,
    normal_form,
    raw_levels,
    stratum_approximant,
)


def _without_cyclic_gc(fn):
    """Run fn with the cyclic garbage collector paused, if it is running.

    Safe because the paused code, the seed tables it builds on first use
    included, makes only acyclic objects (tuples, ints, Fractions, frozen
    Angles, id-keyed dicts, strings), which reference counting frees as
    soon as they are dropped; the collector would only rescan them.  The
    switch is process-global: two threads that enumerate at once may lose
    each other's pause, which costs speed, never correctness.  Objects
    allocated during the pause are scanned once, at the next collection
    after it ends.  A caller that has turned the collector off keeps it
    off, and nested calls do not turn it back on early.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _angle_complex(a: Angle) -> complex:
    return cmath.exp(2j * math.pi * float(a.turns))


def zeta_exact_terms(
    p: EmbeddingPair, x: LassoRay
) -> list[tuple[Fraction, Angle]]:
    """The complex coordinate of a finite-stratum ray as an exact sum of
    (rational coefficient, angle) terms.

    Unrolls the recursion on integers, as the circle walk does: inside a
    circle of radius 2^-e, a level of gap n adds its angle with the
    coefficient (2^(n-1) - 1) / 2^(n-1+e) (nothing when n = 1) and makes
    the circle 2^-(e+3+n); the final all-image tail contributes its series
    angle scaled by the last radius.
    """
    if kappa(p, x) == math.inf:
        raise RayError("exact coordinate needs finitely many spare edges")
    *chain, (_, num, den) = raw_levels(p, x)
    terms: list[tuple[Fraction, Angle]] = []
    e = 0
    for n, a, d in chain:
        if n > 1:
            terms.append((Fraction((1 << (n - 1)) - 1, 1 << (n - 1 + e)), Angle(Fraction(a, d))))
        e += 3 + n
    terms.append((Fraction(1, 1 << e), Angle.of(Fraction(num, den))))
    return terms


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
    j = p.spare_count(x.head(depth))
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
    return circle_specs_report(p, max_k, max_depth, min_radius)[0]


def _circle_steps(p: EmbeddingPair, max_k: int) -> tuple[list, set[int]]:
    """The walk's steps by spare-edge budget, and the vertices with an
    all-image tail.  Vertices are their indices in G's vertex order.

    steps[r][v] holds, per out-edge of v in out-edge order, (target,
    superscript or None for a spare edge, fewest further edges before a
    circle).  A circle ends at a spare edge into a vertex with an
    all-image tail, so that edge itself has 0 further edges; otherwise the
    count is over paths that take at most r spare edges from v, this edge
    included (inf where there is none).  Index r runs from 1 to top =
    min(max_k, |V| + 1) (index 0 is unused): a fewest-edges path visits no
    vertex twice before its last edge, so it takes at most |V| spare
    edges, and a budget above top reads the table at top.
    """
    g = p.g
    index = g.vertex_index
    tailed = {i for v, i in index.items() if p.completion[v].xi_tail is not None}
    top = min(max_k, len(g.vertices) + 1)
    ends = [(index[g.source(e)], index[g.target(e)], p.superscript(e)) for e in g.edges]
    # dist[v, r]: fewest edges in a path from v that ends in a circle and
    # takes at most r spare edges; one breadth-first pass back from the
    # circle edges, a spare edge moving to the next budget
    into: list[list[tuple[int, int | None]]] = [[] for _ in index]
    dist: dict[tuple[int, int], int] = {}
    for v, w, eps in ends:
        into[w].append((v, eps))
        if eps is None and w in tailed:
            for r in range(1, top + 1):
                dist[v, r] = 1
    frontier = list(dist)
    for w, r in frontier:  # grows while it is read: breadth-first order
        for v, eps in into[w]:
            key = (v, r if eps is not None else r + 1)
            if key[1] <= top and key not in dist:
                dist[key] = dist[w, r] + 1
                frontier.append(key)
    steps: list = [None]
    for r in range(1, top + 1):
        rows: list[list[tuple]] = [[] for _ in index]
        for v, w, eps in ends:
            if eps is not None:
                further = dist.get((w, r), math.inf)
            else:
                further = 0 if w in tailed else dist.get((w, r - 1), math.inf)
            rows[v].append((w, eps, further))
        steps.append(rows)
    return steps, tailed


CIRCLE_BUDGET = 250_000
"""Most circles, kept or pruned, that one circle enumeration may count,
each as often as paths give it.  twovertex has 233,785 at max_k 3, depth
8, from 2,048 distinct circles (`render` takes about 0.06 s and 71 MiB
peak RSS in-process on a 2-vCPU VM, most of it the SVG text, whose
strings the cyclic collector does not track), and 945,977 at depth 9."""

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
    spare edges so far), which drops paths that can give no further circle
    within max_depth and max_k (as the walk does) and returns early, with a
    partial count, at the first length where the count exceeds `stop`.
    """
    return _walk_count(*_circle_steps(p, max_k), max_k, max_depth, stop)


def _walk_count(by_budget: list, tailed: set[int], max_k: int, max_depth: int, stop: int | float) -> int:
    """circle_count on the tables _circle_steps(p, max_k) returns."""
    top = len(by_budget) - 1
    # live[(v, j)]: paths ending at vertex index v with j < max_k spare edges
    live = {(v, 0): 1 for v in range(len(by_budget[top]))} if max_k > 0 else {}
    total = 1
    for length in range(1, max_depth + 1):
        if not live or total > stop:
            break
        room = max_depth - length
        nxt: dict[tuple[int, int], int] = {}
        for (v, j), c in live.items():
            for w, eps, further in by_budget[min(max_k - j, top)][v]:
                if further > room:
                    continue
                if eps is not None:
                    key = (w, j)
                else:
                    if w in tailed:
                        total += c
                    if j + 1 == max_k:
                        continue
                    key = (w, j + 1)
                nxt[key] = nxt.get(key, 0) + c
        live = nxt
    return total


def _level_rows(steps: list, starts: Iterable[int], limit: int) -> list[tuple[int, int, int, int, int]]:
    """The levels (image edges, then a spare edge) from the vertex indices
    `starts` that can give a circle within `limit` edges, under the budget
    of one _circle_steps table, built edge by edge: one row (edges needed,
    gap, digit-sum numerator, end vertex, path count) per (gap, numerator,
    end vertex), sorted by edges needed."""
    rows: dict[tuple[int, int, int, int], int] = {}
    live = {(v, 0): 1 for v in starts}  # (vertex, digit bits) -> paths of image edges
    n = 0
    while live and n < limit:
        n += 1
        nxt: dict[tuple[int, int], int] = {}
        for (u, num), c in live.items():
            for w, eps, further in steps[u]:
                if n + further > limit:
                    continue
                if eps is None:
                    key = (n + further, n, num, w)
                    rows[key] = rows.get(key, 0) + c
                else:
                    key = (w, 2 * num + eps)
                    nxt[key] = nxt.get(key, 0) + c
        live = nxt
    return sorted((*key, c) for key, c in rows.items())


@_without_cyclic_gc
def circle_specs_report(
    p: EmbeddingPair,
    max_k: int,
    max_depth: int,
    min_radius: Fraction | float = 0,
) -> tuple[list[CircleSpec], Fraction]:
    """circle_specs plus the total radius of pruned circles.

    Raises EmbeddingError, before walking, if the walk would count more
    than CIRCLE_BUDGET circles (circle_count, pruned circles included, on
    the steps table the walk then reads).

    The walk takes one level per step, stratum by stratum, over states
    (end vertex, chain id) with the number of paths into each.  A level's
    digit sum is a numerator N over 2^(gap - 1) and a radius is its
    exponent e (radius 2^-e), so a chain of k levels has used e - 3k
    edges.  Each stratum builds one _level_rows table per vertex, as deep
    as its deepest chain can go, and each chain reads it while rows fit.
    A chain is an id interned on (parent id, gap, N): each distinct circle
    is built once, from angles, coefficients and radii keyed by (gap, N),
    (gap, parent e) and e, and only if kept; pruned chains are keyed on
    (stratum, e).  Equal gap chains have equal angle denominators, so the
    circles sort like their angle chains by two integers: the gaps packed
    at max_depth.bit_length() + 1 bits each (every gap is at least 1, so
    more levels sort later), then the numerators at their gaps' widths.
    `render` walks twice: the benchmark's smoke test pins two walks.
    Runs with the cyclic collector paused (_without_cyclic_gc): the chains,
    value tables and specs it builds are long-lived and acyclic.
    """
    min_r = Fraction(min_radius).limit_denominator(10**12) if isinstance(min_radius, float) else Fraction(min_radius)
    if all(tail.xi_tail is None for tail in p.completion.values()):
        raise EmbeddingError("no all-image tails exist (the small graph has no cycle)")
    by_budget, tailed = _circle_steps(p, max_k)
    count = _walk_count(by_budget, tailed, max_k, max_depth, CIRCLE_BUDGET)
    if count > CIRCLE_BUDGET:
        raise EmbeddingError(
            f"the circle walk would visit at least {count:,} circles, more than "
            f"the budget of {CIRCLE_BUDGET:,}: lower the depth or max_k"
        )
    # radius 2^-e is kept iff 2^-e >= min_r, i.e. iff e <= e_max
    e_max = math.inf if min_r <= 0 else (min_r.denominator // min_r.numerator).bit_length() - 1
    angles: dict[tuple[int, int], Angle] = {}
    coeffs: dict[tuple[int, int], Fraction] = {}
    top = len(by_budget) - 1
    width = max_depth.bit_length() + 1
    # chains[id]: (e, levels, center terms, packed gaps, packed numerators),
    # all but e None for the chain of a pruned circle
    chains: list[tuple] = [(0, (), (), 0, 0)]
    chain_ids: dict[tuple[int, int, int], int] = {}
    # found: chain id of each kept circle -> paths that give it; pruned:
    # exponent -> pruned circles; stratum zero is the unit circle itself
    found = {0: 1} if e_max >= 0 else {}
    pruned = {} if e_max >= 0 else {0: 1}
    # live and nxt map a state to the number of paths into it; the unit
    # circle's chain starts at every vertex, as one state at vertex None
    everywhere = range(len(p.g.vertices))
    live = {(None, 0): 1} if max_k > 0 else {}
    k = 0  # the stratum of every live chain
    while live:
        steps = by_budget[min(max_k - k, top)]
        rooms: dict[int | None, int] = {}  # vertex -> deepest room there
        for v, chain in live:
            rooms[v] = max(rooms.get(v, 0), max_depth - chains[chain][0] + 3 * k)
        tables = {v: _level_rows(steps, everywhere if v is None else (v,), room) for v, room in rooms.items()}
        nxt: dict[tuple[int, int], int] = {}
        for (v, chain), c in live.items():
            e0, levels, terms, gaps, nums = chains[chain]
            room = max_depth - e0 + 3 * k
            for need, n, num, w, paths in tables[v]:
                if need > room:
                    break
                e = e0 + 3 + n
                kept = e <= e_max
                chain_key = (chain, n, num) if kept else (-1, k + 1, e)
                new = chain_ids.get(chain_key)
                if new is None:
                    new = chain_ids[chain_key] = len(chains)
                    if kept:
                        # N / 2^gap in lowest terms, so that equal angles are one object
                        gap = n - 1
                        shift = (num & -num).bit_length() - 1 if num else gap
                        akey = (gap - shift, num >> shift)
                        angle = angles.get(akey)
                        if angle is None:
                            angle = angles[akey] = Angle(Fraction(akey[1], 1 << akey[0]))
                        grown = terms
                        if n > 1:
                            coeff = coeffs.get((gap, e0))
                            if coeff is None:
                                coeff = coeffs[gap, e0] = Fraction((1 << gap) - 1, 1 << (gap + e0))
                            grown = terms + ((coeff, angle),)
                        chains.append((e, levels + ((n, angle),), grown, gaps << width | n, nums << n | num))
                    else:
                        chains.append((e, None, None, None, None))
                c_new = c * paths
                if w in tailed:
                    if kept:
                        found[new] = found.get(new, 0) + c_new
                    else:
                        pruned[e] = pruned.get(e, 0) + c_new
                if k + 1 < max_k:
                    nxt[w, new] = nxt.get((w, new), 0) + c_new
        live = nxt
        k += 1

    radii = {e: Fraction(1, 1 << e) for e in {chains[i][0] for i in found}}
    specs = []
    for i in sorted(found, key=lambda i: chains[i][3:]):
        e, levels, terms, _, _ = chains[i]
        specs.append(CircleSpec(levels, terms, radii[e], found[i]))
    total = sum((Fraction(c, 1 << e) for e, c in pruned.items()), Fraction(0))
    return specs, total


# -- fiber classification --------------------------------------------------------


@dataclass(frozen=True)
class FiberClass:
    kind: str  # "circles" | "points" | "totally_disconnected"
    count: int | None = None

    def render(self) -> str:
        if self.kind == "circles":
            return f"Circles({format_exact(self.count)})"
        if self.kind == "points":
            return f"Points({format_exact(self.count)})"
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


@_without_cyclic_gc
def render_svg(
    p: EmbeddingPair,
    max_k: int,
    max_depth: int,
    min_radius: Fraction | float,
    scale: float,
) -> str:
    """Deterministic SVG of the circle specifications (byte-reproducible).

    Each spec's line is formatted once and written spec.paths times, in
    circle_specs order.  Specs share the walk's values, so each distinct
    coefficient, angle and radius becomes a float once, each term its
    product once, and each center term tuple its center once: the sum of
    its products from 0j in term order, as in CircleSpec.center_value.
    Runs with the cyclic collector paused (_without_cyclic_gc), the walk
    inside it too: the specs, value tables and lines are acyclic.
    """
    specs = circle_specs(p, max_k, max_depth, min_radius)
    origin = 1.1 * scale
    size = f"{2 * origin:.9f}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
    ]
    # keyed by id: specs holds every key alive until the loop ends
    values: dict[int, complex] = {}  # coefficient -> float, angle -> unit point
    products: dict[int, complex] = {}  # term -> coefficient times unit
    centers: dict[int, str] = {}  # center term tuple -> cx and cy attributes
    radii: dict[int, str] = {}  # radius -> r attribute
    for _, terms, radius, paths in specs:
        center = centers.get(id(terms))
        if center is None:
            for term in terms:
                if id(term) not in products:
                    coeff, a = term
                    if id(coeff) not in values:
                        values[id(coeff)] = float(coeff)
                    if id(a) not in values:
                        values[id(a)] = _angle_complex(a)
                    products[id(term)] = values[id(coeff)] * values[id(a)]
            c = sum((products[id(term)] for term in terms), 0j)
            center = centers[id(terms)] = f'cx="{origin + scale * c.real:.9f}" cy="{origin - scale * c.imag:.9f}"'
        r = radii.get(id(radius))
        if r is None:
            r = radii[id(radius)] = f"{scale * float(radius):.9f}"
        lines += [f'  <circle {center} r="{r}" fill="none" stroke="black" stroke-width="0.5"/>'] * paths
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


def _classes(
    p: EmbeddingPair, depth: int, tail_length: int
) -> Iterator[tuple[LassoRay, tuple]]:
    """Each identification class of the lassos with prefix length <= depth,
    cycle length <= tail_length and finite spare count, once, when the
    walk of embedding_injectivity_check first meets it: its canonical rep
    and its discrete invariant.

    The invariant is (quotient image as a (prefix, cycle) pair in normal
    form, chain of (gap, digit-sum numerator) levels, tail angle as a
    coprime (numerator, denominator) pair in [0, 1)): a complete invariant
    of the class for finite strata.  A level's digit sum has denominator
    2^(gap - 1), so levels of equal gap compare by numerator alone.

    The walk meets each class first at its rep, so it yields a spelling
    with a flip when it is the rep and skips it otherwise, without building
    the flip.  Let x = (P, c) in normal form and its flip first differ at
    position n: x carries e there and the flip partner(e), which has the
    same source under H0.  If n <= len(P), P's last edge is swapped too,
    so it cannot be absorbed into the swapped cycle; if n = len(P) + 1,
    P's last edge is spare, or P is empty.  Either way the flip keeps x's
    prefix length, so the two sit at prefixes, or at cycles of one prefix,
    that the walk orders by the edge index at n: the comparison canonical
    makes.  n comes from the superscript streak the walk carries.
    """
    g = p.g
    digit = p.superscript
    # a cycle carrying a spare edge gives kappa = infinity whatever the
    # prefix; each kept cycle with its lap (its digits as an integer:
    # epsilon's error when H1 fails), 2^len - 1 (its tail's period) and
    # its one superscript (None when it has both: then there is no flip)
    cycles = []
    for L in range(1, tail_length + 1):
        period = (1 << L) - 1
        for v in g.vertices:
            for w in paths_of_length(g, L, src=v, dst=v):
                if all(p.in_image(e) for e in w) and normal_form((), w).cycle == w:
                    lap = 0
                    for e in w:
                        lap = lap << 1 | digit(e)
                    cycles.append((w, lap, period, 0 if lap == 0 else 1 if lap == period else None))
    if not cycles:
        return
    tau = p.quotient.tau
    index = g.edge_index
    cycles_at: dict[str, list[tuple]] = {v: [] for v in g.vertices}
    for cyc in cycles:
        cycles_at[g.source(cyc[0][0])].append(cyc)
    # the image's normal form by (prefix image, cycle): prefixes that differ
    # by partner edges share their image
    images: dict[tuple, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    # (prefix, its quotient image, completed levels, open gap, open digits)
    stack: list[tuple] = [((), (), (), 0, 0)]
    while stack:
        prefix, image, chain, gap, digits = stack.pop()
        if prefix:
            last = prefix[-1]
            at = g.target(last)
            here = cycles_at[at]
            onward = g.out_edges(at)
        else:
            last, here, onward = None, cycles, g.edges
        for cyc, lap, period, i in here:
            if cyc[-1] == last:
                continue
            if i is not None:
                # the streak of i ending the ray: the open level's trailing
                # bits equal to i (the whole level when each bit is i)
                if i:
                    streak = ((digits ^ (digits + 1)) >> 1).bit_length()
                else:
                    streak = (digits & -digits).bit_length() - 1 if digits else gap
                # where the flip first differs: the pivot for an image pivot
                # (streak < gap), the edge after it for a spare pivot, 1 for
                # the total swap (the streak is the whole prefix)
                n = len(prefix) - streak + (streak == gap)
                e = prefix[n - 1] if n <= len(prefix) else cyc[0]
                if index[e] > index[p.partner(e)]:
                    continue  # counted at the flip, the rep, met earlier
            den = period << gap
            num = (digits * period + lap) % den
            common = math.gcd(num, den)
            img = images.get((image, cyc))
            if img is None:
                nf = normal_form(image, tuple(tau[e] for e in cyc))
                img = images[image, cyc] = (nf.prefix, nf.cycle)
            yield LassoRay(prefix, cyc), (img, chain, (num // common, den // common))
        if len(prefix) < depth:
            for e in reversed(onward):
                d = digit(e)
                if d is None:
                    stack.append((prefix + (e,), image + (tau[e],), chain + ((gap + 1, digits),), 0, 0))
                else:
                    stack.append((prefix + (e,), image + (tau[e],), chain, gap + 1, digits << 1 | d))


@_without_cyclic_gc
def embedding_injectivity_check(
    p: EmbeddingPair,
    depth: int,
    tail_length: int = 1,
) -> InjectivityReport:
    """Exhaustively verify that distinct identification classes of bounded
    lassos have distinct discrete invariants (see _classes).

    Enumerates all lassos with prefix length <= depth and cycle length
    <= tail_length whose spare count is finite, depth-first over composable
    prefixes, each before its extensions (the empty prefix takes every
    cycle and extends by every edge; at one prefix the cycles come by
    length, then start vertex, then the order of paths_of_length), and
    counts each class when its first member is met; a collision pairs the
    first class with that invariant and the later one.  Spellings not in
    normal form are skipped, and that is exact: each spells a lasso met
    earlier in the same order.  A cycle r^k (k > 1) at a prefix is met
    first as r at that prefix, since r is shorter; a prefix P + (e,) with
    a cycle c ending in e is met first at P with the cycle (e,) + c[:-1],
    of the same length at the same vertex.  So the classes and their
    first-met order are those of the walk over every spelling.

    Each stack entry carries its prefix's quotient image, completed levels
    and open level (gap and digit bits), each grown by one edge, so a new
    class costs one partner lookup, at the position where the carry rule
    pivots (read off the streak of the cycle's superscript that ends the
    open level), and O(len(cycle)) integer work for its invariant: the
    tail is the open digits, then the cycle's repeating lap, reduced mod 1
    to a coprime pair, and the image is one normal form per distinct
    prefix image and cycle.  The walk meets the rep before its flip (see
    _classes), so the flip's spelling is skipped when the walk meets it,
    by the same comparison, and no flip is built.  More than
    INJECTIVITY_CLASS_CAP classes raise RayError.  Runs with the cyclic
    collector paused (_without_cyclic_gc): the stack entries, reps and
    invariants it keeps are acyclic tuples, ints and strings.
    """
    classes = 0
    invariants: dict[object, LassoRay] = {}
    collisions: list[tuple[str, str]] = []
    for rep, invariant in _classes(p, depth, tail_length):
        if classes >= INJECTIVITY_CLASS_CAP:
            raise RayError(
                f"class cap exceeded: more than {INJECTIVITY_CLASS_CAP} identification classes at depth {depth}"
            )
        classes += 1
        other = invariants.setdefault(invariant, rep)
        if other is not rep:
            collisions.append((format_ray(other), format_ray(rep)))
    return InjectivityReport(classes, tuple(collisions))
