"""One plain definition per quantity, for the differential tests.

Each function here computes a quantity of the package the plainest way
known: edges read one position at a time, level values as Fraction chains,
every level of a ray walked by shifting it, every tower level read,
every candidate lasso built and checked.  None of it is fast.  The tests
compare the package against these definitions on the bundles, on drawn
seeds and on forced cases.  A faster implementation of a quantity is
tested against its definition here; a definition is added only for a new
quantity.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import chain, cycle
from math import gcd

from shiftquot.embedding import epsilon
from shiftquot.geometry import CircleSpec
from shiftquot.graphs import GraphError, IntMatrix, adjacency_matrix, paths_of_length
from shiftquot.metrics import MetricInterval, tau_ray
from shiftquot.rays import (
    Angle,
    ClassPoint,
    LassoRay,
    RayError,
    format_ray,
    kappa,
    normal_form,
    shift_by,
    stratum_approximant,
)
from shiftquot.smale import PairWitness, SmaleError, Tower

# -- graphs and matrices ---------------------------------------------------------


def ref_entry_sum(m):
    """The sum of every entry: for a power A^n of an adjacency matrix, the
    number of paths of length n."""
    return sum(sum(row) for row in m.entries)


def ref_power(a, k):
    """A^k as k products from the identity."""
    out = IntMatrix.identity(a.rows)
    for _ in range(k):
        out = out @ a
    return out


def ref_zero(rows, cols):
    """The rows x cols matrix of zeros."""
    return IntMatrix(rows, cols, ((0,) * cols,) * rows)


def ref_transpose(m):
    """The transpose one entry at a time."""
    entries = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
    return IntMatrix(m.cols, m.rows, entries)


def ref_is_primitive(g):
    """Boolean powers of the adjacency matrix up to the Wielandt bound."""
    n = len(g.vertices)
    full_row = (1 << n) - 1
    a = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in adjacency_matrix(g).entries]
    cur = a
    for k in range(1, (n - 1) ** 2 + 2):
        if all(row == full_row for row in cur):
            return True, k
        nxt = []
        for row in cur:
            acc = 0
            for j in range(n):
                if row >> j & 1:
                    acc |= a[j]
            nxt.append(acc)
        cur = nxt
    return False, None


def ref_tracked_elimination(a):
    """(U, D, V) with U A V = D: every row operation applied to the matrix
    and to U, every column operation to the matrix and to V."""
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in m:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(rows):
                if i != t and m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(i, t, -q)
                    if m[i][t] != 0:
                        pivot = (i, t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(cols):
                if j != t and m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(j, t, -q)
                    if m[t][j] != 0:
                        pivot = (t, j)
                        dirty = True
                        break
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % m[t][t] != 0:
                        offender = (i, j)
                        break
                if offender:
                    break
            if offender is None:
                break
            add_row(t, offender[0], 1)
            pivot = (t, t)
        if m[t][t] < 0:
            negate_row(t)

    return IntMatrix.from_rows(u), IntMatrix.from_rows(m), IntMatrix.from_rows(v)


def _chain(orders):
    """Cyclic orders rearranged so that each divides the next."""
    f = list(orders)
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            g = gcd(f[i], f[j])
            f[i], f[j] = g, f[i] // g * f[j]
    return f


def _rank_and_minor(a):
    """Rank and a maximal nonzero minor, by fraction-free elimination."""
    m = [list(row) for row in a.entries]
    sign, prev = 1, 1
    for k in range(min(a.rows, a.cols)):
        pivot = next(((i, j) for j in range(k, a.cols) for i in range(k, a.rows) if m[i][j]), None)
        if pivot is None:
            return k, sign * prev
        i, j = pivot
        m[k], m[i] = m[i], m[k]
        for row in m:
            row[k], row[j] = row[j], row[k]
        sign *= (-1) ** ((i != k) + (j != k))
        top, p = m[k], m[k][k]
        for i in range(k + 1, a.rows):
            row, x = m[i], m[i][k]
            row[k + 1:] = [(v * p - x * w) // prev for v, w in zip(row[k + 1:], top[k + 1:])]
        prev = p
    return min(a.rows, a.cols), sign * prev


def _clear_column(m, t, delta):
    for i in range(t + 1, len(m)):
        p, b = m[t][t], m[i][t]
        if b == 0:
            continue
        top, row = m[t][t:], m[i][t:]
        if b % p == 0:
            q = b // p
            m[i][t:] = [(v - q * w) % delta for v, w in zip(row, top)]
            continue
        (x, y), (r0, r1), (s0, s1) = (p, b), (1, 0), (0, 1)
        while y:
            q = x // y
            x, y, r0, r1, s0, s1 = y, x - q * y, r1, r0 - q * r1, s1, s0 - q * s1
        m[t][t:] = [(r0 * w + s0 * v) % delta for v, w in zip(row, top)]
        m[i][t:] = [(p // x * v - b // x * w) % delta for v, w in zip(row, top)]


def ref_smith_diagonal(a):
    """The Smith diagonal by elimination of the whole matrix modulo a
    maximal nonzero minor."""
    rank, delta = _rank_and_minor(a)
    delta, n = abs(delta), min(a.rows, a.cols)
    if delta == 1:
        return (1,) * rank + (0,) * (n - rank)
    m = [[x % delta for x in row] for row in a.entries]
    orders = [delta] * (a.rows - n)
    for t in range(n):
        live = [(x, i, j) for i in range(t, len(m)) for j, x in enumerate(m[i][t:], t) if x]
        if not live:
            orders += [delta] * (n - t)
            break
        _, i, j = min(live)
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        _clear_column(m, t, delta)
        while any(x % m[t][t] for x in m[t][t + 1:]):
            m = [list(col) for col in zip(*m)]
            _clear_column(m, t, delta)
        m[t][t + 1:] = [0] * (len(m[t]) - t - 1)
        orders.append(gcd(m[t][t], delta))
    return tuple(_chain(orders)[:rank]) + (0,) * (n - rank)


def ref_pair_cells(p, length):
    """The cells C_0 .. C_length of the pair complex over words of the
    given length: C_0 holds each G-word paired with itself, and C_k (k >= 1)
    each G-word x of length - k followed by the two images of an H-path y
    of length k, in both orders (x empty when k = length, else ending where
    the images start)."""
    g, h = p.g, p.h
    cells = [frozenset((w, w) for w in paths_of_length(g, length))]
    for k in range(1, length + 1):
        cell = set()
        for y in paths_of_length(h, k):
            y0 = tuple(p.xi0_edges[e] for e in y)
            y1 = tuple(p.xi1_edges[e] for e in y)
            start = p.xi0_vertices[h.source(y[0])]
            for x in paths_of_length(g, length - k, dst=start) if k < length else [()]:
                cell |= {(x + y0, x + y1), (x + y1, x + y0)}
        cells.append(frozenset(cell))
    return tuple(cells)


# -- embedding -------------------------------------------------------------------


def ref_h_tail_witness(h):
    """For each H-vertex with a cycle ahead, (lead, cycle): a self-loop
    found by a scan of its out-edges, else a breadth-first search from its
    neighbours back to it, then the shortest leads into those vertices."""
    on_cycle = {}
    for v in h.vertices:
        parent = {}
        q = deque()
        for e in h.out_edges(v):
            w = h.target(e)
            if w == v:
                on_cycle[v] = (e,)
                break
            if w not in parent:
                parent[w] = (v, e)
                q.append(w)
        if v in on_cycle:
            continue
        found = None
        while q and found is None:
            u = q.popleft()
            for e in h.out_edges(u):
                w = h.target(e)
                if w == v:
                    path = [e]
                    node = u
                    while node != v:
                        prev, edge = parent[node]
                        path.append(edge)
                        node = prev
                    found = tuple(reversed(path))
                    break
                if w not in parent:
                    parent[w] = (u, e)
                    q.append(w)
        if found:
            on_cycle[v] = found
    result = {}
    for v, cyc in on_cycle.items():
        result[v] = ((), cyc)
    frontier = deque(on_cycle)
    while frontier:
        w = frontier.popleft()
        for e in h.in_edges(w):
            u = h.source(e)
            if u not in result:
                lead, cyc = result[w]
                result[u] = ((e,) + lead, cyc)
                frontier.append(u)
    return result


def ref_spare_twin(p, e):
    """The first spare G-edge parallel to e, by a scan over every G-edge."""
    g = p.g
    return next(
        (s for s in g.edges if not p.in_image(s) and g.source(s) == g.source(e) and g.target(s) == g.target(e)),
        None,
    )


def ref_h2_witness(p):
    """The first H-edge whose xi0 image has no spare parallel edge."""
    for y in p.h.edges:
        e0 = p.xi0_edges[y]
        if ref_spare_twin(p, e0) is None:
            return y
    return None


# -- rays ------------------------------------------------------------------------


def ref_make(g, prefix, cycle):
    """LassoRay.make with one has_edge, source and target call per edge."""
    pre = tuple(prefix)
    cyc = tuple(cycle)
    if not cyc:
        raise RayError("cycle must be nonempty")
    try:
        for e in pre + cyc:
            if not g.has_edge(e):
                raise GraphError(f"unknown edge {e!r}")
        whole = pre + cyc
        for a, b in zip(whole, whole[1:]):
            if g.target(a) != g.source(b):
                raise GraphError(f"edges {a!r},{b!r} are not composable")
        if g.target(cyc[-1]) != g.source(cyc[0]):
            raise GraphError("cycle does not close up")
    except GraphError as exc:
        raise RayError(str(exc)) from None
    return normal_form(pre, cyc)


def ref_head(x, n):
    return tuple(x.edge_at(i) for i in range(1, n + 1))


def ref_first_difference(x, y):
    if x == y:
        return None
    bound = max(len(x.prefix), len(y.prefix)) + math.lcm(len(x.cycle), len(y.cycle)) + 1
    for n in range(1, bound + 1):
        if x.edge_at(n) != y.edge_at(n):
            return n
    return None


def ref_digit_series(p, x):
    """sum epsilon(x_i) 2^-i as one Fraction per prefix position and one
    for the cycle."""
    if kappa(p, x) != 0:
        raise RayError("digit series needs kappa = 0")
    total = Fraction(0)
    for i, e in enumerate(x.prefix, start=1):
        total += Fraction(epsilon(p, e), 2**i)
    m = len(x.prefix)
    L = len(x.cycle)
    cyc_int = 0
    for e in x.cycle:
        cyc_int = (cyc_int << 1) | epsilon(p, e)
    total += Fraction(cyc_int, 2**m * (2**L - 1))
    return total


def ref_level(p, x):
    """(position of the first spare edge, digit sum before it), or
    (inf, digit series) when there is none."""
    digits = 0
    for n, e in enumerate(chain(x.prefix, x.cycle), start=1):
        if not p.in_image(e):
            return n, Fraction(digits, 2 ** (n - 1))
        digits = digits << 1 | epsilon(p, e)
    return math.inf, ref_digit_series(p, x)


def ref_level_chain(p, x):
    """The finite levels as (gap, angle), the ray shifted past each spare
    edge, and the angle of the tail."""
    chain_ = []
    n, t = ref_level(p, x)
    while n != math.inf:
        chain_.append((n, Angle.of(t)))
        x = shift_by(x, n)
        n, t = ref_level(p, x)
    return tuple(chain_), Angle.of(t)


def ref_raw_levels(p, x):
    """The levels as (gap, digits, denominator), asking in_image and
    epsilon about every edge."""
    edges = x.prefix
    if any(not p.in_image(e) for e in x.cycle):
        edges = chain(x.prefix, cycle(x.cycle))
    gap = digits = 0
    for e in edges:
        gap += 1
        if not p.in_image(e):
            yield gap, digits, 1 << (gap - 1)
            gap = digits = 0
        else:
            digits = digits << 1 | epsilon(p, e)
    lap = 0
    for e in x.cycle:
        lap = lap << 1 | epsilon(p, e)
    period = 2 ** len(x.cycle) - 1
    yield math.inf, digits * period + lap, period << gap


def ref_flip(p, x):
    """The carry partner of x: the longest run of tail-digit image edges
    before the cycle, the pivot before it, every edge from there swapped."""
    if any(not p.in_image(e) for e in x.cycle):
        return None
    digits_cycle = {epsilon(p, e) for e in x.cycle}
    if len(digits_cycle) != 1:
        return None
    i = digits_cycle.pop()
    m = len(x.prefix) + 1
    while m >= 2:
        e = x.prefix[m - 2]
        if p.in_image(e) and epsilon(p, e) == i:
            m -= 1
        else:
            break
    swap = p.partner
    if m == 1:
        return LassoRay(tuple(swap(e) for e in x.prefix), tuple(swap(e) for e in x.cycle))
    pivot = x.prefix[m - 2]
    new_prefix = list(x.prefix)
    for j in range(m - 1, len(x.prefix)):
        new_prefix[j] = swap(x.prefix[j])
    if p.in_image(pivot):
        new_prefix[m - 2] = swap(pivot)
    return normal_form(new_prefix, tuple(swap(e) for e in x.cycle))


def ref_canonical(p, x):
    """The class of x: of x and its flip, the rep has the smaller edge at
    their first difference."""
    other = ref_flip(p, x)
    n = None if other is None else ref_first_difference(x, other)
    if n is None or p.g.edge_index[x.edge_at(n)] < p.g.edge_index[other.edge_at(n)]:
        return ClassPoint(x, other)
    return ClassPoint(other, x)


def prepended(lead, x):
    """The ray x with the edges `lead` put in front."""
    return normal_form(tuple(lead) + x.prefix, x.cycle)


def ref_total_swap(p, x):
    """Whether x has a flip and every edge of x has one superscript."""
    kinds = {epsilon(p, e) if p.in_image(e) else None for e in x.prefix + x.cycle}
    return ref_flip(p, x) is not None and len(kinds) == 1


def ref_grow_classes(p, x, lead):
    """The class of x and of each longer ray lead[j:] + x, j from the end."""
    return [ref_canonical(p, prepended(lead[j:], x)) for j in range(len(lead), -1, -1)]


def ref_lift_preimage(p, x, y):
    """Of e.x and e.flip(x), e the first edge of y or its partner, the
    first lasso whose level is y's, else the nearest angle: each candidate
    built and validated."""
    g = p.g
    y1 = y.edge_at(1)
    if g.target(y1) != g.source(x.edge_at(1)):
        raise RayError("first edge of x is not composable after the first edge of y")
    reps = [x]
    other = ref_flip(p, x)
    if other is not None and other != x:
        reps.append(other)
    firsts = [y1, p.partner(y1)] if p.in_image(y1) else [y1]
    target_n, target_t = ref_level(p, y)
    target = Angle.of(target_t)
    best = None
    for rank, (e, rep) in enumerate((e, rep) for e in firsts for rep in reps):
        z = ref_make(g, (e,) + rep.prefix, rep.cycle)
        n, t = ref_level(p, z)
        angle = Angle.of(t)
        score = (0 if (n, angle) == (target_n, target) else 1, angle.distance(target), rank)
        if best is None or score < best[0]:
            best = (score, z)
    return best[1]


def ref_lift_classes(p, point, targets):
    """The class point, then the class of each lift toward the next target."""
    out = [point]
    for y in targets:
        out.append(ref_canonical(p, ref_lift_preimage(p, out[-1].rep, y)))
    return out


# -- metrics ---------------------------------------------------------------------


def ref_d_shift(x, y):
    """2^(1 - n) at the first difference n of the rays, 0 for equal rays."""
    n = ref_first_difference(x, y)
    return Fraction(0) if n is None else Fraction(1, 2 ** (n - 1))


def ref_d_quotient_graph(p, x, y):
    """The shift metric between the two quotient rays."""
    return ref_d_shift(tau_ray(p, x), tau_ray(p, y))


def layer_stop(cx, cy):
    """Where the layer comparison of two level chains (ref_level_chain)
    stops: the two levels (n, angle) there, n = inf at a tail, and the sum
    of 2 + n over the equal levels before."""
    exponent = 0
    for (nx, ax), (ny, ay) in zip(cx[0] + ((math.inf, cx[1]),), cy[0] + ((math.inf, cy[1]),)):
        if nx != ny or ax != ay or nx == math.inf:
            return (nx, ax), (ny, ay), exponent
        exponent += 2 + nx


def layer_term(stop):
    """The layer term from where its comparison stops (layer_stop)."""
    (nx, ax), (ny, ay), exponent = stop
    wx = Fraction(0) if nx == math.inf else Fraction(1, 2**nx)
    wy = Fraction(0) if ny == math.inf else Fraction(1, 2**ny)
    return (abs(wx - wy) + ax.distance(ay)) / 2**exponent


def ref_lambda_hat(p, x, y):
    return layer_term(layer_stop(ref_level_chain(p, x), ref_level_chain(p, y)))


def ref_d_finite(p, x, y):
    return ref_d_quotient_graph(p, x, y) + ref_lambda_hat(p, x, y)


def ref_d_extended(p, x, y, depth=12):
    """The exact distance when both spare counts are finite, else the
    distance of the two stratum approximants with slack 3 * 2^-depth."""
    kx, ky = kappa(p, x), kappa(p, y)
    if kx != math.inf and ky != math.inf:
        return MetricInterval.point(ref_d_finite(p, x, y))
    inner = depth + 1
    jx = sum(1 for e in ref_head(x, inner) if not p.in_image(e))
    jy = sum(1 for e in ref_head(y, inner) if not p.in_image(e))
    K = max(jx, jy)
    xa = x if kx == K else stratum_approximant(p, x, inner, K)
    ya = y if ky == K else stratum_approximant(p, y, inner, K)
    value = ref_d_finite(p, xa, ya)
    slack = Fraction(3, 2**depth)
    return MetricInterval(max(Fraction(0), value - slack), value + slack)


# -- the two-sided layer ---------------------------------------------------------


def ref_edge_at(x, n):
    """The edge of the bi-lasso x at position n."""
    lo = x.origin
    hi = x.origin + len(x.core)  # first future position
    if n < lo:
        return x.past[(n - lo) % len(x.past)]
    if n < hi:
        return x.core[n - lo]
    return x.future[(n - hi) % len(x.future)]


def ref_window(x, a, b):
    return tuple(ref_edge_at(x, n) for n in range(a, b + 1))


def ref_ray_from(x, n):
    first_future = x.origin + len(x.core)
    if n >= first_future:
        k = (n - first_future) % len(x.future)
        return normal_form((), x.future[k:] + x.future[:k])
    return normal_form(ref_window(x, n, first_future - 1), x.future)


def ref_bilasso_equal(x, y):
    lp = math.lcm(len(x.past), len(y.past))
    lf = math.lcm(len(x.future), len(y.future))
    a = min(x.origin, y.origin) - lp
    b = max(x.core_end(), y.core_end()) + lf
    return all(ref_edge_at(x, n) == ref_edge_at(y, n) for n in range(a, b + 1))


def _swapped_at(p, x, y, n):
    a, b = ref_edge_at(x, n), ref_edge_at(y, n)
    if a == b or not p.in_image(a) or not p.in_image(b):
        return None
    if p.partner(a) != b:
        return None
    return epsilon(p, a)


def ref_pair_related(p, x, y):
    if ref_bilasso_equal(x, y):
        return PairWitness("a")
    lp = math.lcm(len(x.past), len(y.past))
    lf = math.lcm(len(x.future), len(y.future))
    lo = min(x.origin, y.origin) - lp - 1
    hi = max(x.core_end(), y.core_end()) + lf
    tail_i = _swapped_at(p, x, y, hi)
    if tail_i is None:
        return None
    for n in range(hi, hi + lf):
        if _swapped_at(p, x, y, n) != tail_i:
            return None
    if all(_swapped_at(p, x, y, n) == tail_i for n in range(lo - lp, hi)):
        return PairWitness("b", i=tail_i)
    m = None
    for n in range(hi - 1, lo - lp - 1, -1):
        if _swapped_at(p, x, y, n) != tail_i:
            m = n
            break
    if m is None:
        return None
    xm, ym = ref_edge_at(x, m), ref_edge_at(y, m)
    pivot_ok = (xm == ym and not p.in_image(xm)) or (
        p.in_image(xm)
        and p.in_image(ym)
        and xm != ym
        and p.partner(xm) == ym
        and epsilon(p, xm) == 1 - tail_i
    )
    if not pivot_ok:
        return None
    for n in range(m - 1, lo - lp - 1, -1):
        if ref_edge_at(x, n) != ref_edge_at(y, n):
            return None
    return PairWitness("c", i=tail_i, m=m)


def ref_pi_xi_tower(p, x, depth):
    """Level n is the class of the ray read from position 1 - n."""
    return Tower(tuple(ref_canonical(p, ref_ray_from(x, 1 - n)) for n in range(depth + 1)))


def ref_tower_distance(p, x, y, depth=None, ray_depth=16):
    """The sup over every level n <= M of 2^-n times the class distance,
    with the 3 * 2^-M tail bound."""
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    m = x.depth if depth is None else min(depth, x.depth)
    lo = Fraction(0)
    hi = Fraction(3, 2**m)
    for n in range(m + 1):
        d = ref_d_extended(p, x.level(n).rep, y.level(n).rep, ray_depth)
        w = Fraction(1, 2**n)
        lo = max(lo, w * d.lo)
        hi = max(hi, w * d.hi)
    return MetricInterval(lo, hi)


def ref_bracket(p, x, y, ray_depth=16):
    """Level 0 of x, then lifts toward y, when the tower distance is at most
    1/2.  A level n with (3 + 3 * 2^-ray_depth) * 2^-n <= 1/2 can neither
    push that distance past 1/2 nor change an upper end past it, so the
    distance is read on the levels before the first such n, each measured."""
    if x.depth != y.depth:
        raise SmaleError("towers must share their depth")
    reach = 3 + 3 * Fraction(2) ** -ray_depth
    hi = Fraction(3, 2**x.depth)
    for n in range(x.depth + 1):
        if reach / 2**n <= Fraction(1, 2):
            break
        hi = max(hi, ref_d_extended(p, x.level(n).rep, y.level(n).rep, ray_depth).hi / 2**n)
    if hi > Fraction(1, 2):
        raise SmaleError(f"bracket undefined: tower distance {hi} > 1/2")
    targets = [y.level(n).rep for n in range(1, x.depth + 1)]
    return Tower(tuple(ref_lift_classes(p, x.level(0), targets)))


# -- geometry --------------------------------------------------------------------


def ref_discrete_invariant(p, x):
    """(quotient image, chain of (gap, angle turns), tail turns): a complete
    invariant of the identification class for finite strata."""
    chain_, tail = ref_level_chain(p, x)
    return (tau_ray(p, x), tuple((n, a.turns) for n, a in chain_), tail.turns)


def ref_circle_spec(levels):
    """The circle of a chain of (gap, angle) levels: level i adds
    (prod_{j<i} 2^(-3-n_j)) * (1 - 2^(1-n_i)) * e^(2 pi i theta_i) to the
    center, and the radius is the full product."""
    terms = []
    scale = Fraction(1)
    for n, a in levels:
        coeff = scale * (1 - Fraction(2) ** (1 - n))
        if coeff:
            terms.append((coeff, a))
        scale *= Fraction(1, 2 ** (3 + n))
    return CircleSpec(tuple(levels), tuple(terms), scale)


def ref_zeta_exact_terms(p, x):
    chain_, tail = ref_level_chain(p, x)
    spec = ref_circle_spec(chain_)
    return [*spec.center_terms, (spec.radius, tail)]


def ref_injectivity(p, depth, tail_length=1, invariant=ref_discrete_invariant, visited=None, met=None):
    """(classes, collisions) by a recursive walk over every (prefix, cycle)
    spelling; every lasso it considers is appended to `visited`, and every
    class rep to `met` when the class is first met, when these are given."""
    g = p.g
    cycles = []
    for L in range(1, tail_length + 1):
        for v in g.vertices:
            cycles.extend(paths_of_length(g, L, src=v, dst=v))
    reps, invariants, collisions = {}, {}, []

    def consider(x):
        if visited is not None:
            visited.append(x)
        if kappa(p, x) == math.inf:
            return
        c = ref_canonical(p, x)
        key = (c.rep.prefix, c.rep.cycle)
        if key in reps:
            return
        reps[key] = c.rep
        if met is not None:
            met.append(c.rep)
        inv = invariant(p, c.rep)
        other = invariants.get(inv)
        if other is not None:
            collisions.append((format_ray(other), format_ray(c.rep)))
        else:
            invariants[inv] = c.rep

    def extend(prefix, at, remaining):
        for cyc in cycles:
            if at is None or g.source(cyc[0]) == at:
                if not prefix or g.target(prefix[-1]) == g.source(cyc[0]):
                    try:
                        consider(LassoRay.make(g, prefix, cyc))
                    except RayError:
                        continue
        if remaining == 0:
            return
        for e in g.edges if at is None else g.out_edges(at):
            if prefix and g.target(prefix[-1]) != g.source(e):
                continue
            prefix.append(e)
            extend(prefix, g.target(e), remaining - 1)
            prefix.pop()

    extend([], None, depth)
    return len(reps), tuple(collisions)


def _spec_sort_key(spec):
    """The order circle_specs documents: stratum, then gap chain, then
    angle chain (a stable sort keeps the walk's prefix order in ties)."""
    return (
        len(spec.levels),
        tuple(n for n, _ in spec.levels),
        tuple(a.turns for _, a in spec.levels),
    )


def ref_circle_paths(p, max_k, max_depth, min_radius=0):
    """(one circle spec per path, sorted; the pruned radius sum): a walk
    over paths that carries every digit sum, angle and radius as an exact
    Fraction."""
    tables = p.completion
    if isinstance(min_radius, float):
        min_r = Fraction(min_radius).limit_denominator(10**12)
    else:
        min_r = Fraction(min_radius)
    has_tail = {v for v in p.g.vertices if tables[v].xi_tail is not None}
    out = []
    pruned = Fraction(0)
    base = ref_circle_spec([])
    if base.radius >= min_r:
        out.append(base)
    else:
        pruned += base.radius

    def walk(at, levels, gap, digits, depth):
        nonlocal pruned
        if depth >= max_depth:
            return
        for e in p.g.out_edges(at):
            if p.in_image(e):
                new_digits = digits + Fraction(epsilon(p, e), 2 ** (gap + 1))
                walk(p.g.target(e), levels, gap + 1, new_digits, depth + 1)
            else:
                levels.append((gap + 1, Angle.of(digits)))
                if len(levels) <= max_k and p.g.target(e) in has_tail:
                    spec = ref_circle_spec(levels)
                    if spec.radius >= min_r:
                        out.append(spec)
                    else:
                        pruned += spec.radius
                if len(levels) < max_k:
                    walk(p.g.target(e), levels, 0, Fraction(0), depth + 1)
                levels.pop()

    for v in p.g.vertices:
        walk(v, [], 0, Fraction(0), 0)
    out.sort(key=_spec_sort_key)
    return out, pruned


def ref_fold_paths(specs):
    """One spec per path folded into one spec per distinct circle: each run
    of adjacent equal circles with the run's length as its path count."""
    out = []
    for spec in specs:
        if out and out[-1][:3] == spec[:3]:
            out[-1] = out[-1]._replace(paths=out[-1].paths + 1)
        else:
            out.append(spec)
    return out


def ref_render_svg(specs, scale):
    """SVG of the specs, each circle's center evaluated and its line
    formatted on its own."""
    margin = 1.1
    size = 2 * margin * scale

    def fmt(v):
        return f"{v:.9f}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(size)}" height="{fmt(size)}" '
        f'viewBox="0 0 {fmt(size)} {fmt(size)}">',
    ]
    for spec in specs:
        c = spec.center_value()
        cx = margin * scale + scale * c.real
        cy = margin * scale - scale * c.imag
        r = scale * float(spec.radius)
        lines.append(
            f'  <circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" '
            'fill="none" stroke="black" stroke-width="0.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
