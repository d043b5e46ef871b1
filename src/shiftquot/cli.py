"""Command-line interface: bundle files, dispatch, report emission.

Bundle format (one declaration per line, '#' comments):

    graph G            # or: graph H
    vertex <id>
    edge <id> <src> <dst>
    map vertex <h-id> <g-id>
    map xi0 <h-edge> <g-edge>
    map xi1 <h-edge> <g-edge>

Exit codes: 0 success, 1 domain failure (hypotheses), 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, geometry, metrics, rays
from .embedding import EmbeddingPair
from .graphs import Graph


# `distance` and `zeta` print exact bounds with 2^-depth terms; far past this
# depth the digits outgrow Python's limit on integer-to-text conversion
# (15,000 fails), and a depth of 10^6 runs for minutes
QUERY_DEPTH_MAX = 4096


class BundleError(ValueError):
    pass


@dataclass(frozen=True)
class SeedBundle:
    g: Graph
    h: Graph
    vertex_map: dict[str, str]
    xi0: dict[str, str]
    xi1: dict[str, str]

    def pair(self) -> EmbeddingPair:
        return EmbeddingPair(
            self.g, self.h, dict(self.vertex_map), dict(self.xi0),
            dict(self.vertex_map), dict(self.xi1),
        )


def parse_bundle(text: str, name: str = "<bundle>") -> SeedBundle:
    """Parse the line-based seed format with line-numbered diagnostics."""
    # per graph: vertex ids (a dict used as an ordered set) and edges by id
    graphs: dict[str, tuple[dict[str, None], dict[str, tuple[str, str, str]]]] = {
        "G": ({}, {}),
        "H": ({}, {}),
    }
    current: str | None = None
    vmap: dict[str, str] = {}
    xi0: dict[str, str] = {}
    xi1: dict[str, str] = {}
    saw_any = False

    def err(line_no: int, message: str) -> BundleError:
        return BundleError(f"{name}:{line_no}: {message}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_any = True
        tokens = line.split()
        kind = tokens[0]
        if kind == "graph":
            if len(tokens) != 2 or tokens[1] not in graphs:
                raise err(line_no, "expected 'graph G' or 'graph H'")
            current = tokens[1]
        elif kind == "vertex":
            if current is None:
                raise err(line_no, "vertex before any 'graph' line")
            if len(tokens) != 2:
                raise err(line_no, "expected 'vertex <id>'")
            vs, _ = graphs[current]
            if tokens[1] in vs:
                raise err(line_no, f"duplicate vertex {tokens[1]!r}")
            vs[tokens[1]] = None
        elif kind == "edge":
            if current is None:
                raise err(line_no, "edge before any 'graph' line")
            if len(tokens) != 4:
                raise err(line_no, "expected 'edge <id> <src> <dst>'")
            vs, es = graphs[current]
            eid, src, dst = tokens[1:]
            if eid in es:
                raise err(line_no, f"duplicate edge {eid!r}")
            if src not in vs:
                raise err(line_no, f"unknown vertex {src!r}")
            if dst not in vs:
                raise err(line_no, f"unknown vertex {dst!r}")
            es[eid] = (eid, src, dst)
        elif kind == "map":
            if len(tokens) != 4:
                raise err(line_no, "expected 'map vertex|xi0|xi1 <from> <to>'")
            what, frm, to = tokens[1:]
            hv, he = graphs["H"]
            gv, ge = graphs["G"]
            if what == "vertex":
                if frm not in hv:
                    raise err(line_no, f"unknown H-vertex {frm!r}")
                if to not in gv:
                    raise err(line_no, f"unknown G-vertex {to!r}")
                vmap[frm] = to
            elif what in ("xi0", "xi1"):
                if frm not in he:
                    raise err(line_no, f"unknown H-edge {frm!r}")
                if to not in ge:
                    raise err(line_no, f"unknown G-edge {to!r}")
                (xi0 if what == "xi0" else xi1)[frm] = to
            else:
                raise err(line_no, f"unknown map kind {what!r}")
        else:
            raise err(line_no, f"unknown declaration {kind!r}")
    if not saw_any:
        raise BundleError(f"{name}: empty bundle")
    gv, ge = graphs["G"]
    hv, he = graphs["H"]
    for w in hv:
        if w not in vmap:
            raise BundleError(f"{name}: H-vertex {w!r} has no 'map vertex' line")
    for y in he:
        for what, emap in (("xi0", xi0), ("xi1", xi1)):
            if y not in emap:
                raise BundleError(f"{name}: H-edge {y!r} has no 'map {what}' line")
    return SeedBundle(Graph(gv, ge.values()), Graph(hv, he.values()), vmap, xi0, xi1)


def load_bundle(path: str) -> SeedBundle:
    with open(path, encoding="utf-8") as fh:
        return parse_bundle(fh.read(), name=path)


def bundle_text(p: EmbeddingPair, name: str = "synthesized") -> str:
    """Serialize a pair (with a shared vertex map) back to bundle format."""
    lines = [f"# {name}", "graph G"]
    lines.extend(f"vertex {v}" for v in p.g.vertices)
    lines.extend(f"edge {e} {p.g.source(e)} {p.g.target(e)}" for e in p.g.edges)
    lines.append("graph H")
    lines.extend(f"vertex {v}" for v in p.h.vertices)
    lines.extend(f"edge {e} {p.h.source(e)} {p.h.target(e)}" for e in p.h.edges)
    lines.extend(f"map vertex {w} {p.xi0_vertices[w]}" for w in p.h.vertices)
    lines.extend(f"map xi0 {y} {p.xi0_edges[y]}" for y in p.h.edges)
    lines.extend(f"map xi1 {y} {p.xi1_edges[y]}" for y in p.h.edges)
    return "\n".join(lines) + "\n"


def parse_group(text: str) -> algebra.FgAbelianGroup:
    """Group literal: '0', 'Z', 'Z^2', 'Z/4', joined with '+'."""
    text = text.strip()
    if text == "0":
        return algebra.FgAbelianGroup(0, ())
    rank = 0
    factors: list[int] = []
    for tok in text.split("+"):
        tok = tok.strip()
        if tok == "Z":
            rank += 1
        elif tok[:2] in ("Z^", "Z/") and tok[2:].isdecimal():
            try:
                n = int(tok[2:])
            except ValueError:  # more digits than int() converts
                raise BundleError(f"group term has too many digits ({len(tok) - 2})") from None
            if tok[1] == "^":
                rank += n
            else:
                factors.append(n)
        else:
            raise BundleError(f"cannot parse group term {tok!r}")
    return algebra.FgAbelianGroup.of(rank, factors)


def _fmt_interval(iv: metrics.MetricInterval) -> str:
    if iv.exact:
        return str(iv.lo)
    return f"[{iv.lo}, {iv.hi}] ~= [{float(iv.lo):.6f}, {float(iv.hi):.6f}]"


# -- subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    bundle = load_bundle(args.bundle)
    rep = bundle.pair().hypotheses
    for label in ("h0", "h1", "h2", "primitive"):
        res = getattr(rep, label)
        line = f"{label} = {'pass' if res.passed else 'fail'}"
        if res.witness:
            line += f"  # witness: {res.witness}"
        print(line)
    print(f"h_cycle = {'yes' if rep.h_has_cycle else 'no (metric/render features vacuous)'}")
    print(f"standing = {rep.standing()}")
    return 0 if rep.standing() else 1


def cmd_invariants(args) -> int:
    bundle = load_bundle(args.bundle)
    p = bundle.pair()
    kt = algebra.ruelle_k_theory(p)
    for warning in kt.warnings:
        print(f"warning = {warning}")
    table = algebra.homology_table(p)  # raises before any header without the standing hypotheses
    print("homology:")
    for row in table:
        grp = row.group.render() if row.group else "0"
        deg = row.degree if row.degree < 2 else "k>=2"
        print(f"H_{row.invariant}[{deg}] = {grp}  aut = {row.automorphism}")
    print("k_theory:")
    print(f"K0(S) = {kt.k0_stable.render()}  aut = {kt.k0_stable.automorphism}")
    print(f"K1(S) = {kt.k1_stable.render()}  aut = {kt.k1_stable.automorphism}")
    print(f"K0(U) = {kt.k0_unstable.render()}  aut = {kt.k0_unstable.automorphism}")
    print(f"K1(U) = {kt.k1_unstable.render()}  aut = {kt.k1_unstable.automorphism}")
    print(f"K0(Rs) = {kt.k0_ruelle_s.render()}")
    print(f"K1(Rs) = {kt.k1_ruelle_s.render()}")
    print(f"K0(Ru) = {kt.k0_ruelle_u.render()}")
    print(f"K1(Ru) = {kt.k1_ruelle_u.render()}")
    return 0


def _parse_ray(g: Graph, text: str) -> rays.LassoRay:
    """A ray literal given on the command line; a malformed one is a parse
    error (exit 2), not a domain failure."""
    if not isinstance(text, str):
        # argparse passes a list when a second '--' stands where the ray goes
        raise BundleError("ray literal missing")
    try:
        return rays.parse_ray(g, text)
    except rays.RayError as exc:
        raise BundleError(f"ray {text!r}: {exc}") from None


def cmd_distance(args) -> int:
    bundle = load_bundle(args.bundle)
    p = bundle.pair()
    x = _parse_ray(p.g, args.ray1)
    y = _parse_ray(p.g, args.ray2)
    iv = metrics.d_extended(p, x, y, args.depth)
    print(_fmt_interval(iv))
    return 0


def cmd_zeta(args) -> int:
    bundle = load_bundle(args.bundle)
    p = bundle.pair()
    x = _parse_ray(p.g, args.ray)
    value, bound = geometry.zeta_approx(p, x, args.depth)
    # both lines are formatted before either is printed, so a failure
    # leaves no partial answer
    text = f"zeta = {value.real:.12f} + {value.imag:.12f}i\nerror <= {bound} ~= {float(bound):.3e}"
    print(text)
    return 0


def cmd_fibers(args) -> int:
    bundle = load_bundle(args.bundle)
    p = bundle.pair()
    base = _parse_ray(p.quotient.graph, args.ray)
    print(geometry.fiber_classify(p, base).render())
    return 0


def cmd_render(args) -> int:
    bundle = load_bundle(args.bundle)
    p = bundle.pair()
    specs, pruned = geometry.circle_specs_report(p, args.max_k, args.depth, args.min_radius)
    svg = geometry.render_svg(p, args.max_k, args.depth, args.min_radius, args.scale)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"circles = {sum(s.paths for s in specs)}")
    print(f"pruned_radius_sum = {pruned}")
    print(f"wrote = {args.output}")
    return 0


def cmd_synthesize(args) -> int:
    k1 = parse_group(args.k1)
    k0 = parse_group(args.k0tor)
    p = algebra.synthesize_seed(k0, k1)
    rep = p.hypotheses
    kt = algebra.ruelle_k_theory(p)
    text = bundle_text(p, name=f"synthesized K1={args.k1} K0tor={args.k0tor}")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"standing = {rep.standing()}")
    print(f"K0(Rs) = {kt.k0_ruelle_s.render()}")
    print(f"K1(Rs) = {kt.k1_ruelle_s.render()}")
    target_k0 = algebra.FgAbelianGroup(k1.rank, k0.torsion)
    ok = kt.k0_ruelle_s == target_k0 and kt.k1_ruelle_s == k1
    print(f"roundtrip = {'ok' if ok else 'MISMATCH'}")
    print(f"wrote = {args.output}")
    return 0 if ok and rep.standing() else 1


def cmd_complex(args) -> int:
    bundle = load_bundle(args.bundle)
    p = bundle.pair()
    pc = algebra.build_pair_complex(p)
    print(f"containments = {'ok' if pc.containments_ok else 'FAIL'}")
    for k, count in enumerate(pc.vertex_counts):
        print(f"|V{k}| = {count}")
    for k, count in enumerate(pc.edge_counts):
        print(f"|E{k}| = {count}")
    print(f"|H6| = {pc.h6_count}")
    print(f"quotient_rank = {pc.quotient_rank}")
    boundary_zero = pc.terminal_boundary_vanishes(p)
    print(f"boundary_zero = {'ok' if boundary_zero else 'FAIL'}")
    ok = pc.containments_ok and boundary_zero and pc.quotient_rank == pc.h6_count
    return 0 if ok else 1


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _query_depth(text: str) -> int:
    """argparse type: a `distance` or `zeta` depth, 1 .. QUERY_DEPTH_MAX."""
    value = _int_at_least(1)(text)
    if value > QUERY_DEPTH_MAX:
        raise argparse.ArgumentTypeError(f"must be at most {QUERY_DEPTH_MAX}, got {value}")
    return value


def _min_radius(text: str) -> Fraction:
    """argparse type: an exact rational such as 1/300, 0.001 or 1e-3."""
    # Fraction builds 10**exponent, so a long exponent would hang the parse
    if re.search(r"[eE][-+]?0*\d{5}", text.replace("_", "")):
        raise argparse.ArgumentTypeError(f"exponent too large: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _scale(text: str) -> float:
    """argparse type: a positive float whose picture (2.2 * scale wide) has
    finite coordinates."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (value > 0 and math.isfinite(4 * value)):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use (parsing
    does not change it)."""
    ap = argparse.ArgumentParser(prog="shiftquot", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="evaluate the standing hypotheses")
    c.add_argument("bundle")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("invariants", help="homology table and the eight K-groups")
    c.add_argument("bundle")
    c.set_defaults(fn=cmd_invariants)

    c = sub.add_parser("distance", help="quotient metric between two rays")
    c.add_argument("bundle")
    c.add_argument("ray1")
    c.add_argument("ray2")
    c.add_argument("--depth", type=_query_depth, default=12)
    c.set_defaults(fn=cmd_distance)

    c = sub.add_parser("zeta", help="complex coordinate of a ray")
    c.add_argument("bundle")
    c.add_argument("ray")
    c.add_argument("--depth", type=_query_depth, default=12)
    c.set_defaults(fn=cmd_zeta)

    c = sub.add_parser("fibers", help="classify the fiber over a quotient-graph ray")
    c.add_argument("bundle")
    c.add_argument("ray")
    c.set_defaults(fn=cmd_fibers)

    c = sub.add_parser("render", help="SVG of the nested-circle picture")
    c.add_argument("bundle")
    c.add_argument("--max-k", type=_int_at_least(0), default=2)
    c.add_argument("--depth", type=_int_at_least(1), default=5)
    c.add_argument("--min-radius", type=_min_radius, default=Fraction(0))
    c.add_argument("--scale", type=_scale, default=400.0)
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_render)

    c = sub.add_parser("synthesize", help="build a bundle realizing prescribed K-groups")
    c.add_argument("--k1", required=True, help="e.g. 'Z+Z/2' or '0'")
    c.add_argument("--k0tor", required=True, help="torsion-only, e.g. 'Z/4'")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=cmd_synthesize)

    c = sub.add_parser("complex", help="pair-complex checks")
    c.add_argument("bundle")
    c.set_defaults(fn=cmd_complex)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (BundleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
