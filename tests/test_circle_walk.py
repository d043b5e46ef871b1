"""Differential test of the circle enumeration: the state walk in
circle_specs_report against the walk over paths in `reference`, which
carries every digit sum, angle and radius as an exact Fraction, sorts one
spec per path and folds adjacent equal circles into one spec with their
path count, and render_svg against a reference that formats every path's
circle on its own.  The circle budget's pre-count is checked against the
reference walk, and counting wrappers check that each distinct value is
built once and that `render` builds one spec per distinct circle.  The
walk and the SVG writer run with the cyclic collector paused: probes
check that it is off inside them and on again after them, and a render
with the collector off must leave no cycle for gc.collect() to free."""

import gc
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from shiftquot import geometry
from shiftquot.algebra import FgAbelianGroup, synthesize_seed
from shiftquot.cli import main
from shiftquot.embedding import EmbeddingError, EmbeddingPair
from shiftquot.geometry import CIRCLE_BUDGET, CircleSpec, circle_specs_report, render_svg
from shiftquot.graphs import Graph
from shiftquot.rays import Angle

from conftest import bundle_path, seeds, spare_chain_pair, tailless_pair
from reference import ref_circle_paths, ref_fold_paths, ref_render_svg


def circle_count(p, max_k, max_depth):
    """The budget count of circle_specs_report: every circle, pruned ones
    included, each as often as paths give it."""
    return geometry._walk_count(*geometry._circle_steps(p, max_k), max_k, max_depth, math.inf)


def split_pair():
    """Two image loops at u, two at z and one spare edge u -> z: no spare
    edge is reachable from z, so every walk through z is skipped."""
    g = Graph(["u", "z"], [("p0", "u", "u"), ("p1", "u", "u"), ("c", "u", "z"),
                           ("s0", "z", "z"), ("s1", "z", "z")])
    h = Graph(["a", "b"], [("la", "a", "a"), ("lb", "b", "b")])
    vm = {"a": "u", "b": "z"}
    return EmbeddingPair(g, h, vm, {"la": "p0", "lb": "s0"}, vm, {"la": "p1", "lb": "s1"})


def assert_same(p, max_k, depth, svg=False):
    """The walk equals the folded reference at min radius 0, and at two
    Fraction thresholds equals the folded reference list split at that
    radius.  The pre-count equals the reference's circles, kept plus
    pruned, and the walk's path counts; with svg=True, render_svg's bytes
    equal the reference's at every threshold and at two scales."""
    every, none_pruned = ref_circle_paths(p, max_k, depth)
    assert none_pruned == 0
    assert circle_count(p, max_k, depth) == len(every), (max_k, depth)
    specs, pruned = circle_specs_report(p, max_k, depth)
    assert (specs, pruned) == (ref_fold_paths(every), 0), (max_k, depth)
    assert sum(s.paths for s in specs) == circle_count(p, max_k, depth), (max_k, depth)
    for min_radius in (0, Fraction(1, 300), Fraction(1, 1000)):
        kept = [spec for spec in every if spec.radius >= min_radius]
        pruned = sum((spec.radius for spec in every if spec.radius < min_radius), Fraction(0))
        got = circle_specs_report(p, max_k, depth, min_radius)
        assert got == (ref_fold_paths(kept), pruned), (max_k, depth, min_radius)
        for scale in (400.0, 37.5) if svg else ():
            assert render_svg(p, max_k, depth, min_radius, scale) == ref_render_svg(kept, scale), (
                max_k, depth, min_radius, scale)


@pytest.mark.parametrize("name", ["full3", "full2", "twovertex"])
def test_walk_matches_reference_on_bundles(name, request):
    p = request.getfixturevalue(name)
    for max_k in range(4):
        for depth in range(1, 7):
            assert_same(p, max_k, depth, svg=True)


def test_walk_matches_reference_where_branches_are_skipped():
    p = split_pair()
    for max_k in range(4):
        for depth in range(1, 7):
            assert_same(p, max_k, depth)
    specs, _ = circle_specs_report(p, 3, 6)
    # every path through the one spare edge c ends there: one level each
    assert len(specs) > 1 and all(len(spec.levels) == 1 for spec in specs[1:])


def test_walk_matches_reference_with_a_tailless_vertex():
    p = tailless_pair()
    for max_k in range(4):
        for depth in range(1, 7):
            assert_same(p, max_k, depth, svg=True)


@pytest.mark.parametrize("k0, k1", [
    (FgAbelianGroup(0, ()), FgAbelianGroup(0, ())),
    (FgAbelianGroup(0, (2,)), FgAbelianGroup(1)),
])
def test_walk_matches_reference_on_synthesized_seeds(k0, k1):
    # 17 or more out-edges per vertex: depth 3 already walks ~10^4 paths
    p = synthesize_seed(k0, k1)
    for max_k in range(4):
        for depth in range(1, 4):
            assert_same(p, max_k, depth, svg=True)


@settings(max_examples=25, deadline=None)
@given(seeds())
def test_walk_matches_reference_on_drawn_seeds(p):
    # parallel image and spare edges on up to three vertices, some of them
    # without an all-image tail; a seed whose H has no cycle has none at all
    if all(p.completion[v].xi_tail is None for v in p.g.vertices):
        with pytest.raises(EmbeddingError, match="no all-image tails"):
            circle_specs_report(p, 1, 1)
        return
    for max_k in range(4):
        for depth in range(1, 5):
            for min_radius in (0, Fraction(1, 300)):
                expected = ref_circle_paths(p, max_k, depth, min_radius)
                specs, pruned = circle_specs_report(p, max_k, depth, min_radius)
                assert sum(s.paths for s in specs) == len(expected[0])
                if min_radius == 0:
                    assert sum(s.paths for s in specs) == circle_count(p, max_k, depth)
                assert (specs, pruned) == (ref_fold_paths(expected[0]), expected[1]), (max_k, depth, min_radius)
                assert render_svg(p, max_k, depth, min_radius, 400.0) == ref_render_svg(expected[0], 400.0)


def test_walk_by_multiplicity_at_depth_7(twovertex):
    # 56,313 circles, 800 of them distinct
    every, _ = ref_circle_paths(twovertex, 3, 7)
    specs, pruned = circle_specs_report(twovertex, 3, 7)
    assert sum(s.paths for s in specs) == len(every) == circle_count(twovertex, 3, 7) == 56_313
    assert len(specs) == 800 and pruned == 0
    for min_radius in (0, Fraction(1, 300)):
        kept = [spec for spec in every if spec.radius >= min_radius]
        specs, pruned = circle_specs_report(twovertex, 3, 7, min_radius)
        assert specs == ref_fold_paths(kept)
        assert pruned == sum((spec.radius for spec in every if spec.radius < min_radius), Fraction(0))
        assert render_svg(twovertex, 3, 7, min_radius, 400.0) == ref_render_svg(kept, 400.0)


def test_render_builds_no_per_path_spec(twovertex, tmp_path, capsys, monkeypatch):
    built = []

    def counting_spec(*args):
        built.append(args)
        return CircleSpec(*args)

    monkeypatch.setattr(geometry, "CircleSpec", counting_spec)
    out = tmp_path / "twovertex.svg"
    argv = ["render", bundle_path("twovertex.bundle"), "--max-k", "2", "--depth", "6", "-o", str(out)]
    assert main(argv) == 0
    assert "circles = 7225\n" in capsys.readouterr().out
    # one per distinct circle in each of the two walks, none per path
    assert len(built) == 2 * 193
    specs, _ = circle_specs_report(twovertex, 2, 6)
    assert len(specs) == 193 and sum(s.paths for s in specs) == 7_225


def test_render_ignores_hash_seed(twovertex, tmp_path):
    # the walk and the expansion iterate dicts in insertion order, never sets
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = tmp_path / "twovertex.svg"
    code = (
        "import sys\nfrom shiftquot.cli import main\n"
        f"sys.exit(main(['render', {bundle_path('twovertex.bundle')!r}, '--max-k', '2', '--depth', '5', "
        f"'-o', {str(out)!r}]))"
    )
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out.read_bytes()))
        out.unlink()
    assert runs[0] == runs[1]
    every, _ = ref_circle_paths(twovertex, 2, 5)
    assert runs[0][1] == ref_render_svg(every, 400.0).encode()


def test_pruned_sum_is_exact_at_every_threshold(full3):
    # thresholds on, just above and just below the dyadic radii
    for min_radius in (Fraction(1, 16), Fraction(1, 17), Fraction(1, 15), 2, Fraction(-1), Fraction(1, 64)):
        every, pruned = ref_circle_paths(full3, 2, 5, min_radius)
        assert circle_specs_report(full3, 2, 5, min_radius) == (ref_fold_paths(every), pruned)


@pytest.mark.parametrize("name, max_k, depth", [("twovertex", 2, 6), ("full3", 3, 7), ("full3", 3, 9)])
def test_each_distinct_value_is_built_once(name, max_k, depth, request, monkeypatch):
    p = request.getfixturevalue(name)
    built = []

    def counting_angle(turns):
        built.append(turns)
        return Angle(turns)

    monkeypatch.setattr(geometry, "Angle", counting_angle)
    specs, _ = circle_specs_report(p, max_k, depth)
    monkeypatch.undo()
    # every vertex of these seeds has a tail, so every level built is emitted
    keys = {(n - 1, a.turns * 2 ** (n - 1)) for spec in specs for n, a in spec.levels}
    assert len(built) <= len(keys) < len(specs)
    assert len(set(built)) == len(built)

    # the walk shares its values between specs: each distinct coefficient,
    # angle and radius object becomes a float once, and each distinct term
    # object (a (coefficient, angle) pair) its complex product once
    svg = render_svg(p, max_k, depth, 0, 400.0)
    terms = {id(term): term for spec in specs for term in spec.center_terms}
    coeffs = {id(c) for c, _ in terms.values()}
    angles = {id(a) for _, a in terms.values()}
    radii = {id(spec.radius) for spec in specs}
    assert len(terms) < sum(len(spec.center_terms) for spec in specs)
    assert len(radii) < len(specs)
    conversions = []
    to_float = Fraction.__float__

    def counting_float(q):
        conversions.append(q)
        return to_float(q)

    units, products = [], []
    to_unit = geometry._angle_complex

    class Unit(complex):
        def __mul__(self, other):
            products.append(other)
            return complex(self) * other

        __rmul__ = __mul__

    def counting_unit(a):
        units.append(a)
        return Unit(to_unit(a))

    monkeypatch.setattr(Fraction, "__float__", counting_float)
    monkeypatch.setattr(geometry, "_angle_complex", counting_unit)
    assert render_svg(p, max_k, depth, 0, 400.0) == svg
    monkeypatch.undo()
    assert len(units) <= len({a for spec in specs for _, a in spec.center_terms})
    assert len(conversions) <= len(coeffs) + len(angles) + len(radii)
    assert len({id(q) for q in conversions}) == len(conversions)
    assert 0 < len(products) <= len(terms)


def test_sort_key_does_not_grow_with_the_depth():
    # every circle of spare_chain_pair ends at its spare edge d, so at max_k
    # 2 the walk ends by itself at any depth; a sort key packed at the
    # depth's width would shift an integer left by about 10**12 bits
    specs, pruned = circle_specs_report(spare_chain_pair(), 2, 10)
    assert len(specs) == 5 and pruned == 0
    assert ((2, Angle(Fraction(1, 2))), (1, Angle(Fraction(0)))) in [spec.levels for spec in specs]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    tests = os.path.dirname(__file__)
    code = (
        "from conftest import spare_chain_pair\n"
        "from shiftquot.geometry import circle_specs_report\n"
        "for depth in (10**5, 10**12):\n"
        "    print(repr(circle_specs_report(spare_chain_pair(), 2, depth)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == 2 * (repr((specs, pruned)) + "\n")


def test_budget_admits_the_largest_render_below_it(twovertex):
    assert circle_count(twovertex, 2, 6) == 7_225  # the bench's largest render
    assert circle_count(twovertex, 3, 8) == 233_785 <= CIRCLE_BUDGET
    assert circle_count(twovertex, 3, 9) == 945_977


def test_render_over_budget_is_refused_before_the_walk(twovertex, tmp_path, capsys):
    with pytest.raises(EmbeddingError, match="945,977 circles.*250,000"):
        circle_specs_report(twovertex, 3, 9)
    out = tmp_path / "big.svg"
    argv = ["render", bundle_path("twovertex.bundle"), "--max-k", "3", "--depth", "9", "-o", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the circle walk would visit at least 945,977 circles")
    assert not out.exists()


def test_render_stops_when_no_state_is_live(tmp_path):
    # max_k 0 walks no path, so the walk ends at once whatever the depth
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = tmp_path / "unit.svg"
    code = (
        "import sys\nfrom shiftquot.cli import main\n"
        f"sys.exit(main(['render', {bundle_path('full3.bundle')!r}, '--max-k', '0', "
        f"'--depth', '1000000000000', '-o', {str(out)!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "circles = 1\n" in proc.stdout
    assert out.read_text(encoding="utf-8").count("<circle ") == 1


def test_walk_drops_paths_that_can_give_no_circle():
    # on tailless_pair at max_k 1 the loops at u can only reach the spare
    # edge into w, which has no all-image tail; only the path d gives a
    # circle, so no digit-sum state outlives the first step at any depth
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    tests = os.path.dirname(__file__)
    code = (
        "import math\nfrom conftest import tailless_pair\n"
        "from shiftquot import geometry\n"
        "p = tailless_pair()\n"
        "specs, pruned = geometry.circle_specs_report(p, 1, 200)\n"
        "count = geometry._walk_count(*geometry._circle_steps(p, 1), 1, 200, math.inf)\n"
        "print(sum(s.paths for s in specs), count, pruned)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 2 0\n"


def test_a_walk_builds_one_steps_table(twovertex, monkeypatch):
    """The budget count reads the tables the walk then walks on."""
    built = []
    inner = geometry._circle_steps
    monkeypatch.setattr(geometry, "_circle_steps", lambda p, max_k: built.append(max_k) or inner(p, max_k))
    specs, _ = circle_specs_report(twovertex, 2, 5)
    assert built == [2] and sum(s.paths for s in specs) == circle_count(twovertex, 2, 5)
    assert built == [2, 2]


def test_the_walk_and_the_writer_run_with_the_collector_paused(twovertex, monkeypatch):
    """gc is off inside circle_specs_report and render_svg, the writer's
    own loop included after its nested walk has returned, and on again
    after a return and after the budget refusal; a caller's own
    gc.disable() stands."""
    seen = []
    for name in ("_walk_count", "_level_rows", "_angle_complex"):
        def probed(*args, _inner=getattr(geometry, name), _name=name, **kwargs):
            seen.append((_name, gc.isenabled()))
            return _inner(*args, **kwargs)

        monkeypatch.setattr(geometry, name, probed)
    assert gc.isenabled()
    circle_specs_report(twovertex, 2, 5)
    assert {name for name, _ in seen} == {"_walk_count", "_level_rows"}
    assert not any(on for _, on in seen) and gc.isenabled()
    seen.clear()
    render_svg(twovertex, 2, 5, 0, 400.0)
    assert {name for name, _ in seen} == {"_walk_count", "_level_rows", "_angle_complex"}
    assert not any(on for _, on in seen) and gc.isenabled()
    seen.clear()
    with pytest.raises(EmbeddingError, match="945,977 circles"):
        render_svg(twovertex, 3, 9, 0, 400.0)
    assert seen == [("_walk_count", False)] and gc.isenabled()
    gc.disable()
    try:
        render_svg(twovertex, 2, 4, 0, 400.0)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_paused_render_makes_no_reference_cycle(tmp_path):
    """Reference counting alone frees everything a render builds, so
    pausing the collector frees the same memory at the same time.  With
    the collector off after a warm-up, no CLI render, the budget refusal
    included, leaves anything for gc.collect() to free."""
    def render(name, max_k, depth, *extra):
        out = str(tmp_path / "c.svg")
        return main(["render", bundle_path(f"{name}.bundle"), "--max-k", str(max_k), "--depth", str(depth),
                     "-o", out, *extra])

    assert render("full3", 2, 3) == 0
    gc.collect()
    gc.disable()
    try:
        for name in ("full3", "full2", "twovertex"):
            for max_k, depth in ((1, 4), (2, 6), (3, 7)):
                for extra in ((), ("--min-radius", "1/300")):
                    assert render(name, max_k, depth, *extra) == 0
                    assert gc.collect() == 0, (name, max_k, depth, extra)
        assert render("twovertex", 3, 9) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_timings_script_prints_one_row_per_job():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "enumerate_timings.py")
    proc = subprocess.run([sys.executable, script, "--repeat", "1", "--max-depth", "5"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["job", "best", "ms", "median", "ms", "gen0", "gen1", "gen2", "gc", "ms"]
    assert [" ".join(row[:3]) for row in rows] == [
        "render twovertex 2/4", "render twovertex 2/5", "injectivity full3 4", "injectivity full3 5",
        "injectivity twovertex 4", "injectivity twovertex 5"]
    for row in rows:
        best, median, *collector = map(float, row[3:])
        assert 0 < best <= median and all(value >= 0 for value in collector)
