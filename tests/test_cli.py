import hashlib
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import bundle_path
from shiftquot.cli import (
    BundleError,
    bundle_text,
    load_bundle,
    main,
    parse_bundle,
    parse_group,
)
from shiftquot.algebra import FgAbelianGroup
from shiftquot.metrics import d_extended
from shiftquot.rays import parse_ray


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_bundle_full3():
    b = load_bundle(bundle_path("full3.bundle"))
    assert len(b.g.vertices) == 1 and len(b.g.edges) == 3
    assert len(b.h.edges) == 1
    assert b.xi0 == {"h": "a"} and b.xi1 == {"h": "b"}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BundleError, match=":3:"):
        parse_bundle("graph G\nvertex v\nedge e v w\n")
    with pytest.raises(BundleError, match="duplicate"):
        parse_bundle("graph G\nvertex v\nvertex v\n")
    with pytest.raises(BundleError, match="empty"):
        parse_bundle("")
    with pytest.raises(BundleError, match="unknown declaration"):
        parse_bundle("graph G\nvertex v\nfrobnicate\n")
    with pytest.raises(BundleError, match="unknown H-edge"):
        parse_bundle(
            "graph G\nvertex v\nedge a v v\ngraph H\nvertex w\nmap xi0 nope a\n"
        )
    with pytest.raises(BundleError, match=":4: duplicate edge 'a'"):
        parse_bundle("graph G\nvertex v\nedge a v v\nedge a v v\n")
    with pytest.raises(BundleError, match=":7: unknown G-edge 'nope'"):
        parse_bundle(
            "graph G\nvertex v\nedge a v v\ngraph H\nvertex w\nedge y w w\nmap xi0 y nope\n"
        )


DUPLICATE_MAPS = "graph G\nvertex v\nedge a v v\nedge b v v\ngraph H\nvertex w\nedge y w w\n"


@pytest.mark.parametrize(
    "maps, message",
    [
        ("map vertex w v\nmap vertex w v\n", ":9: duplicate 'map vertex' line for H-vertex 'w'"),
        ("map vertex w v\nmap xi0 y a\nmap xi0 y b\n", ":10: duplicate 'map xi0' line for H-edge 'y'"),
        ("map xi1 y b\nmap vertex w v\nmap xi1 y a\n", ":10: duplicate 'map xi1' line for H-edge 'y'"),
    ],
)
def test_duplicate_map_lines_are_parse_errors(capsys, tmp_path, maps, message):
    """A second map line for the same H-item is refused, not silently
    taken over the first."""
    with pytest.raises(BundleError, match=message):
        parse_bundle(DUPLICATE_MAPS + maps)
    path = tmp_path / "dup.bundle"
    path.write_text(DUPLICATE_MAPS + maps)
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


def clash(text):
    """The H-edge h renamed c: it takes the quotient edge c', and the spare
    G-edge c becomes c''."""
    return re.sub(r"\bh\b", "c", text)


@pytest.mark.parametrize("argv, edit, code, message", [
    (["check"], lambda t: t.replace("edge c v v", "edge c v"), 2, ":7: expected 'edge <id> <src> <dst>'"),
    (["check"], lambda t: t.replace("vertex w\n", "vertex w x\n"), 2, ":9: expected 'vertex <id>'"),
    (["check"], lambda t: t.replace("map vertex w v", "map vertex w u"), 2, ":11: unknown G-vertex 'u'"),
    (["check"], lambda t: t.replace("map xi1", "map xi2"), 2, ":13: unknown map kind 'xi2'"),
    (["check"], lambda t: t + "edge k w w\nmap xi0 k a\nmap xi1 k c\n", 1, "xi0: edge map not injective"),
    (["distance", "c;a", "a;b"], clash, 0, None),
    (["fibers", "c'';c'"], clash, 0, None),
    (["check"], clash, 0, None),
    (["invariants"], clash, 0, None),
], ids=["edge-line", "vertex-line", "g-vertex", "map-kind", "not-injective", "clash-distance",
        "clash-fibers", "clash-check", "clash-invariants"])
def test_invalid_bundle_text_exits_with_its_message(capsys, tmp_path, argv, edit, code, message):
    """full3's bundle text, edited."""
    path = tmp_path / "seed.bundle"
    with open(bundle_path("full3.bundle")) as fh:
        path.write_text(edit(fh.read()))
    assert main([argv[0], str(path), *argv[1:]]) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.endswith(message + "\n")


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", bundle_path("full3.bundle"))
    assert code == 0
    assert "standing = True" in out
    code, out, _ = run(capsys, "check", bundle_path("full2.bundle"))
    assert code == 1
    assert "h2 = fail" in out and "witness: edge h" in out


def test_distance_through_many_common_levels(capsys):
    # n shared spare levels each scale the layer part by 2^-3
    n = 1200
    lead = ",".join(["c"] * n)
    code, out, _ = run(capsys, "distance", bundle_path("full3.bundle"), lead + ",a;a", lead + ",b;a")
    assert code == 0
    assert out == f"{Fraction(1, 2 ** (3 * n + 1))}\n"


SRC = os.path.join(os.path.dirname(__file__), "..", "src")
MIXED = ",".join("abc"[i % 3] for i in range(8571))  # the shortest whose denominator passes 4,300 digits
PAST_THE_LIMIT = {
    "common-levels": ["distance", "c," * 1200 + "a;a", "c," * 1200 + "b;a"],
    "mixed-8571": ["distance", MIXED + ";a", MIXED + ",b;a"],
    "points-15000": ["fibers", ",".join(["h'"] * 15000) + ";c'"],
}


def exact_ratio(line):
    """(numerator, denominator) of a printed rational or Points(n), read
    through Decimal, which Python's limit on integer-to-text digits does
    not govern."""
    num, _, den = line.strip().removeprefix("Points(").removesuffix(")").partition("/")
    return int(Decimal(num)), int(Decimal(den or "1"))


def expected_ratio(p, case):
    if case == "common-levels":
        return 1, 2**3601
    if case == "points-15000":
        return 2**15000, 1
    x, y = parse_ray(p.g, MIXED + ";a"), parse_ray(p.g, MIXED + ",b;a")
    return d_extended(p, x, y, 12).lo.as_integer_ratio()


@pytest.mark.parametrize("case", PAST_THE_LIMIT)
def test_exact_answers_past_the_digit_limit(capsys, full3, case):
    """Exact answers of any length, in-process at the default limit and in
    a child with the limit lowered to its floor."""
    argv = PAST_THE_LIMIT[case]
    code, out, err = run(capsys, argv[0], bundle_path("full3.bundle"), *argv[1:])
    assert (code, err) == (0, "")
    assert exact_ratio(out) == expected_ratio(full3, case)
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "shiftquot.cli",
         argv[0], bundle_path("full3.bundle"), *argv[1:]],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)


SHARED_B = (  # xi0(z) and xi1(y) are both b, so H1 fails; H0 holds
    "graph G\nvertex v\nedge a v v\nedge b v v\nedge c v v\n"
    "graph H\nvertex w\nedge y w w\nedge z w w\n"
    "map vertex w v\nmap xi0 y a\nmap xi0 z b\nmap xi1 y b\nmap xi1 z c\n"
)


@pytest.mark.parametrize("argv, out, message", [
    (["check"], "h0 = pass\nh1 = fail  # witness: shared image edge b\nh2 = fail  # witness: edge y\n"
     "primitive = pass\nh_cycle = yes\nstanding = False\n", None),
    (["invariants"], "warning = h1 fails (shared image edge b)\nwarning = h2 fails (edge y)\n",
     "homology table requires the standing hypotheses"),
    (["distance", ";a", ";b"], "", "quotient graph needs H0 and H1"),
    (["fibers", ";y'"], "", "quotient graph needs H0 and H1"),
    (["zeta", ";a"], "", "superscript map undefined: H1 fails"),
    (["render", "-o"], "", "superscript map undefined: H1 fails"),
    (["complex"], "", "pair complex requires the standing hypotheses"),
], ids=["check", "invariants", "distance", "fibers", "zeta", "render", "complex"])
def test_a_seed_failing_h1_gets_each_subcommands_message(capsys, tmp_path, argv, out, message):
    """Exit 1 with the message and no traceback, no partial answer and no
    output file: the superscript map and the partners are undefined."""
    path, svg = tmp_path / "shared.bundle", tmp_path / "out.svg"
    path.write_text(SHARED_B)
    tail = [str(svg)] if argv[-1] == "-o" else []
    code, printed, err = run(capsys, argv[0], str(path), *argv[1:], *tail)
    assert (code, printed) == (1, out)
    assert err == ("" if message is None else f"error: {message}\n")
    assert not svg.exists()


def test_missing_bundle_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.bundle")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "dropped,missing",
    [("map xi1 h b", "H-edge 'h' has no 'map xi1' line"),
     ("map xi0 h a", "H-edge 'h' has no 'map xi0' line"),
     ("map vertex w v", "H-vertex 'w' has no 'map vertex' line")],
)
def test_incomplete_bundle_is_usage_error(capsys, tmp_path, dropped, missing):
    with open(bundle_path("full3.bundle"), encoding="utf-8") as fh:
        text = fh.read()
    assert dropped in text
    path = tmp_path / "partial.bundle"
    path.write_text(text.replace(dropped, ""), encoding="utf-8")
    for command in ("check", "complex"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert f"{path}: {missing}" in err


def test_invariants_output(capsys):
    code, out, _ = run(capsys, "invariants", bundle_path("full3.bundle"))
    assert code == 0
    assert "K0(Rs) = Z (+) Z/2" in out
    assert "K1(Rs) = Z" in out


def test_invariants_without_the_standing_hypotheses_prints_no_homology(capsys):
    code, out, err = run(capsys, "invariants", bundle_path("full2.bundle"))
    assert code == 1
    assert out == "warning = h2 fails (edge h)\n"  # no "homology:" header
    assert "standing hypotheses" in err


def test_distance_output(capsys):
    code, out, _ = run(capsys, "distance", bundle_path("full3.bundle"), "c;a", "c,b;a")
    assert code == 0
    assert out.strip() == "1/16"


def test_distance_interval_output(capsys):
    code, out, _ = run(
        capsys, "distance", bundle_path("full3.bundle"), ";c", "a;c", "--depth", "8"
    )
    assert code == 0
    assert out.startswith("[")


def test_bad_ray_is_usage_error(capsys):
    full3 = bundle_path("full3.bundle")
    for argv in (
        ["distance", full3, "zz;a", ";a"],
        ["distance", full3, "c;z", "a;c"],  # unknown edge
        ["fibers", full3, "zz;h'"],
        ["zeta", full3, "c;"],  # empty cycle
        ["zeta", full3, "c"],  # no ';'
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ray ")
    # a second '--' where the literal goes reaches the parser as no literal
    for argv in (
        ["fibers", full3, "--", "--"],
        ["zeta", full3, "--", "--"],
        ["distance", full3, "--", "--", "a;a"],
        ["distance", full3, "--", "a;a", "--"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: ray literal missing\n"), argv


DETOUR = """graph G
vertex u
vertex v
edge a u u
edge b u u
edge c u u
edge s u v
edge t v u
graph H
vertex w
edge h w w
map vertex w u
map xi0 h a
map xi1 h b
"""


def test_unreachable_stratum_is_domain_error(capsys, tmp_path):
    # both rays parse; the first one's head s,t,s ends at v, whose only way
    # out is the spare edge t, so no approximant with 3 spare edges exists
    path = tmp_path / "detour.bundle"
    path.write_text(DETOUR)
    code, out, err = run(capsys, "distance", str(path), "s;t,s", "a;a", "--depth", "2")
    assert code == 1
    assert out == ""
    assert "stratum 3 unreachable" in err


def test_zeta_output(capsys):
    code, out, _ = run(capsys, "zeta", bundle_path("full3.bundle"), ";a")
    assert code == 0
    assert "zeta = 1.0" in out


def test_fibers_output(capsys):
    code, out, _ = run(capsys, "fibers", bundle_path("full3.bundle"), "h',c';h'")
    assert code == 0
    assert out.strip() == "Circles(2)"


def test_render_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    code, _, _ = run(
        capsys, "render", bundle_path("full3.bundle"),
        "--max-k", "1", "--depth", "4", "-o", str(out1),
    )
    assert code == 0
    run(
        capsys, "render", bundle_path("full3.bundle"),
        "--max-k", "1", "--depth", "4", "-o", str(out2),
    )
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().count("<circle") == 16


@pytest.mark.parametrize("depth", ["500", "1500"])
def test_render_without_reachable_spare_edge_is_immediate(tmp_path, capsys, depth):
    # full2 has no spare edge: the walk skips every branch instead of
    # following 2^depth image paths (or recursing 1500 deep)
    out = tmp_path / "f2.svg"
    code, text, _ = run(
        capsys, "render", bundle_path("full2.bundle"),
        "--max-k", "1", "--depth", depth, "-o", str(out),
    )
    assert code == 0
    assert text.startswith("circles = 1\npruned_radius_sum = 0\n")


@pytest.mark.parametrize("argv", [
    ["render", "--depth", "0"],
    ["render", "--depth", "-3"],
    ["render", "--max-k", "-2"],
    ["render", "--depth", "x"],
    ["render", "--min-radius", "1/0"],
    ["render", "--min-radius", "x"],
    ["render", "--min-radius", "1e-99999"],
    ["render", "--scale", "nan"],
    ["render", "--scale", "inf"],
    ["render", "--scale", "-5"],
    ["render", "--scale", "0"],
    ["render", "--scale", "1e308"],
])
def test_render_out_of_range_is_usage_error(capsys, tmp_path, argv):
    out = tmp_path / "r.svg"
    code, text, err = run(capsys, argv[0], bundle_path("full3.bundle"), *argv[1:], "-o", str(out))
    assert code == 2
    assert text == ""
    assert "--" in err
    assert not out.exists()


def test_render_min_radius_is_read_exactly(capsys, tmp_path):
    outputs = []
    for i, literal in enumerate(["1/1000", "0.001", "1e-3", "1_000e-6"]):
        out = tmp_path / f"{i}.svg"
        code, text, _ = run(capsys, "render", bundle_path("full3.bundle"), "--max-k", "3",
                            "--depth", "7", "--min-radius", literal, "-o", str(out))
        assert code == 0
        outputs.append((text.splitlines()[:2], out.read_bytes()))
    assert all(o == outputs[0] for o in outputs)


@pytest.mark.parametrize("argv", [
    ["distance", ";a", ";b", "--depth", "0"],
    ["distance", ";a", ";b", "--depth", "-1"],
    ["zeta", ";a", "--depth", "0"],
    ["zeta", ";a", "--depth", "-1"],
    ["distance", ";a", ";b", "--depth", "4097"],
    ["distance", ";a", ";b", "--depth", "15000"],
    ["zeta", ";a", "--depth", "4097"],
    ["zeta", ";a", "--depth", "15000"],
])
def test_query_depth_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv[0], bundle_path("full3.bundle"), *argv[1:])
    assert code == 2
    assert out == ""
    bound = "at most 4096" if int(argv[-1]) > 0 else "at least 1"
    assert f"must be {bound}, got {argv[-1]}" in err


def test_query_depth_at_the_ceiling_answers(capsys):
    code, out, _ = run(capsys, "distance", bundle_path("full3.bundle"), ";c", "a;c", "--depth", "4096")
    assert code == 0 and out.startswith("[")
    code, out, _ = run(capsys, "zeta", bundle_path("full3.bundle"), "a;c", "--depth", "4096")
    assert code == 0
    assert out.startswith("zeta = ") and "\nerror <= " in out


def test_synthesize_roundtrip_cli(tmp_path, capsys):
    out = tmp_path / "syn.bundle"
    code, text, _ = run(
        capsys, "synthesize", "--k1", "Z+Z/3", "--k0tor", "Z/4", "-o", str(out)
    )
    assert code == 0
    assert "roundtrip = ok" in text
    code, _, _ = run(capsys, "check", str(out))
    assert code == 0


def test_synthesize_over_the_edge_budget_exits_1_without_a_file(tmp_path, capsys):
    out = tmp_path / "big.bundle"
    code, text, err = run(capsys, "synthesize", "--k1", "Z/100000", "--k0tor", "Z/4", "-o", str(out))
    assert (code, text) == (1, "")
    assert "800,032 G-edges, more than the budget of 250,000" in err
    assert not out.exists()


def test_synthesize_within_the_edge_budget_answers(tmp_path, capsys):
    out = tmp_path / "z10000.bundle"
    code, text, _ = run(capsys, "synthesize", "--k1", "Z/10000", "--k0tor", "Z/4", "-o", str(out))
    assert code == 0 and "roundtrip = ok" in text
    assert len(load_bundle(str(out)).g.edges) == 80_032


RENDER_FIGURE = os.path.join(os.path.dirname(__file__), "..", "scripts", "render_figure.py")


@pytest.mark.parametrize("argv,code", [
    (["--min-radius", "1/0"], 2),
    (["--min-radius", "x"], 2),
    (["--scale", "nan"], 2),
    (["--scale", "-1"], 2),
    (["--depth", "0"], 2),
    (["--max-k", "-1"], 2),
    (["--max-k", "3", "--depth", "30"], 1),  # over the circle budget
    (["--max-k", "1", "--depth", "3", "--min-radius", "1/100", "--scale", "50"], 0),
])
def test_render_figure_script_options(tmp_path, argv, code):
    out = tmp_path / "fig.svg"
    proc = subprocess.run(
        [sys.executable, RENDER_FIGURE, *argv, "-o", str(out)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.exists() == (code == 0)
    if code == 0:
        assert "nan" not in out.read_text() and proc.stdout.endswith(f"wrote = {out}\n")


def test_render_figure_default_figure_is_unchanged(tmp_path):
    # the script's defaults (full3, depth 6, min radius 1/4096, scale 420)
    # draw the same figure, byte for byte, as before it became one `render`
    out = tmp_path / "fig.svg"
    proc = subprocess.run(
        [sys.executable, RENDER_FIGURE, "-o", str(out)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"circles = 193\npruned_radius_sum = 0\nwrote = {out}\n"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "6b5e262b1e2cc35273ee8cf41a91fb00608adb67e9c1d3535c39a6c3711e345e"


def test_complex_cli(capsys):
    code, out, _ = run(capsys, "complex", bundle_path("full3.bundle"))
    assert code == 0
    assert "containments = ok" in out
    assert "boundary_zero = ok" in out


def test_parse_group():
    assert parse_group("0") == FgAbelianGroup(0)
    assert parse_group("Z") == FgAbelianGroup(1)
    assert parse_group("Z^2+Z/2+Z/4") == FgAbelianGroup(2, (2, 4))
    assert parse_group("Z/2+Z/3") == FgAbelianGroup(0, (6,))
    for bad in ("Q", "Z^x", "Z/x", "Z^-1", "Z/-2", "Z^", "Z^ 2"):
        with pytest.raises(BundleError, match="cannot parse group term"):
            parse_group(bad)


@pytest.mark.parametrize("literal", ["Z^x", "Z/x", "Z^-1"])
def test_malformed_group_is_usage_error(capsys, tmp_path, literal):
    out = tmp_path / "s.bundle"
    code, _, err = run(capsys, "synthesize", "--k1", literal, "--k0tor", "0", "-o", str(out))
    assert code == 2
    assert "cannot parse group term" in err
    assert not out.exists()


def test_bundle_text_roundtrip(full3):
    text = bundle_text(full3, "echo")
    again = parse_bundle(text).pair()
    assert again.g.edges == full3.g.edges
    assert again.xi0_edges == full3.xi0_edges


def test_usage_error_exit_2(capsys):
    assert main(["not-a-command"]) == 2
