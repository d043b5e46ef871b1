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
])
def test_query_depth_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv[0], bundle_path("full3.bundle"), *argv[1:])
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err


def test_synthesize_roundtrip_cli(tmp_path, capsys):
    out = tmp_path / "syn.bundle"
    code, text, _ = run(
        capsys, "synthesize", "--k1", "Z+Z/3", "--k0tor", "Z/4", "-o", str(out)
    )
    assert code == 0
    assert "roundtrip = ok" in text
    code, _, _ = run(capsys, "check", str(out))
    assert code == 0


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
