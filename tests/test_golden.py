"""Golden CLI output: exit codes, stdout and written files, pinned across versions.

Each case runs `shiftquot.cli.main` in-process.  `{bundles}` in an
argument stands for the bundled seed directory and `{out}` for a
temporary output file; the output path is written back as `{out}` in
the recorded stdout.  Files written with `-o` are pinned by SHA-256.

Regenerate the fixture (only after checking that a change in output is
intended) with:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_cli.json")
BUNDLES = os.path.join(HERE, "..", "bundles")

F3, F2, TV = "{bundles}/full3.bundle", "{bundles}/full2.bundle", "{bundles}/twovertex.bundle"

CASES = [
    ["check", F3],
    ["check", F2],
    ["check", TV],
    ["check", "{bundles}/missing.bundle"],
    ["invariants", F3],
    ["invariants", F2],
    ["invariants", TV],
    ["distance", F3, "c;a", "c;b"],
    ["distance", F3, "a,c;a", "b,c,a;a"],
    ["distance", F3, "c,a,c;b", "c,b,c;a"],
    ["distance", F3, "a,b,a;b", "b,a;a"],
    ["distance", F3, ";c", ";a"],
    ["distance", F3, "a;c,a", "b;c", "--depth", "8"],
    ["distance", TV, "q0,r0;p0", "q1,r1;p1"],
    ["distance", TV, "p2,q0;r0,q1", "q2,r1;p0"],
    ["distance", TV, "q2,r2;p0", "p2;p1"],
    ["distance", TV, "p2;p2", "q0,r2;p1", "--depth", "2"],
    ["distance", TV, ";p2", "p2;p0"],
    ["distance", F3, "x;a", "a;a"],
    ["zeta", F3, "c;a"],
    ["zeta", F3, "a,b,c,b;b"],
    ["zeta", F3, ";c", "--depth", "10"],
    ["zeta", TV, "p2;p0"],
    ["zeta", TV, "q2,r2;p1"],
    ["zeta", TV, "q2;s0", "--depth", "6"],
    ["fibers", F3, "c',h';h'"],
    ["fibers", F3, "h',h';c'"],
    ["fibers", F3, "c',h',c';h',c'"],
    ["fibers", TV, "q2',back',p2';loop'"],
    ["render", F3, "-o", "{out}"],
    ["render", F3, "--max-k", "3", "--depth", "6", "--min-radius", "1/4096", "-o", "{out}"],
    ["render", TV, "--depth", "4", "-o", "{out}"],
    ["render", TV, "--min-radius", "0.001", "--scale", "100", "-o", "{out}"],
    ["synthesize", "--k1", "Z+Z/2", "--k0tor", "Z/4", "-o", "{out}"],
    ["synthesize", "--k1", "0", "--k0tor", "0", "-o", "{out}"],
    ["complex", F3],
    ["complex", F2],
    ["complex", TV],
]


def run_case(case: list[str], out_path: str) -> dict:
    from shiftquot.cli import main

    argv = [a.replace("{bundles}", BUNDLES).replace("{out}", out_path) for a in case]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    result = {"argv": case, "exit": code, "stdout": buf.getvalue().replace(out_path, "{out}")}
    if "{out}" in case:
        with open(out_path, "rb") as fh:
            result["file_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        os.remove(out_path)
    return result


def load_fixture() -> list[dict]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert [r["argv"] for r in load_fixture()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i][:2]) + f" #{i}")
def test_cli_output_matches_fixture(index, tmp_path):
    expected = load_fixture()[index]
    assert run_case(CASES[index], str(tmp_path / "out")) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [run_case(case, os.path.join(tmp, "out")) for case in CASES]
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
