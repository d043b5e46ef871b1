"""Bundle text, group literals and render options fuzzed through their
parsers.

Every input gives an answer or a documented error: `check` on any bundle
text exits 0, 1 or 2 with no escaping exception, `parse_group` raises
nothing but `BundleError`, and `render` exits 0 with a finite picture or
1 or 2 with no output file.  `synthesize` is left out, because a large
rank or factor builds a large seed.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundle_path
from shiftquot.algebra import FgAbelianGroup
from shiftquot.cli import BundleError, main, parse_group

NAMES = ["G", "H", "v", "w", "u", "a", "b", "h", "e", "xi0", "xi1", "vertex", "graph", "edge"]
KEYWORDS = ["graph", "vertex", "edge", "map", "map vertex", "map xi0", "map xi1", "#"]


def _bundle_line():
    structured = st.tuples(
        st.sampled_from(KEYWORDS), st.lists(st.sampled_from(NAMES), max_size=4)
    ).map(lambda t: " ".join([t[0], *t[1]]))
    noise = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
    return st.one_of(structured, structured, noise)


def _edit(lines, edits):
    """The lines of a valid bundle, each kept, dropped, replaced by a drawn
    line or preceded by one."""
    out = []
    for line, (action, drawn) in zip(lines, edits):
        if action == "insert":
            out.append(drawn)
        if action in ("keep", "insert"):
            out.append(line)
        elif action == "replace":
            out.append(drawn)
    return "\n".join(out)


def _bundle_texts():
    valid = []
    for name in ("full3", "twovertex"):
        with open(bundle_path(f"{name}.bundle"), encoding="utf-8") as fh:
            valid.append(fh.read().splitlines())
    action = st.sampled_from(["keep"] * 40 + ["drop", "replace", "insert"])
    edited = st.sampled_from(valid).flatmap(
        lambda lines: st.lists(
            st.tuples(action, _bundle_line()), min_size=len(lines), max_size=len(lines)
        ).map(lambda edits: _edit(lines, edits))
    )
    return st.one_of(edited, st.lists(_bundle_line(), max_size=12).map("\n".join))


@settings(max_examples=300, deadline=None)
@given(_bundle_texts())
def test_check_on_fuzzed_bundle_text_exits_with_a_documented_code(text):
    fd, path = tempfile.mkstemp(suffix=".bundle")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path])
    finally:
        os.remove(path)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def _group_literals():
    digits = st.one_of(
        st.text("0123456789", max_size=6),
        st.integers(4000, 6000).map(lambda n: "9" * n),  # past int()'s digit limit
    )
    term = st.one_of(
        st.just("Z"),
        st.just("0"),
        st.tuples(st.sampled_from(["Z^", "Z/", "Z", "z/", "Q/", "Z^-", "Z/ "]), digits).map("".join),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    )
    joiner = st.sampled_from(["+", " + ", "++", ",", " "])
    return st.one_of(
        st.tuples(st.lists(term, min_size=1, max_size=4), joiner).map(lambda t: t[1].join(t[0])),
        st.text(max_size=12),
    )


@settings(max_examples=400, deadline=None)
@given(_group_literals())
def test_parse_group_raises_only_bundle_errors(text):
    try:
        group = parse_group(text)
    except BundleError:
        return
    assert isinstance(group, FgAbelianGroup)


@pytest.mark.parametrize("literal", ["Z^" + "9" * 5000, "Z+Z/" + "1" * 4301])
def test_group_term_past_the_digit_limit_is_a_parse_error(literal):
    with pytest.raises(BundleError, match="too many digits"):
        parse_group(literal)


def _render_argv():
    small_int = st.integers(-1, 4).map(str)
    junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    radius = st.one_of(
        st.sampled_from(["0", "1/300", "0.001", "1e-3", "-1", "2", "1/0", "1e99999", "nan", "1_0/3"]),
        st.fractions(max_denominator=10**6).map(str),
        st.floats().map(repr),
        junk,
    )
    scale = st.one_of(
        st.sampled_from(["400", "1e-300", "1e308", "0", "-5", "nan", "inf", "-inf", "1_0"]),
        st.floats().map(repr),
        junk,
    )
    options = st.fixed_dictionaries({}, optional={
        "--max-k": st.one_of(small_int, junk),
        "--depth": st.one_of(small_int, junk),
        "--min-radius": radius,
        "--scale": scale,
    })
    bundle = st.sampled_from(["full3.bundle", "twovertex.bundle", "full2.bundle", "missing.bundle"])
    return st.tuples(bundle, options).map(
        lambda t: ["render", bundle_path(t[0]), *(f"{k}={v}" for k, v in t[1].items())]
    )


@settings(max_examples=200, deadline=None)
@given(_render_argv())
def test_render_on_fuzzed_options_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.svg")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "-o", path])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == "" and not os.path.exists(path)
            return
        with open(path, encoding="utf-8") as fh:
            svg = fh.read()
    assert out.getvalue().startswith("circles = ")
    assert "nan" not in svg and "inf" not in svg and 'width="-' not in svg
