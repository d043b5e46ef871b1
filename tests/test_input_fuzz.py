"""Bundle text and group literals fuzzed through their parsers.

Every input gives an answer or a documented error: `check` on any bundle
text exits 0, 1 or 2 with no escaping exception, and `parse_group`
raises nothing but `BundleError`.  `synthesize` is left out, because a
large rank or factor builds a large seed.
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
