"""The names the benchmark tracer wraps still exist in the package, and
the calls it pins per job still happen.

`bench/tracer.py` wraps each name in ENTRY_POINTS by looking it up with
`vars(owner)[attr]`, so a renamed or deleted entry point fails the traced
run.  The tracer is only read here (loaded by path, never installed).
"""

import importlib
import importlib.util
import os
import sys

import pytest

from shiftquot import geometry
from shiftquot.algebra import smith_normal_form
from shiftquot.cli import main
from shiftquot.graphs import IntMatrix

from conftest import bundle_path

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_names", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name", tracer.ENTRY_POINTS)
def test_entry_point_resolves_as_the_tracer_reads_it(name):
    module_name, *path = name.split(".")
    assert module_name in tracer.MODULES
    owner = importlib.import_module(f"shiftquot.{module_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    raw = vars(owner)[path[-1]]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    assert callable(fn)


def test_smith_result_has_what_max_bits_reads():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    dec = smith_normal_form(a)
    for name in ("u", "d", "v"):
        assert isinstance(getattr(dec, name), IntMatrix)
    assert tracer._max_bits(dec) > 0


def test_render_enters_the_circle_walk_twice(tmp_path, monkeypatch):
    """The traced smoke run pins geometry.circle_specs_report.calls_per_job
    at 2.  Wrapped as the tracer's install() wraps it, under every name
    that holds it in every shiftquot module, one `render` job enters it
    exactly twice."""
    original = geometry.circle_specs_report
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    package = [m for n, m in sys.modules.items() if n == "shiftquot" or n.startswith("shiftquot.")]
    held = [(mod, attr) for mod in package for attr, value in vars(mod).items() if value is original]
    assert (geometry, "circle_specs_report") in held
    for mod, attr in held:
        monkeypatch.setattr(mod, attr, wrapper)
    argv = ["render", bundle_path("twovertex.bundle"), "--max-k", "2", "--depth", "6", "-o", str(tmp_path / "t.svg")]
    assert main(argv) == 0
    assert calls == [(2, 6, 0)] * 2
