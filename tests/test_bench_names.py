"""The names the benchmark tracer wraps still exist in the package.

`bench/tracer.py` wraps each name in ENTRY_POINTS by looking it up with
`vars(owner)[attr]`, so a renamed or deleted entry point fails the traced
run.  The tracer is only read here (loaded by path, never installed).
"""

import importlib
import importlib.util
import os

import pytest

from shiftquot.algebra import smith_normal_form
from shiftquot.graphs import IntMatrix

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
