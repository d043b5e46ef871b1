"""No module of the package, no script, and neither the reference nor
`conftest.py` imports a private name of a package module; no test module
imports another, and every reference definition lives in
`tests/reference.py`.

A private name starts with an underscore.  A `from .mod import _name` (or,
in a script, `from shiftquot.mod import _name`) ties two modules together
through code that neither documents, and the benchmark tracer, which wraps
the public entry points by name, does not see the work done through it.

A test that imports another test module runs that module's code and ties
the two through helpers neither owns: shared inputs belong in
`conftest.py`.  A `ref_` function is the plain definition a faster
implementation is compared against, and there is one per quantity, in
`reference.py`, not a copy in each test module that needs it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shiftquot"
TESTS = ROOT / "tests"


def private_imports(path):
    """`file:line: from .mod import _name` for each private name a relative
    import, or an absolute import from the package, in the file brings in."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "shiftquot")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def imported_test_modules(path):
    """`file:line: import test_x` for each test module the file imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            names = []
        out += [f"{path.name}:{node.lineno}: import {name}" for name in names if name.startswith("test_")]
    return out


def reference_defs(path):
    """`file:line: def ref_x` for each function whose name starts with ref_."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: def {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("ref_")
    ]


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    assert [line for path in paths for line in private_imports(path)] == []


def test_no_script_imports_a_private_name_of_the_package():
    paths = sorted((ROOT / "scripts").glob("*.py"))
    assert paths
    assert [line for path in paths for line in private_imports(path)] == []


def test_the_reference_and_conftest_import_no_private_name():
    """A definition that calls the code it checks would share its faults."""
    paths = [TESTS / "reference.py", TESTS / "conftest.py"]
    assert [line for path in paths for line in private_imports(path)] == []


def test_the_scan_finds_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "from . import rays, _hidden\n"
        "from shiftquot.cli import _scale, main\n"
        "from shiftquotx import _other\n"
        "def f():\n"
        "    from .rays import (\n        LassoRay,\n        _lasso_fault,\n    )\n"
    )
    assert private_imports(bad) == [
        "bad.py:2: from . import _hidden",
        "bad.py:3: from shiftquot.cli import _scale",
        "bad.py:6: from .rays import _lasso_fault",
    ]


def test_no_test_module_imports_another():
    paths = sorted(TESTS.glob("*.py"))
    assert len(paths) > 20
    assert [line for path in paths for line in imported_test_modules(path)] == []


def test_references_are_defined_once_and_only_in_reference_py():
    outside = [line for path in sorted(TESTS.glob("*.py")) if path.name != "reference.py"
               for line in reference_defs(path)]
    assert outside == []
    names = [line.split("def ")[1] for line in reference_defs(TESTS / "reference.py")]
    assert len(names) > 30
    assert sorted(names) == sorted(set(names))


def test_the_scan_finds_a_test_module_import_and_a_stray_reference(tmp_path):
    bad = tmp_path / "test_bad.py"
    bad.write_text(
        "import os, test_other\n"
        "from test_rays import ray\n"
        "from conftest import seeds\n"
        "from testing import x\n"
        "def ref_level(p, x):\n"
        "    def ref_inner():\n"
        "        import test_deep\n"
        "def reference(p):\n"
        "    pass\n"
    )
    assert imported_test_modules(bad) == [
        "test_bad.py:1: import test_other",
        "test_bad.py:2: import test_rays",
        "test_bad.py:7: import test_deep",
    ]
    assert reference_defs(bad) == ["test_bad.py:5: def ref_level", "test_bad.py:6: def ref_inner"]
