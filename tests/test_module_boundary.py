"""No module of the package, and no script, imports a private name of a
package module.

A private name starts with an underscore.  A `from .mod import _name` (or,
in a script, `from shiftquot.mod import _name`) ties two modules together
through code that neither documents, and the benchmark tracer, which wraps
the public entry points by name, does not see the work done through it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shiftquot"


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


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    assert [line for path in paths for line in private_imports(path)] == []


def test_no_script_imports_a_private_name_of_the_package():
    paths = sorted((ROOT / "scripts").glob("*.py"))
    assert paths
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
