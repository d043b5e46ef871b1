"""No module of the package, no script, and neither the reference nor
`conftest.py` imports a private name of a package module; no module of the
package and no script reads a private attribute that another of them
defines; no test module imports another, and every reference definition
lives in `tests/reference.py`.

A private name starts with an underscore.  A `from .mod import _name` (or,
in a script, `from shiftquot.mod import _name`) ties two modules together
through code that neither documents, and the benchmark tracer, which wraps
the public entry points by name, does not see the work done through it.
A read of `obj._field` from outside the module that defines the field ties
the reader to a table layout the owner is free to change: each table has
one reader, its owner, and the others go through its public methods.  A
test module uses only the private names in TEST_PRIVATE_USES, each listed
with the step it pins.

A test that imports another test module runs that module's code and ties
the two through helpers neither owns: shared inputs belong in
`conftest.py`.  A `ref_` function is the plain definition a faster
implementation is compared against, and there is one per quantity, in
`reference.py`, not a copy in each test module that needs it.

Every def, class and method of the package is reached from the command
line, the acceptance tests, the benchmark or a script; a method only
through an attribute, a `getattr` string or a dotted string.  A name that only
the other tests reach is surface nobody runs: the quantity it computes
belongs in `reference.py`, or it leaves with its tests.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shiftquot"
TESTS = ROOT / "tests"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_attributes(path):
    """The private attribute names a file defines: its `self._x =`
    assignments, its `__slots__` entries and its `_`-named defs."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return {name for name in names if _is_private(name)}


def foreign_private_reads(paths):
    """`file:line: obj._x` for each use of a private attribute, on a name
    other than `self` or `cls`, that only other files of `paths` define."""
    owned = {path: private_attributes(path) for path in paths}
    out = []
    for path in paths:
        foreign = set().union(*(names for q, names in owned.items() if q != path)) - owned[path]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        out += sorted(
            (node.lineno, node.col_offset, f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in foreign
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        )
    return [line for _, _, line in out]


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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def mentions(nodes):
    """Every name the nodes use: names, attribute names, imported names,
    and each part of a string that is a dotted name (the tracer's
    "cli.SeedBundle.pair", a `getattr` field).  A use that can reach a
    method is also recorded with a leading dot: an attribute load, a string
    passed to `getattr`, or a part of a string with a dot in it.  A local
    variable, a keyword or a dict key that shares a method's name does not
    reach the method."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    out.add("." + node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
                parts = node.value.split(".")
                out.update(parts)
                if len(parts) > 1:
                    out.update("." + part for part in parts)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                out.add("." + node.args[1].value)
    return out


def package_defs(paths):
    """(qualified name, key, the names its body uses) for each top-level
    def and class and each method, and the names the modules' other
    top-level statements use (they run on import).  The key is the name a
    use must carry to reach the def: its own name, with a leading dot for
    a method.  A class's own uses are its bases, decorators and the
    statements of its body that are not defs; an import uses nothing until
    its name is."""
    defs, top = [], set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                body = [s for s in node.body if not isinstance(s, DEFS)]
                uses = mentions(node.bases + node.keywords + node.decorator_list + body)
                defs.append((f"{path.stem}.{node.name}", node.name, uses))
                defs += [(f"{path.stem}.{node.name}.{s.name}", "." + s.name, mentions([s]))
                         for s in node.body if isinstance(s, DEFS)]
            elif isinstance(node, DEFS):
                defs.append((f"{path.stem}.{node.name}", node.name, mentions([node])))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                top |= mentions([node])
    return defs, top


def unreached(src_paths, root_paths):
    """The qualified names of the package's defs that no root reaches.

    The roots are `main`, the `cmd_*` commands, the dunders (Python calls
    them), the modules' top-level statements and every name the root files
    use.  A reached name reaches every def of that name, and a reached
    method name every method of that name, so the scan errs toward calling
    a def reached."""
    defs, seen = package_defs(src_paths)
    seen |= {"main"} | {key for _, key, _ in defs if key.startswith("cmd_") or _is_dunder(key.lstrip("."))}
    seen |= mentions([ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in root_paths])
    frontier = seen
    while frontier:
        frontier = set().union(*(uses for _, key, uses in defs if key in frontier)) - seen
        seen |= frontier
    return [qual for qual, key, _ in defs if key not in seen and not _is_dunder(key.lstrip("."))]


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


def test_no_module_or_script_reads_a_private_attribute_of_another():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    owned = {path.name: private_attributes(path) for path in paths}
    assert {"_src", "_superscript", "_partner"} <= owned["graphs.py"] | owned["embedding.py"]
    assert foreign_private_reads(paths) == []


def test_the_reference_and_conftest_read_no_private_attribute_of_the_package():
    """The definitions and the shared inputs take seed data from public
    tables, as the package's own modules do."""
    paths = sorted(SRC.glob("*.py")) + [TESTS / "reference.py", TESTS / "conftest.py"]
    assert foreign_private_reads(paths) == []


def test_the_scan_finds_a_read_of_another_modules_private_attribute(tmp_path):
    owner = tmp_path / "owner.py"
    owner.write_text(
        "class Table:\n"
        "    __slots__ = ('_rows', 'size', '__weakref__')\n"
        "    def __init__(self):\n"
        "        self._rows, self._cols = [], []\n"
        "        self._note: str = ''\n"
        "    def _lookup(self, key):\n"
        "        return self._rows[key]\n"
        "def _helper(t):\n"
        "    return t._cols\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text(
        "def read(t, cls):\n"
        "    a = t._rows[0] + t._cols.__len__()\n"
        "    b = t.size, t.__weakref__, t._unowned, self._rows, cls._note\n"
        "    t._note = t._lookup(1)\n"
        "    return t._mine\n"
        "class Mine:\n"
        "    def _mine(self):\n"
        "        return self\n"
    )
    assert private_attributes(owner) == {"_rows", "_cols", "_note", "_lookup", "_helper"}
    assert foreign_private_reads([owner, reader]) == [
        "reader.py:2: t._rows",
        "reader.py:2: t._cols",
        "reader.py:4: t._note",
        "reader.py:4: t._lookup",
    ]


# The private names a test module may use, each with the reason it is used:
# the test pins one step that no public entry point exposes on its own.  A
# new private use needs its own entry here, and an entry no test uses goes.
TEST_PRIVATE_USES = {
    "algebra._modular_chain": "wrapped to record the modulus each leftover block is reduced by",
    "algebra._smith_diagonal": "the diagonal alone, against the reference, without U and V",
    "algebra._tracked_elimination": "the bordered elimination, against the reference's",
    "algebra._unit_pivots": "the first stage's pivot count and leftover block",
    "embedding._h_tail_witness": "the tail table, against the reference's scan",
    "geometry._angle_complex": "wrapped to count the SVG writer's angle conversions",
    "geometry._circle_steps": "wrapped to count the steps tables one circle walk builds",
    "geometry._classes": "wrapped to read the reps the injectivity walk yields, in order",
    "metrics._d_finite": "the finite-stratum distance on a ray and its unrolled spelling",
    "rays._prepend_class": "one step of the grown class, against canonical",
    "rays._total_swap": "the total-swap flag a grown class carries",
    "smale._level_distances": "the tower reader's level stream, against d_class per level",
}


def test_private_uses_in_test_modules_are_the_allowed_ones():
    """Imports of the package's private names, and reads of private
    attributes that the package or another test module defines."""
    tests = sorted(TESTS.glob("test_*.py"))
    names = {path.name for path in tests}
    used = {line.split(": ", 1)[1] for line in foreign_private_reads(sorted(SRC.glob("*.py")) + tests)
            if line.split(":")[0] in names}
    for line in (line for path in tests for line in private_imports(path)):
        module, name = line.split(": from ")[1].split(" import ")
        used.add(f"{module.rsplit('.', 1)[-1]}.{name}")
    assert sorted(used) == sorted(TEST_PRIVATE_USES)


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


def test_every_package_def_is_reached_outside_the_tests():
    """A def only the differential tests call moves into `reference.py`."""
    roots = ([TESTS / "test_acceptance.py"] + sorted((ROOT / "bench").glob("*.py"))
             + sorted((ROOT / "scripts").glob("*.py")))
    assert len(roots) > 5
    assert unreached(sorted(SRC.glob("*.py")), roots) == []


def test_the_scan_finds_an_unreached_def(tmp_path):
    pkg = tmp_path / "pkg.py"
    pkg.write_text(
        "from .other import imported_only\n"
        "LIMIT = helper_at_import()\n"
        "def helper_at_import():\n"
        "    return 1\n"
        "def main():\n"
        "    hidden = {'hidden': 1, **dict(hidden=2)}\n"
        "    return Table().lookup(1) + chained() + hidden['hidden']\n"
        "def chained():\n"
        "    return getattr(Table, 'by_name')\n"
        "def cmd_run(args):\n"
        "    return 0\n"
        "def imported_only():\n"
        "    pass\n"
        "def planted(x):\n"
        "    return orphan_helper(x)\n"
        "def orphan_helper(x):\n"
        "    return x\n"
        "class Table:\n"
        "    size: int = 0\n"
        "    def __init__(self):\n"
        "        self._check()\n"
        "    def _check(self):\n"
        "        pass\n"
        "    def lookup(self, key):\n"
        "        return key\n"
        "    def by_name(self):\n"
        "        pass\n"
        "    def unused_method(self):\n"
        "        pass\n"
        "    def hidden(self):\n"
        "        pass\n"
        "class Unused:\n"
        "    pass\n"
    )
    root = tmp_path / "bench.py"
    root.write_text("ENTRY_POINTS = ('pkg.Traced.run',)\n")
    traced = tmp_path / "traced.py"
    traced.write_text("class Traced:\n    def run(self):\n        pass\n")
    assert unreached([pkg, traced], [root]) == [
        "pkg.imported_only",
        "pkg.planted",
        "pkg.orphan_helper",
        "pkg.Table.unused_method",
        "pkg.Table.hidden",
        "pkg.Unused",
    ]
    script = tmp_path / "script.py"
    script.write_text("from pkg import planted\n")
    assert unreached([pkg, traced], [root, script]) == [
        "pkg.imported_only",
        "pkg.Table.unused_method",
        "pkg.Table.hidden",
        "pkg.Unused",
    ]
