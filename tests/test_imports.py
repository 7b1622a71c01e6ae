"""Every name a package module, a test or a script imports is read in that
module, and every function and class of the package, and every public method
and property of its classes, is named by a caller besides its own definition,
so a deletion leaves no import and no helper behind."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cocyclelab"
# where a package definition may be called: the package, the scripts and the
# benchmark (which patches some functions by their name as a string); a test
# reads what it checks, so it keeps nothing alive, and neither does a
# re-export from the package root
CALLERS = ("src", "scripts", "perfbench")

# (module, name) imported but never read there, each with its reason
ALLOWED = {
    # perfbench/tests reads cocyclelab.mixing.mass_apply to check that the
    # tracer restores every module's binding of the traced primitive
    ("mixing", "mass_apply"),
}

# package definitions that no caller reads yet, each with the ROADMAP
# direction that gives it one
UNCALLED = {
    "skew.set_picture_joint": "direction 8: the skew rows of report run the "
                              "set picture against the operator picture",
    "skew.env_probability": "direction 8: the skew rows of report",
    "asymptotic.invariant_density_from_decomposition":
        "direction 10: the stability route reads the periodic mixture",
}


def unread_imports(source: str) -> set:
    """The names the module's import statements bind and no expression reads;
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return bound - read


# the benchmark is left out: its files are frozen with its reference digests
IMPORTERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "scripts").glob("*.py"))]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.stem if p.parent == PACKAGE
                         else f"{p.parent.name}/{p.stem}")
def test_package_modules_read_every_name_they_import(path):
    unread = unread_imports(path.read_text()) - {
        name for module, name in ALLOWED if path.parent == PACKAGE
        and module == path.stem}
    assert not unread, f"{path.name} imports but never reads {sorted(unread)}"


def test_the_unread_import_check_sees_a_leftover():
    assert unread_imports(
        "from __future__ import annotations\n"
        "import numpy as np\nimport scipy.sparse\nfrom a import b, c as d\n"
        "__all__ = ['b']\nx = np.zeros(1)\n") == {"scipy", "d"}


def named(tree) -> Counter:
    """How often each identifier is read in a syntax tree: as a name, an
    attribute, an imported name, or a string that is exactly the name (a
    ``getattr`` or patch target)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names[node.value] += 1
    return names


def definitions(source: str):
    """The top-level functions and classes of a module, and the public
    methods and properties of its classes, as (qualified name, node)."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def orphans(package: dict, readers: list) -> set:
    """The definitions of the ``package`` sources (module name -> source)
    that no source of ``readers`` names outside the definition itself; the
    package sources are to be among the readers."""
    total = sum((named(ast.parse(source)) for source in readers), Counter())
    found = set()
    for module, source in package.items():
        for qualname, node in definitions(source):
            name = qualname.rpartition(".")[2]
            if total[name] == named(node)[name]:
                found.add(f"{module}.{qualname}")
    return found


def callers(root: Path) -> list:
    """The sources under ``root`` that may keep a package definition alive:
    those of CALLERS, without any test and without the package root."""
    return [p.read_text() for top in CALLERS for p in sorted((root / top).rglob("*.py"))
            if "tests" not in p.relative_to(root).parts
            and p != root / "src" / "cocyclelab" / "__init__.py"]


def test_every_package_function_and_class_is_named_outside_its_definition():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    left = orphans(package, callers(ROOT))
    assert left - set(UNCALLED) == set(), \
        f"defined but called nowhere: {sorted(left - set(UNCALLED))}"
    assert set(UNCALLED) <= left, \
        f"called now, so drop from UNCALLED: {sorted(set(UNCALLED) - left)}"


def test_the_orphan_check_sees_a_leftover(tmp_path):
    sources = {
        "src/cocyclelab/__init__.py": "from cocyclelab.m import exported\n",
        "src/cocyclelab/m.py": "def used():\n    return 1\n\n"
                               "def recursive(n):\n    return recursive(n - 1)\n\n"
                               "def exported():\n    pass\n\n"
                               "def tested():\n    pass\n\n"
                               "class Left:\n    pass\n\n"
                               "class Kept:\n"
                               "    def run(self):\n        return self.tested_method()\n\n"
                               "    def tested_method(self):\n        pass\n\n"
                               "    def only_tested(self):\n        pass\n\n"
                               "    def _private(self):\n        pass\n",
        "scripts/s.py": "from cocyclelab.m import Kept, used\nKept().run()\n",
        "tests/test_m.py": "from cocyclelab.m import tested, Kept\n"
                           "tested()\nKept().only_tested()\n",
        "perfbench/tests/test_p.py": "from cocyclelab.m import recursive\n",
    }
    for name, source in sources.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    package = {"m": sources["src/cocyclelab/m.py"]}
    assert orphans(package, callers(tmp_path)) == {
        "m.recursive", "m.exported", "m.tested", "m.Left", "m.Kept.only_tested"}
