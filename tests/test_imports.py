"""Every name a package module imports is read in that module, and every
top-level function or class of the package is named somewhere besides its own
definition, so a deletion leaves no import and no helper behind."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cocyclelab"
# where a package name may be read: the package, its tests, the scripts and
# the benchmark (which patches some functions by their name as a string)
READERS = ("src", "tests", "scripts", "perfbench")

# (module, name) imported but never read there, each with its reason
ALLOWED = {
    # perfbench/tests reads cocyclelab.mixing.mass_apply to check that the
    # tracer restores every module's binding of the traced primitive
    ("mixing", "mass_apply"),
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_package_modules_read_every_name_they_import(path):
    unread = unread_imports(path.read_text()) - {
        name for module, name in ALLOWED if module == path.stem}
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


def orphans(package: dict, readers: list) -> set:
    """The top-level functions and classes of the ``package`` sources
    (module name -> source) that no source of ``readers`` names outside the
    definition itself; the package sources are to be among the readers."""
    total = sum((named(ast.parse(source)) for source in readers), Counter())
    found = set()
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    total[node.name] == named(node)[node.name]:
                found.add(f"{module}.{node.name}")
    return found


def test_every_package_function_and_class_is_named_outside_its_definition():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for top in READERS
               for p in sorted((ROOT / top).rglob("*.py"))]
    left = orphans(package, readers)
    assert not left, f"defined but never named elsewhere: {sorted(left)}"


def test_the_orphan_check_sees_a_leftover():
    package = {"m": "def used():\n    return 1\n\n"
                    "def recursive(n):\n    return recursive(n - 1)\n\n"
                    "class Left:\n    pass\n"}
    reader = "from m import used\n"
    assert orphans(package, [*package.values(), reader]) == {"m.recursive",
                                                             "m.Left"}
