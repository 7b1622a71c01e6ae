"""Every name a package module imports is read in that module, so a deletion
leaves no import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cocyclelab"

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
