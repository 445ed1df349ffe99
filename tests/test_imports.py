"""Every name a matchcover module imports is used there or re-exported.

A dead import outlives the code that needed it; this check reads each
module's syntax tree (stdlib ast only) so deletions leave none behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matchcover"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """Local names bound by the module's imports, except ``__future__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((a.asname or a.name) for a in node.names)
    return names


def exported_names(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used - exported_names(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_modules_found():
    assert {"blossom", "gallai_edmonds", "oracle"} <= {p.stem for p in MODULES}
