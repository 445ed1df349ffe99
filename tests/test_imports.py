"""Every name a matchcover module imports is used there or re-exported,
and every public definition is used in the package or exported.

A dead import outlives the code that needed it, and a public member that
only tests read is API nobody calls; these checks read each module's syntax
tree (stdlib ast only) so deletions leave neither behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matchcover"
MODULES = sorted(PACKAGE.glob("*.py"))

# Public definitions that nothing in src/ calls, on purpose: the oracle's
# reference checks, called by tests, and the console-script entry point
# named in pyproject.toml.
UNREFERENCED_OK = {
    "oracle.verify_decomposition",
    "oracle.is_factor_critical",
    "cli.run",
}


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


def public_definitions(module, tree):
    """(qualified name, name) of each public module-level function or class
    and of each public method or property of a module-level class."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_definition_is_referenced_or_exported():
    """A public name counts as used if any src/ module (the CLI included)
    reads it as a name or an attribute.  Names are matched, not bindings: a
    method counts as used wherever an attribute of its name is read."""
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in MODULES
    }
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    referenced |= exported_names(trees["__init__"])
    unused = [
        qualified
        for module, tree in trees.items()
        for qualified, name in public_definitions(module, tree)
        if name not in referenced and qualified not in UNREFERENCED_OK
    ]
    assert not unused, f"public but unused in src/ and not exported: {unused}"
