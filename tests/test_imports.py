"""Every name a matchcover module imports is used there or re-exported,
every public definition is used in the package or exported, every
exported name is used in the package or by the benchmark, and every
dataclass field is read in the package or by the benchmark.

A dead import outlives the code that needed it, and a public member that
only tests read is API nobody calls; these checks read each module's and
the benchmark's syntax trees (stdlib ast only) so deletions leave neither
behind.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matchcover"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((ROOT / "solvebench").rglob("*.py"))

# Public definitions that nothing in src/ calls, on purpose: the
# console-script entry point named in pyproject.toml, and the derived
# Gallai-Edmonds C, which solve never reads but the benchmark's traced
# C-size counter and tests/reference.py's decomposition check do.
UNREFERENCED_OK = {"cli.run", "gallai_edmonds.GallaiEdmonds.c"}


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


def member_kind(node):
    """"class" for a classmethod or staticmethod, "property" for a property
    (cached or with a setter), "method" for a plain method."""
    for dec in node.decorator_list:
        name = dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None)
        if name in ("classmethod", "staticmethod"):
            return "class"
        if name in ("property", "cached_property", "setter", "getter", "deleter"):
            return "property"
    return "method"


def public_definitions(module, tree):
    """(qualified name, name, kind, class node) of each public module-level
    function or class (kind "global", no class node) and of each public
    method or property of a module-level class (kind from
    :func:`member_kind`)."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, "global", None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield (
                        f"{module}.{node.name}.{item.name}",
                        item.name,
                        member_kind(item),
                        node,
                    )


def owner_reads(tree):
    """(owner, attribute) for each attribute read off a bare name."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def test_every_public_definition_is_referenced_or_exported():
    """A public definition counts as used only where src/ (the CLI
    included) really uses it:

    - a module-level function or class, where it is read as a name or an
      attribute, or exported from the package;
    - a classmethod or staticmethod, where it is read off its own class
      name, or off ``cls`` inside its class;
    - a plain method, where an attribute of its name is called;
    - a property, where an attribute of its name is read.

    So a member is not kept alive by an unrelated attribute of its name,
    such as a dataclass field or another class's classmethod.
    """
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in MODULES
    }
    referenced, called, read, owned = set(), set(), set(), set()
    for tree in trees.values():
        owned |= owner_reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    referenced |= exported_names(trees["__init__"])

    def used(name, kind, cls):
        if kind == "global":
            return name in referenced
        if kind == "class":
            return (cls.name, name) in owned or ("cls", name) in owner_reads(cls)
        if kind == "method":
            return name in called
        return name in read

    unused = [
        qualified
        for module, tree in trees.items()
        for qualified, name, kind, cls in public_definitions(module, tree)
        if not used(name, kind, cls) and qualified not in UNREFERENCED_OK
    ]
    assert not unused, f"public but unused in src/ and not exported: {unused}"


def test_every_export_has_a_caller():
    """An exported name is read in a package module other than
    ``__init__``, or imported from ``matchcover`` by the benchmark; one
    that only tests read belongs with them."""
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in MODULES
    }
    read = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    benchmark = {
        alias.name
        for path in BENCHMARK
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "matchcover"
        for alias in node.names
    }
    uncalled = sorted(exported_names(trees["__init__"]) - read - benchmark)
    assert not uncalled, f"exported but read neither in src/ nor by solvebench/: {uncalled}"


def is_dataclass(node):
    """True for a class decorated with ``dataclass`` or ``dataclass(...)``."""
    names = [dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list]
    return any(isinstance(name, ast.Name) and name.id == "dataclass" for name in names)


def test_every_dataclass_field_is_read():
    """A field of a package dataclass is read as an attribute in a package
    module or in the benchmark; one that only tests read is a run fact
    nobody reports."""
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES]
    read = {
        node.attr
        for tree in [*trees, *(ast.parse(p.read_text(encoding="utf-8")) for p in BENCHMARK)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (f"{path.stem}.{node.name}.{item.target.id}", item.target.id)
        for path, tree in zip(MODULES, trees)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert len(fields) >= 10
    unread = [qualified for qualified, name in fields if name not in read]
    assert not unread, f"dataclass fields read neither in src/ nor by solvebench/: {unread}"
