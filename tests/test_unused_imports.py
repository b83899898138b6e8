"""Every name the package or its tests import is used.

A name counts as used where the module reads it, or where its `__all__`
lists it for re-export.  `import a.b` binds `a` but is used only where the
module reads `a.b`.  The repository has no linter, so this test is the
check.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for every name an import binds; a dotted name for `import a.b`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, alias.asname or alias.name) for alias in node.names
                    if alias.name != "*"]
    return out


def dotted(node: ast.AST) -> str | None:
    """The dotted name of an attribute chain a.b.c rooted at a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def used_names(tree: ast.Module) -> set[str]:
    """Every name and dotted attribute chain the module reads, and its `__all__`."""
    used = set()
    for node in ast.walk(tree):
        name = dotted(node)
        if name is not None:
            used.add(name)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_imported_name_is_unused():
    unused = []
    for folder in ("src/tegraph", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            used = used_names(tree)
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for line, name in imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {', '.join(unused)}"
