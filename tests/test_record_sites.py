"""Only `tensor._record` and `tensor.calculated_heads` touch the tape.

Every other op records its backward rule through `_record(out, rule)`, so
the skip-when-no-gradient guard and the rule's op name, by which records
are counted, live in one place.  `calculated_heads` has one output per head
and skips heads one by one, so it records its rule itself.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {("tensor.py", "_record"), ("tensor.py", "calculated_heads")}


def tape_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level function, line) of each `active_tape()` and `.record(` call."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "active_tape"
                    or isinstance(func, ast.Attribute) and func.attr == "record"):
                found.append((owner, node.lineno))
    return found


def test_only_record_and_calculated_heads_touch_the_tape():
    stray, seen = [], set()
    for path in sorted((ROOT / "src" / "tegraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for owner, line in tape_calls(tree):
            if (path.name, owner) in ALLOWED:
                seen.add((path.name, owner))
            else:
                stray.append(f"{path.name}:{line} in {owner}")
    assert not stray, f"tape touched outside _record: {', '.join(stray)}"
    assert seen == ALLOWED
