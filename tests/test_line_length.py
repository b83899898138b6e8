"""No line of the package or its tests is longer than 100 characters.

The code is written to that width; the repository has no linter, so this
test is the check.
"""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 100


def test_no_line_is_longer_than_the_limit():
    long = [
        f"{path.relative_to(ROOT)}:{number} ({len(line)})"
        for folder in ("src/tegraph", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert not long, f"lines over {LIMIT} characters: {', '.join(long)}"
