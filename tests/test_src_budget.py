"""Line budget for ``src/``: the package may not outgrow its ceiling.

The ceiling lives in ``tests/data/src_budget.json``.  A change that needs
more lines raises it and names why in its CHANGES.md entry; a change that
deletes code lowers it, so the budget only ratchets down by default.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def src_lines() -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in (ROOT / "src").rglob("*.py"))


def test_src_within_line_budget():
    budget = json.loads((ROOT / "tests/data/src_budget.json").read_text())
    lines = src_lines()
    assert lines <= budget["ceiling"], (
        f"src/ has {lines} lines, over the ceiling of {budget['ceiling']} "
        f"in tests/data/src_budget.json: delete code, or raise the ceiling "
        f"and say why in CHANGES.md")
