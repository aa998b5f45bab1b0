"""The program stays within the line budget that ROADMAP.md sets for src/."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "prefield"
LINE_BUDGET = 3150


def test_src_within_line_budget():
    # newlines, as `wc -l src/prefield/*.py` counts them
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert 0 < lines <= LINE_BUDGET, f"src/prefield/*.py has {lines} lines, over the {LINE_BUDGET}-line budget"
