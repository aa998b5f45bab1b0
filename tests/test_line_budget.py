"""The program stays within the line budget and the flag count that ROADMAP.md tracks."""

import argparse
from pathlib import Path

from prefield.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "prefield"
LINE_BUDGET = 3150
FLAG_BUDGET = 53


def test_src_within_line_budget():
    # newlines, as `wc -l src/prefield/*.py` counts them
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert 0 < lines <= LINE_BUDGET, f"src/prefield/*.py has {lines} lines, over the {LINE_BUDGET}-line budget"


def test_cli_flag_budget():
    """Flags summed over every kind's subcommand, --help aside, stay within the budget."""
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        kind: [a.option_strings[0] for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        for kind, parser in subcommands.choices.items()
    }
    count = sum(map(len, flags.values()))
    assert 0 < count <= FLAG_BUDGET, f"{count} flags over the {FLAG_BUDGET}-flag budget: {flags}"
