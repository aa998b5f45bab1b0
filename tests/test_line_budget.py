"""The program stays within the line budget, the flag count and the knob count that ROADMAP.md tracks."""

import argparse
import ast
from pathlib import Path

from prefield.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "prefield"
LINE_BUDGET = 3150
FLAG_BUDGET = 53
KNOB_BUDGET = 17


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


def test_knob_budget():
    """Parameters with a default, over every function, method and lambda in src/prefield, stay within the budget."""
    knobs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
                if defaults:
                    name = f"{path.stem}.{getattr(node, 'name', 'lambda')}:{node.lineno}"
                    knobs[name] = defaults
    count = sum(knobs.values())
    assert 0 < count <= KNOB_BUDGET, f"{count} parameters with a default over the {KNOB_BUDGET}-knob budget: {knobs}"
