"""The argument parser's structure against a committed golden dump.

The dump walks `cli.build_parser()`: every (sub)parser and, for each of its
actions, the option strings, dest, type, required flag, default, choices, help
and metavar. It pins the command line's shape without depending on argparse's
help wording, which differs between Python versions.

Regenerate the golden (only when the command line is meant to change) with
`PYTHONPATH=src python tests/test_cli_parser.py --write`.
"""

import argparse
import json
import sys
from pathlib import Path

from equiconf.cli import build_parser

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_parser.json"


def dump(parser, entries=None):
    """One entry per parser and per action, in the order argparse keeps them."""
    entries = [] if entries is None else entries
    entries.append({"prog": parser.prog, "description": parser.description})
    subparsers = []
    for action in parser._actions:
        entry = {"prog": parser.prog, "class": type(action).__name__,
                 "option_strings": action.option_strings, "dest": action.dest,
                 "type": getattr(action.type, "__name__", action.type),
                 "required": action.required, "default": action.default,
                 "help": action.help, "metavar": action.metavar,
                 "choices": None if action.choices is None else list(action.choices)}
        if isinstance(action, argparse._SubParsersAction):
            entry["choice_help"] = [[a.dest, a.help] for a in action._choices_actions]
            subparsers.extend(action.choices.values())
        entries.append(entry)
    for sub in subparsers:
        dump(sub, entries)
    return entries


def test_parser_matches_golden():
    assert dump(build_parser()) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in dump(build_parser()))
                      + "\n]\n", encoding="utf-8")
