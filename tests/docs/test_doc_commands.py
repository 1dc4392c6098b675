"""Every CLI command the docs show must exist in the parser.

Fenced ``bash`` blocks are never executed, so a removed subcommand can
linger in README.md and docs/*.md long after the code is gone.  This audit reads every line of those files — prose,
inline code and fenced blocks alike — and checks each
``repro-partition <cmd>`` / ``python -m repro <cmd>`` against
:func:`repro.cli.build_parser`: ``<cmd>`` must be a registered
subcommand.  ``a|b`` alternatives are checked one by one; option tokens
(``--help``) are skipped.
"""

from __future__ import annotations

import argparse
import re

import pytest

from repro.cli import build_parser
from tests.docs.snippets import DOC_FILES, REPO_ROOT

_INVOCATION = re.compile(
    r"(?:repro-partition|python3? -m repro)(?![\w.-])"
    r"[ \t]+(?P<cmd>[\w|-]+)")


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def unknown_commands(text: str, parser: argparse.ArgumentParser
                     ) -> list[str]:
    """Return ``line N: ...`` for each invocation the parser rejects."""
    commands = _subcommands(parser)
    bad = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _INVOCATION.finditer(line):
            for cmd in match["cmd"].split("|"):
                if cmd.startswith("-"):
                    continue
                if cmd not in commands:
                    bad.append(f"line {lineno}: no subcommand {cmd!r}")
    return bad


_IDS = [str(p).replace("/", "-") for p in DOC_FILES]


@pytest.mark.parametrize("relpath", DOC_FILES, ids=_IDS)
def test_documented_commands_exist(relpath):
    text = (REPO_ROOT / relpath).read_text(encoding="utf-8")
    bad = unknown_commands(text, build_parser())
    assert not bad, f"{relpath} shows commands the CLI does not have:\n" \
        + "\n".join(bad)


def test_audit_catches_a_removed_command():
    """The audit itself must be live — planted dead commands trip it."""
    parser = build_parser()
    doc = ("```bash\n"
           "repro-partition no-such-command graph.adj\n"
           "PYTHONPATH=src python -m repro bench table3\n"
           "repro-partition partition|no-such-command g.adj out\n"
           "```\n"
           "Run `repro-partition --help` or `python -m repro info uk2005`.\n")
    assert unknown_commands(doc, parser) == [
        "line 2: no subcommand 'no-such-command'",
        "line 3: no subcommand 'bench'",
        "line 4: no subcommand 'no-such-command'",
    ]
