"""Golden reports: fixed CLI commands must print exactly what they printed before.

Each fixture under tests/golden holds one command's output, with a JSON
report's `timings` dropped, since they differ from run to run.  A change
that is meant to keep every report the same must leave these files alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from permwords import cli, perm_core

GOLDEN = Path(__file__).resolve().parent / "golden"

# fixture file -> argv
COMMANDS = {
    "verify-all.json": ["verify", "--suite", "all", "--n", "6", "--cap-pairs", "12", "--format", "json"],
    "reproduce.json": ["reproduce", "--n", "10", "--format", "json"],
    "reproduce.txt": ["reproduce", "--n", "10", "--format", "plain"],
    "reproduce.csv": ["reproduce", "--n", "10", "--format", "csv"],
    "count-4231.json": ["count", "--pattern", "4231", "--n", "9", "--format", "json"],
    "encode.json": ["encode", "3612745", "--format", "json"],
}


def report_text(argv, capsys) -> str:
    """The command's output on fresh counting memos, a JSON report without `timings`."""
    perm_core._completions_1324.cache_clear()
    perm_core._completions_generic.cache_clear()
    assert cli.main(argv) == 0, argv
    out = capsys.readouterr().out
    if "json" in argv:
        doc = json.loads(out)
        doc.pop("timings", None)
        out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return out


def test_reports_match_the_golden_files(capsys):
    for name, argv in COMMANDS.items():
        want = (GOLDEN / name).read_bytes().decode("utf-8")  # csv rows end in \r\n
        assert report_text(argv, capsys) == want, name
