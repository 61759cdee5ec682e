"""Golden CLI output: exit code, stdout and stderr of a fixed command list.

Every command of the README, plus the branches of ``smoothable`` and the
invalid-length and past-bound paths, runs in both formats.  Timings are
masked, everything else must match ``golden_cli.txt`` byte for byte.
Regenerate the fixture with ``PYTHONPATH=src python tests/test_golden_cli.py``
after an intended change.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

from cuspsym.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.txt")

COMMANDS = [
    # the README's command-line section
    ["validate", "--cycle", "3,10,3,4"],
    ["dual", "--cycle", "3,10,3,4"],
    ["symmetry", "--cycle", "1,2,1,2,2,1,2,1"],
    ["involution", "--cycle", "2,4,2,4", "--axis", "2"],
    ["quotient", "--cycle", "2,4,2,4"],
    ["pi1", "--blowup-rays", "1,1;-1,1;-1,-1;1,-1"],
    ["smoothable", "--cycle", "3,10,3,4"],
    ["smoothable", "--dual-given", "--cycle", "2,2,2,2,2,2,2,2"],
    ["enumerate-toric", "--length", "12"],
    ["scan", "--length", "12", "--max-entry", "10"],
    # further branches
    ["validate", "--cycle", "2,2,2,2"],
    ["symmetry", "--cycle", "2,4,2,4"],
    ["involution", "--cycle", "2,4,2,4"],
    ["smoothable", "--cycle", "14,2,2,2"],
    ["smoothable", "--cycle", "3,5,3,4"],
    ["smoothable", "--cycle", "2,4"],
    ["smoothable", "--cycle", "2,4", "--axis", "1"],
    ["smoothable", "--dual-given", "--cycle", "3,5,3,4"],
    # odd lengths are invalid input
    ["enumerate-toric", "--length", "7"],
    ["scan", "--length", "7"],
    # past a budget or the toric bound
    ["smoothable", "--cycle", "3,40,3,4"],
    ["enumerate-toric", "--length", "32"],
    ["scan", "--length", "8", "--max-entry", "8", "--budget", "10"],
    ["scan", "--length", "32"],
]

_TIMING_JSON = re.compile(r'"timing_s": [0-9.e+-]+')
_TIMING_TEXT = re.compile(r" in [0-9]+\.[0-9]{3}s\]$", re.M)


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    def mask(text: str) -> str:
        text = _TIMING_JSON.sub('"timing_s": "<T>"', text)
        return _TIMING_TEXT.sub(" in <T>s]", text)

    return (f"exit {code}\n--- stdout\n{mask(out.getvalue())}"
            f"--- stderr\n{mask(err.getvalue())}")


def transcript() -> str:
    """The masked output of every command and format in order."""
    blocks = []
    for argv in COMMANDS:
        for fmt in ("machine", "text"):
            full = argv + ["--format", fmt]
            blocks.append(f"=== cuspsym {' '.join(full)}\n" + _run(full))
    return "".join(blocks)


def test_golden_cli_output():
    # compared block by block, so a failure names the first command that differs
    assert transcript().split("=== ") == FIXTURE.read_text().split("=== ")


if __name__ == "__main__":
    FIXTURE.write_text(transcript())
    sys.exit(0)
