"""The command line's own text, byte for byte: ``chronoqa --help``, each
subcommand's ``--help``, and the errors for a missing and an unknown
subcommand, each run as ``python -m chronoqa``. The expected transcript is
``cli_text.txt`` beside this file; a change to any of it must be meant.

argparse wraps help to the terminal width, so every run gets COLUMNS=80.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
SUBCOMMANDS = ("gen-l1", "gen-l1-future", "gen-l2", "gen-l3", "render", "mask", "solve", "eval", "reward", "stats")
CASES = [["--help"], *([name, "--help"] for name in SUBCOMMANDS), [], ["frobnicate"]]


def transcript(argv: list[str], cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""), COLUMNS="80",
               LINES="24")
    env.pop("CHRONOQA_SEED", None)
    done = subprocess.run([sys.executable, "-m", "chronoqa", *argv], cwd=cwd, env=env, capture_output=True,
                          timeout=120)
    return (f"$ chronoqa {' '.join(argv)}\nexit {done.returncode}\n--- stdout\n{done.stdout.decode()}"
            f"--- stderr\n{done.stderr.decode()}")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help layout differs between versions")
def test_help_and_usage_errors_are_unchanged(tmp_path):
    expected = (HERE / "cli_text.txt").read_text(encoding="utf-8")
    assert "".join(transcript(argv, tmp_path) for argv in CASES) == expected
