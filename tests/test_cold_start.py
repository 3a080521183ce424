"""Import footprint: each subcommand, run in a fresh interpreter on small
valid inputs, loads only the modules it runs, and so compiles only their
source when no bytecode is cached. Nothing here is timed."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chronoqa.cli import SUBCOMMANDS, main

from conftest import synth_rows, write_facts

SRC = str(Path(__file__).resolve().parent.parent / "src")
PACKAGE = Path(SRC) / "chronoqa"

# Runs one subcommand, then prints its exit code and the modules it added
# to those the interpreter had already loaded before importing chronoqa.
SCRIPT = """
import sys
before = set(sys.modules)
from chronoqa.cli import main
code = main(sys.argv[1:])
print(code)
print(" ".join(sorted(set(sys.modules) - before)))
"""

NOT_READ = ("chronoqa.contexts", "chronoqa.oracle", "chronoqa.facts")
ARGVS = {
    "gen-l1": ["gen-l1", "--count", "20", "--dev-count", "4", "--out-dir", "out"],
    "gen-l1-future": ["gen-l1-future", "--count", "10", "--out-dir", "out"],
    "gen-l2": ["gen-l2", "--facts", "facts.jsonl", "--out-dir", "out"],
    "gen-l3": ["gen-l3", "--facts", "facts.jsonl", "--out-dir", "out"],
    "render": ["render", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--setting", "reasonqa",
               "--out", "r.jsonl"],
    "mask": ["mask", "--docs", "docs.jsonl", "--out", "m.jsonl"],
    "solve": ["solve", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--out", "p.jsonl"],
    "solve-l1": ["solve", "--questions", "l1_train.jsonl", "--out", "p1.jsonl"],
    "eval": ["eval", "--questions", "l2_train.jsonl", "--predictions", "preds.jsonl", "--out", "e.json"],
    "reward": ["reward", "--questions", "l2_train.jsonl", "--predictions", "preds.jsonl", "--out", "w.jsonl"],
    "stats": ["stats", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--out", "s.json"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("cold_start")
    write_facts(work / "facts.jsonl", synth_rows(6, relation="P39", facts_per_subject=(3, 5), seed=7))
    doc = {"doc_id": "d1", "text": "Osaka in July 2019", "spans": [[0, 5, "entity"], [9, 18, "temporal"]]}
    (work / "docs.jsonl").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main(["gen-l1", "--count", "20", "--out-dir", "."]) == 0
        assert main(["gen-l2", "--facts", "facts.jsonl", "--out-dir", "."]) == 0
        assert main(["solve", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl",
                     "--out", "preds.jsonl"]) == 0
    finally:
        os.chdir(cwd)
    return work


def python(cwd, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("CHRONOQA_SEED", None)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def loaded_modules(workdir, argv) -> set[str]:
    result = python(workdir, "-c", SCRIPT, *argv)
    code, modules = result.stdout.splitlines()[-2:]
    assert code == "0", result.stderr
    return set(modules.split())


def source_lines(modules) -> int:
    """Lines of the chronoqa source files among ``modules``: what a process
    compiles when no bytecode is cached."""
    total = 0
    for name in modules:
        if name == "chronoqa" or name.startswith("chronoqa."):
            path = PACKAGE / f"{name.partition('.')[2] or '__init__'}.py"
            total += len(path.read_text(encoding="utf-8").splitlines())
    return total


# The source lines each entry loads. Pin the new count when a change is meant
# to move one. Before each subcommand's code moved into its own module, and
# the question record, the report, the reward and the template checks into
# theirs, eval and reward loaded 1,779 lines and solve 2,505.
SOURCE_LINES = {
    "gen-l1": 1409, "gen-l1-future": 1390, "gen-l2": 1881, "gen-l3": 1881, "render": 1993, "mask": 1217,
    "solve": 1741, "solve-l1": 1411, "eval": 1279, "reward": 1116, "stats": 1580,
}


def test_readme_states_the_pinned_source_lines():
    """README's table of the source lines each subcommand loads states the pins above."""
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| subcommand | modules beyond"):].split("\n\n")[0]
    stated = {}
    for row in table.splitlines()[2:]:  # after the header and its rule
        label, _, lines, _ = (cell.strip() for cell in row.strip("|").split("|"))
        names = ["solve-l1"] if "no `--facts`" in label else re.findall(r"`([a-z0-9-]+)`", label)
        stated.update(dict.fromkeys(names, int(lines.replace(",", ""))))
    assert stated == SOURCE_LINES


def test_every_subcommand_is_covered():
    assert {argv[0] for argv in ARGVS.values()} == set(SUBCOMMANDS)


@pytest.mark.parametrize("name", ARGVS)
def test_subcommand_loads_only_what_it_runs(workdir, name):
    modules = loaded_modules(workdir, ARGVS[name])
    assert "chronoqa.cli" in modules
    # chronoqa.checks runs only for custom template files;
    # hashing goes through CPython's own modules, not OpenSSL
    assert not modules & {"dataclasses", "inspect", "string", "chronoqa.checks", "hashlib", "_hashlib"}
    # no other subcommand's code: each handler is in its own module
    assert {m for m in modules if m.startswith("chronoqa.cmd_")} == {f"chronoqa.{SUBCOMMANDS[ARGVS[name][0]][0]}"}
    assert source_lines(modules) == SOURCE_LINES[name]
    if name in ("solve", "solve-l1", "eval", "reward"):  # they read questions; generating them is other code
        assert "chronoqa.questions" not in modules
    if name in ("eval", "reward"):
        assert not modules & set(NOT_READ)
    if name in ("gen-l1", "gen-l1-future", "mask"):  # their flag defaults are read at parse time
        assert not modules & {"chronoqa.scoring", "chronoqa.facts", "chronoqa.oracle"}
    if name == "mask":  # its draws come from timeline, not from question generation
        assert "chronoqa.questions" not in modules
    if name.startswith("solve"):
        assert "chronoqa.contexts" not in modules
    if name == "solve-l1":  # no fact file, so no fact code
        assert "chronoqa.facts" not in modules


@pytest.mark.parametrize("argv, stdout", [
    (["gen-l1", "--count", "5", "--out-dir", "out"], "wrote 5 questions to out/l1_train.jsonl\n"),
    (["eval", "--help"], "usage: chronoqa eval [-h]"),
], ids=["gen-l1", "eval-help"])
def test_module_entry_point_reads_its_arguments(tmp_path, argv, stdout):
    """``python -m chronoqa`` calls ``main()`` with no argv, as the console script does."""
    result = python(tmp_path, "-m", "chronoqa", *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(stdout)
