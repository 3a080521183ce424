"""``python -m chronoqa`` as a whole process: exit codes and the exact bytes
of stdout and stderr, and which way the process ends. ``__main__.run`` ends
it with ``os._exit`` once its output is flushed, and keeps the normal exit
under a profiler or tracer and when a flush fails for any reason but a
reader that has gone."""

import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from chronoqa import __version__

from conftest import synth_rows, write_facts

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# The module entry point with an atexit hook: a normal exit runs the hook,
# the fast exit does not.
WITH_HOOK = """
import atexit, sys
atexit.register(lambda: sys.stderr.write("teardown\\n"))
from chronoqa.__main__ import run
run()
"""

FACTS = ('{"subject": "A", "subject_id": "Q1", "relation": "P39", "object": "Mayor", "start": "2001", '
         '"end": "2003"}\n{"subject": "A", "relation": "P39"}\n')


def child_env(unbuffered: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("CHRONOQA_SEED", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run(cwd: Path, *args: str, stdout=None, unbuffered: bool = False) -> tuple[int, bytes, bytes]:
    """Run ``python *args`` with stdout and stderr sent to files (or stdout
    to the given file descriptor); return the exit code and both outputs."""
    out_path, err_path = cwd / "stdout.bin", cwd / "stderr.bin"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(unbuffered),
                              stdout=out if stdout is None else stdout, stderr=err, timeout=120).returncode
    return code, out_path.read_bytes(), err_path.read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["gen-l1", "--count", "5", "--out-dir", "out"], 0, b"wrote 5 questions to out/l1_train.jsonl\n", b""),
    (["gen-l1", "--count", "x", "--out-dir", "out"], 1, b"",
     b"chronoqa: error [E_USAGE] argument --count: invalid literal for int() with base 10: 'x'\n"),
    (["gen-l2", "--facts", "facts.jsonl", "--out-dir", "out", "--split-counts", "train:2"], 2, b"",
     b"warning: facts.jsonl: line 1: missing or empty field 'object_id'\n"
     b"warning: facts.jsonl: line 2: missing or empty field 'subject_id'\n"
     b"chronoqa: error [E_DATA] requested 2 subjects but only 0 available\n"),
    (["--version"], 0, f"chronoqa {__version__}\n".encode(), b""),
], ids=["success", "usage-error", "data-error-with-warnings", "version"])
def test_exit_code_and_output_bytes(tmp_path, argv, code, stdout, stderr, unbuffered):
    (tmp_path / "facts.jsonl").write_text(FACTS, encoding="utf-8")
    assert run(tmp_path, "-m", "chronoqa", *argv, unbuffered=unbuffered) == (code, stdout, stderr)
    if code == 0 and argv[0] == "gen-l1":
        lines = (tmp_path / "out" / "l1_train.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6 and lines[0].startswith('{"_meta": ')
        assert os.listdir(tmp_path / "out") == ["l1_train.jsonl"]  # no temp file left behind


@pytest.mark.parametrize("argv, teardown", [
    (["gen-l1", "--count", "5", "--out-dir", "out"], False),
    (["gen-l1", "--count", "x", "--out-dir", "out"], False),
    (["--version"], True),  # argparse ends it with SystemExit, through the normal exit
], ids=["success", "usage-error", "version"])
def test_fast_exit_skips_teardown(tmp_path, argv, teardown):
    code, _, stderr = run(tmp_path, "-c", WITH_HOOK, *argv)
    assert stderr.endswith(b"teardown\n") == teardown
    assert code == (1 if "x" in argv else 0)


@pytest.fixture
def scored(tmp_path) -> Path:
    """A directory with a fact file, its L2 train questions and their solved predictions."""
    write_facts(tmp_path / "facts.jsonl", synth_rows(6, relation="P39", facts_per_subject=(3, 5), seed=7))
    assert run(tmp_path, "-m", "chronoqa", "gen-l2", "--facts", "facts.jsonl", "--out-dir", ".")[0] == 0
    assert run(tmp_path, "-m", "chronoqa", "solve", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl",
               "--out", "preds.jsonl")[0] == 0
    return tmp_path


OUT_THEN_PRINT = {  # subcommands that write --out before they print
    "eval": ["eval", "--questions", "l2_train.jsonl", "--predictions", "preds.jsonl", "--out", "report.json"],
    "stats": ["stats", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--out", "report.json"],
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, artifact", [
    (["gen-l1", "--count", "5", "--out-dir", "out"], "out/l1_train.jsonl"),
    (OUT_THEN_PRINT["eval"], "report.json"),
    (OUT_THEN_PRINT["stats"], "report.json"),
], ids=["gen-l1", "eval", "stats"])
def test_closed_stdout_exits_as_sigpipe(scored, argv, artifact, unbuffered):
    """A stdout whose reader has gone is not a data error: the run exits
    141 (128 + SIGPIPE), as a producer cut off by its reader does, with
    nothing on stderr, whether the print or only the final flush finds out;
    what it wrote before printing is the file a normal run writes."""
    assert run(scored, "-m", "chronoqa", *argv)[0] == 0
    expected = (scored / artifact).read_bytes()
    (scored / artifact).unlink()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, stderr = run(scored, "-c", WITH_HOOK, *argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert (code, stderr) == (141, b"")  # and no teardown: the fast exit
    assert (scored / artifact).read_bytes() == expected


def test_closed_stdout_under_a_profiler_prints_nothing(tmp_path):
    """What stdout still buffers goes nowhere, so the normal exit a profiler
    needs has no broken pipe to report; the exit code is the profiler's."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        _, _, stderr = run(tmp_path, "-m", "cProfile", "-o", "out.prof", "-m", "chronoqa", "gen-l1", "--count", "5",
                           "--out-dir", "out", stdout=write_end)
    finally:
        os.close(write_end)
    assert stderr == b""
    assert "gen_l1" in {name for _, _, name in pstats.Stats(str(tmp_path / "out.prof")).stats}


@pytest.mark.parametrize("argv", OUT_THEN_PRINT.values(), ids=OUT_THEN_PRINT)
def test_full_stdout_still_writes_the_out_file(scored, argv):
    """When stdout fails for want of space, the run is still a data error,
    but its ``--out`` file is the one a normal run writes."""
    assert run(scored, "-m", "chronoqa", *argv)[0] == 0
    expected = (scored / "report.json").read_bytes()
    (scored / "report.json").unlink()
    with open("/dev/full", "wb") as full:
        code, _, stderr = run(scored, "-m", "chronoqa", *argv, stdout=full.fileno(), unbuffered=True)
    assert (code, stderr) == (2, b"chronoqa: error [E_DATA] [Errno 28] No space left on device\n")
    assert (scored / "report.json").read_bytes() == expected


def test_cli_module_runs_the_package_entry_point(tmp_path):
    """``python -m chronoqa.cli`` is ``python -m chronoqa``: a usage error
    that a subcommand's own module raises is still a usage error."""
    argv = ["gen-l2", "--facts", "facts.jsonl", "--out-dir", "out", "--split-counts", "train:1",
            "--split-ratios", "train:1"]
    assert run(tmp_path, "-m", "chronoqa.cli", *argv) == (
        1, b"", b"chronoqa: error [E_USAGE] give at most one of --split-counts and --split-ratios\n")


def test_profiler_still_writes_its_output(tmp_path):
    """cProfile writes its file at exit: on Python 3.11 it is a profile
    function, from 3.12 on a ``sys.monitoring`` tool."""
    code, stdout, stderr = run(tmp_path, "-m", "cProfile", "-o", "out.prof", "-m", "chronoqa",
                               "gen-l1", "--count", "5", "--out-dir", "out")
    assert (code, stdout, stderr) == (0, b"wrote 5 questions to out/l1_train.jsonl\n", b"")
    functions = {name for _, _, name in pstats.Stats(str(tmp_path / "out.prof")).stats}
    assert {"gen_l1", "main", "run"} <= functions


def test_tracer_still_writes_its_output(tmp_path):
    code, stdout, stderr = run(tmp_path, "-m", "trace", "--count", "--coverdir", "cover", "--module",
                               "chronoqa", "gen-l1", "--count", "5", "--out-dir", "out")
    assert (code, stdout, stderr) == (0, b"wrote 5 questions to out/l1_train.jsonl\n", b"")
    assert "chronoqa.questions.cover" in os.listdir(tmp_path / "cover")


def test_console_script_is_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    from chronoqa.__main__ import run as module_run  # importing it runs nothing

    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["chronoqa"]
    assert target == "chronoqa.__main__:run"
    assert callable(module_run)
