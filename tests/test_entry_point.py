"""``python -m chronoqa`` as a whole process: exit codes and the exact bytes
of stdout and stderr, and which way the process ends. ``__main__.run`` ends
it with ``os._exit`` once its output is flushed, and keeps the normal exit
under a profiler or tracer and when a flush fails."""

import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from chronoqa import __version__

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


def test_closed_stdout_keeps_the_interpreter_report(tmp_path):
    """A flush that fails takes the normal exit: the interpreter reports the
    broken pipe and exits 120, as without the fast exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, stderr = run(tmp_path, "-c", WITH_HOOK, "gen-l1", "--count", "5", "--out-dir", "out",
                              stdout=write_end)
    finally:
        os.close(write_end)
    assert code == 120
    assert stderr.startswith(b"teardown\nException ignored ")  # the rest of the line varies by Python version
    assert stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")


def test_closed_stdout_unbuffered_is_a_data_error(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run(tmp_path, "-m", "chronoqa", "gen-l1", "--count", "5", "--out-dir", "out",
                     stdout=write_end, unbuffered=True)
    finally:
        os.close(write_end)
    assert result == (2, b"", b"chronoqa: error [E_DATA] [Errno 32] Broken pipe\n")


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
