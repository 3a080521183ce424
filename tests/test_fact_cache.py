"""The fact-file cache beside a fact file: a load that finds its own cache
gives the store, and every run the same output, that ingesting the file
gives; any other cache, or none, gives the result of ingesting."""

import errno
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chronoqa import facts
from chronoqa.cli import main
from chronoqa.facts import FACT_COLUMNS, Diagnostic, Fact, FactStore, load_fact_file
from chronoqa.templates import load_templates

from conftest import UNDECODABLE, synth_rows
from test_cache_codecs import FACTS as PINNED_FACTS, PINNED

SRC = str(Path(__file__).resolve().parent.parent / "src")
SUFFIX = ".chronoqa-cache"


BAD_JSON = '{"subject": "Ada Park", "subject_id": "Q1"'


def defect_lines() -> list[str]:
    """Good facts of two relations, then one line of each kind of defect."""
    rows = synth_rows(6, relation="P39", facts_per_subject=(3, 6), seed=41)
    rows += synth_rows(4, relation="P54", facts_per_subject=(3, 5), seed=42)
    for index in (5, len(rows) - 1):
        rows[index]["end"] = None  # ongoing: closed at the snapshot
    good = [json.dumps(row) for row in rows]
    return [
        json.dumps({"_meta": {"source": "test"}}),
        *good,
        BAD_JSON,
        "\ufeff" + good[0],
        json.dumps(dict(rows[1], start="Jull 2019")),
        json.dumps(dict(rows[1], end="Jan 0")),
        json.dumps(dict(rows[2], relation="P999")),
        good[3],
        good[4],
        json.dumps({"_meta": {"source": "late"}}),
        json.dumps(dict(rows[0], start="Mar 2023", end=None)),
        # a group of its own, so that no question shows it: it cannot be written as UTF-8
        json.dumps(dict(rows[0], subject_id="Q-lone", object="Mayor \ud800", object_id="O-lone")),
    ]


@pytest.fixture
def fact_file(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_text("\n".join(defect_lines()) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def ingests(monkeypatch):
    """The number of ``facts.ingest`` calls so far."""
    calls = []
    original = facts.ingest

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(facts, "ingest", counted)
    return calls


def cache_of(path) -> Path:
    return Path(f"{path}{SUFFIX}")


def assert_same_store(warm: FactStore, cold: FactStore) -> None:
    assert warm == cold
    assert type(warm) is FactStore and type(warm.facts) is tuple and type(warm.diagnostics) is tuple
    assert all(type(fact) is Fact and type(fact.start) is type(fact.end) is int for fact in warm.facts)
    assert all(type(diagnostic) is Diagnostic for diagnostic in warm.diagnostics)


def test_a_cache_of_the_pinned_bytes_is_a_hit(tmp_path, ingests):
    """A cache holding the bytes pinned for the fact codec, as any build that
    writes that format wrote them, gives the cold load's store unread."""
    path = tmp_path / "input.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in PINNED_FACTS), encoding="utf-8")
    cold = load_fact_file(str(path))
    key = json.loads(cache_of(path).read_text(encoding="ascii").partition("\n")[0])["key"]
    cache_of(path).write_text(PINNED[FACT_COLUMNS.name].replace('"KEY"', json.dumps(key), 1), encoding="ascii")
    ingests.clear()
    assert_same_store(load_fact_file(str(path)), cold)
    assert not ingests
    assert [fact[5:] for fact in cold.facts] == [(24054, 24107), (24108, 24274)]  # Jul 2004-Dec 2008, 2009-Nov 2022


def test_warm_load_gives_the_cold_store_without_ingesting(fact_file, ingests):
    cold = load_fact_file(str(fact_file))
    assert len(ingests) == 1 and cache_of(fact_file).is_file()
    assert cold.duplicates_dropped == 2 and "Mayor \ud800" in {fact.object for fact in cold.facts}
    assert [d.message for d in cold.diagnostics][:2] == ["invalid JSON: Expecting ',' delimiter",
                                                        "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"]
    warm = load_fact_file(str(fact_file))
    assert len(ingests) == 1
    assert_same_store(warm, cold)
    assert load_fact_file(fact_file) == cold  # a Path finds the same cache
    assert len(ingests) == 1


def capture(capsys, argv, outputs) -> tuple:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err, {path: Path(path).read_bytes() if Path(path).exists() else None for path in outputs}


COMMANDS = {
    "gen-l2": (["gen-l2", "--facts", "facts.jsonl", "--out-dir", "out", "--seed", "3"],
               ["out/l2_train.jsonl", "out/l2_dev.jsonl", "out/l2_test.jsonl"]),
    "gen-l3": (["gen-l3", "--facts", "facts.jsonl", "--out-dir", "out", "--seed", "3"],
               ["out/l3_train.jsonl", "out/l3_dev.jsonl", "out/l3_test.jsonl"]),
    "render": (["render", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--setting", "reasonqa",
                "--out", "r.jsonl"], ["r.jsonl"]),
    "solve-l2": (["solve", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--out", "p2.jsonl"],
                 ["p2.jsonl"]),
    "solve-l3": (["solve", "--facts", "facts.jsonl", "--questions", "l3_train.jsonl", "--out", "p3.jsonl"],
                 ["p3.jsonl"]),
    "stats": (["stats", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--out", "s.json"],
              ["s.json"]),
    "gen-l2-strict": (["gen-l2", "--facts", "facts.jsonl", "--out-dir", "strict", "--strict"], []),
    "solve-strict": (["solve", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--out", "ps.jsonl",
                      "--strict"], ["ps.jsonl"]),
}


@pytest.fixture
def workdir(tmp_path, fact_file, monkeypatch, capsys):
    """The fact file plus L2 and L3 question files made from it, with no cache."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen-l2", "--facts", "facts.jsonl", "--out-dir", "."]) == 0
    assert main(["gen-l3", "--facts", "facts.jsonl", "--out-dir", "."]) == 0
    capsys.readouterr()
    cache_of(fact_file).unlink()
    return tmp_path


@pytest.mark.parametrize("name", COMMANDS)
def test_warm_and_cold_runs_print_and_write_the_same(workdir, capsys, ingests, name):
    argv, outputs = COMMANDS[name]
    cold = capture(capsys, argv, outputs)
    assert len(ingests) == 1 and cache_of("facts.jsonl").is_file()  # a strict run's too
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    warm = capture(capsys, argv, outputs)
    assert len(ingests) == 1
    assert warm == cold
    code, _, err, _ = cold
    if name.endswith("strict"):
        line = defect_lines().index(BAD_JSON) + 1
        assert (code, err) == (2, f"chronoqa: error [E_DATA] facts.jsonl:{line}: invalid JSON: Expecting ',' "
                                  "delimiter\n")
    else:
        assert (code, err.count("warning: facts.jsonl: line ")) == (0, 7)


def stale_runs(capsys, argv, outputs, ingests) -> tuple:
    """The result of ``argv`` with the cache now beside the fact file, then
    with none; ``ingest`` must run for the first."""
    before = len(ingests)
    stale = capture(capsys, argv, outputs)
    assert len(ingests) == before + 1
    cache_of("facts.jsonl").unlink()
    return stale, capture(capsys, argv, outputs)


@pytest.mark.parametrize("change", ["one-byte", "snapshot", "templates"])
def test_a_cache_under_another_key_is_a_miss(workdir, capsys, ingests, change):
    argv, outputs = COMMANDS["stats"]
    first = capture(capsys, argv, outputs)
    if change == "one-byte":  # the first fact's object, renamed
        text = Path("facts.jsonl").read_text(encoding="utf-8")
        Path("facts.jsonl").write_text(text.replace('"Role P39-0-0"', '"Role P39-0-X"', 1), encoding="utf-8")
    elif change == "snapshot":  # the fact starting Mar 2023 is no longer after the snapshot
        argv = [*argv, "--snapshot", "Apr 2023"]
    else:  # a template table without P54: its rows become unsupported
        table = load_templates()
        table = {"l1": [tpl._asdict() for tpl in table.l1],
                 "relations": {code: rel._asdict() for code, rel in table.relations.items() if code != "P54"}}
        Path("t.json").write_text(json.dumps(table), encoding="utf-8")
        argv = [*argv, "--templates", "t.json"]
    stale, cold = stale_runs(capsys, argv, outputs, ingests)
    assert stale == cold
    if change == "one-byte":  # counts only: stats shows no object
        assert load_fact_file("facts.jsonl").facts[0].object == "Role P39-0-X"
    else:
        assert cold != first


def corrupt(text: str, how: str) -> str:
    """The cache ``text`` with one defect. A fact cache is a header line, its
    meta ingest's report, then one line per block of facts: the columns
    subject, subject_id, relation, object, object_id, start, end."""
    header, *blocks = text.splitlines()
    header, block = json.loads(header), json.loads(blocks[0])
    if how == "truncated":
        return text[:len(text) // 2]
    if how == "not-json":
        return "\x00 not json"
    if how == "not-an-object":  # the header
        header = [header]
    elif how == "string-month":
        block[5][0] = str(block[5][0])
    elif how == "bool-month":
        block[6][0] = True
    elif how == "year-zero":
        block[5][0] = 3  # Apr of year 0
    elif how == "end-before-start":
        block[5][0] = block[6][0] + 1
    elif how == "short-row":  # a column one fact short
        block[1] = block[1][:-1]
    elif how == "long-row":  # a column one fact long
        block[6].append(block[6][0])
    elif how == "number-text":
        block[3][2] = 7
    elif how == "string-row":  # a block that is not a list of columns
        block[2] = "abcdefg"
    elif how == "string-diagnostic":
        header["meta"]["diagnostics"][0][0] = "32"
    elif how == "missing-field":
        del header["meta"]["duplicates_dropped"]
    elif how == "foreign-key":
        header["key"] = "0" * len(header["key"])
    elif how == "wrong-count":
        header["records"] += 1
    return "\n".join([json.dumps(header), json.dumps(block), *blocks[1:]]) + "\n"


CORRUPTIONS = ["truncated", "not-json", "not-an-object", "string-month", "bool-month", "year-zero",
               "end-before-start", "short-row", "long-row", "number-text", "string-row", "string-diagnostic",
               "missing-field", "foreign-key", "wrong-count"]


@pytest.mark.parametrize("how", [*CORRUPTIONS, "directory"])
def test_a_bad_cache_gives_the_cold_result(workdir, capsys, ingests, how):
    argv, outputs = COMMANDS["gen-l2"]
    cold = capture(capsys, argv, outputs)
    cache = cache_of("facts.jsonl")
    if how == "directory":
        cache.unlink()
        cache.mkdir()
    else:
        cache.write_text(corrupt(cache.read_text(encoding="utf-8"), how), encoding="utf-8")
    assert capture(capsys, argv, outputs) == cold
    assert len(ingests) == 2
    if how == "directory":  # nothing can be written there: every load ingests, and succeeds
        assert cache.is_dir()
        assert [p.name for p in workdir.iterdir() if p.name.startswith("facts.jsonl.")] == [cache.name]
        assert capture(capsys, argv, outputs) == cold
        assert len(ingests) == 3
    else:  # replaced by a good cache
        assert capture(capsys, argv, outputs) == cold
        assert len(ingests) == 2


def feed_fifo(fifo: str, data: bytes, deadline: float) -> None:
    """Write ``data`` to ``fifo`` once its reader has opened it."""
    while True:
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            break
        except OSError as exc:
            if exc.errno != errno.ENXIO or time.monotonic() > deadline:  # ENXIO: no reader yet
                raise
            time.sleep(0.01)
    try:
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
    finally:
        os.close(fd)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_is_read_once_and_gets_no_cache(tmp_path):
    data = ("\n".join(defect_lines()) + "\n").encode("utf-8")
    (tmp_path / "facts.jsonl").write_bytes(data)
    os.mkfifo(tmp_path / "facts.fifo")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("CHRONOQA_SEED", None)
    results = {}
    for name in ("facts.jsonl", "facts.fifo"):
        child = subprocess.Popen([sys.executable, "-m", "chronoqa", "gen-l2", "--facts", name, "--out-dir", "out"],
                                 cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            if name == "facts.fifo":
                feed_fifo(str(tmp_path / name), data, time.monotonic() + 60)
            out, err = child.communicate(timeout=60)  # a second open of the FIFO would wait forever
        finally:
            child.kill()
            child.wait()
        lines_written = (tmp_path / "out" / "l2_train.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        results[name] = (child.returncode, out.decode(), err.decode().replace(name, "FACTS"), lines_written)
    assert results["facts.fifo"] == results["facts.jsonl"]
    assert results["facts.fifo"][0] == 0 and results["facts.fifo"][3]
    assert cache_of(tmp_path / "facts.jsonl").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts.fifo", "facts.jsonl", f"facts.jsonl{SUFFIX}", "out"]


def test_a_copied_fact_file_with_its_cache_hits(fact_file, tmp_path, ingests):
    """The key is the content, not the path."""
    cold = load_fact_file(str(fact_file))
    other = tmp_path / "copy"
    other.mkdir()
    shutil.copy(fact_file, other / "kb.jsonl")
    shutil.copy(cache_of(fact_file), cache_of(other / "kb.jsonl"))
    assert_same_store(load_fact_file(str(other / "kb.jsonl")), cold)
    assert len(ingests) == 1


@pytest.fixture
def two_bad_lines(tmp_path, monkeypatch) -> list[bytes]:
    """``f.jsonl``: a fact file with a bad row on line 2 and a line that is
    not UTF-8 on line 5; returns its other lines."""
    monkeypatch.chdir(tmp_path)
    good = [json.dumps(row).encode() for row in synth_rows(1, relation="P39", facts_per_subject=(3, 3), seed=5)]
    Path("f.jsonl").write_bytes(b"\n".join([good[0], b'{"subject": "x"}', good[1], good[2], b"\xfc"]) + b"\n")
    return good


def test_a_line_that_is_not_utf8_is_skipped_with_a_warning(two_bad_lines, capsys, ingests):
    """Like any other bad line, cold and warm alike."""
    argv = ["gen-l2", "--facts", "f.jsonl", "--out-dir", "out"]
    runs = [capture(capsys, argv, ["out/l2_train.jsonl"]) for _ in range(2)]
    assert len(ingests) == 1
    assert runs[1] == runs[0]
    code, _, err, written = runs[0]
    assert (code, err) == (0, "warning: f.jsonl: line 2: missing or empty field 'subject_id'\n"
                              "warning: f.jsonl: line 5: invalid UTF-8: invalid start byte "
                              "(byte 0xfc at byte 1 of the line)\n")
    Path("f.jsonl").write_bytes(b"\n".join(two_bad_lines) + b"\n")
    assert main(argv) == 0
    assert Path("out/l2_train.jsonl").read_bytes() == written["out/l2_train.jsonl"]


@pytest.mark.parametrize("kind", UNDECODABLE)
def test_an_undecodable_line_is_skipped_with_a_warning(tmp_path, monkeypatch, capsys, ingests, kind):
    """Like any other bad line, cold and warm alike: a deep nest exited 3,
    and an over-long integer exited 2 naming no line."""
    monkeypatch.chdir(tmp_path)
    line, message = UNDECODABLE[kind]
    good = [json.dumps(row) for row in synth_rows(2, relation="P39", facts_per_subject=(3, 3), seed=5)]
    Path("f.jsonl").write_text("\n".join([good[0], line, *good[1:]]) + "\n", encoding="utf-8")
    argv = ["gen-l2", "--facts", "f.jsonl", "--out-dir", "out"]
    runs = [capture(capsys, argv, ["out/l2_train.jsonl"]) for _ in range(2)]
    assert len(ingests) == 1
    assert runs[1] == runs[0]
    code, _, err, written = runs[0]
    assert code == 0 and err.startswith(f"warning: f.jsonl: line 2: invalid JSON: {message}")
    assert err.count("\n") == 1
    Path("f.jsonl").write_text("\n".join(good) + "\n", encoding="utf-8")
    assert main(argv) == 0
    assert Path("out/l2_train.jsonl").read_bytes() == written["out/l2_train.jsonl"]


def test_strict_names_its_first_bad_row_from_the_cache_it_wrote(two_bad_lines, capsys, ingests):
    """Under --strict the first bad row, in line order, is named before the
    line that is not UTF-8 further on; the cold run writes the cache a run
    without --strict writes, and the warm run fails from it."""
    argv = ["gen-l2", "--facts", "f.jsonl", "--out-dir", "out", "--strict"]
    error = "chronoqa: error [E_DATA] f.jsonl:2: missing or empty field 'subject_id'\n"
    assert (main(argv), capsys.readouterr().err) == (2, error)
    assert len(ingests) == 1 and cache_of("f.jsonl").is_file()
    assert (main(argv), capsys.readouterr().err) == (2, error)
    assert len(ingests) == 1  # the error came from the cache
