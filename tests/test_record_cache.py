"""The input cache of question and prediction files: a load that finds its
own cache gives the records, and every run the same output, that decoding
the file gives, with no ``from_record`` call; any other cache, or none,
gives the result of decoding."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from chronoqa.cli import main
from chronoqa.jsonl import load_jsonl
from chronoqa.records import QUESTION_COLUMNS, Question
from chronoqa.scoring import PREDICTION_COLUMNS, Prediction
from chronoqa.timeline import TimePoint, month_index, parse_month

from conftest import ESCAPES, synth_rows, write_facts
from test_questions import _MISSING, _MUTATIONS

SRC = str(Path(__file__).resolve().parent.parent / "src")
SUFFIX = ".chronoqa-cache"


def cache_of(path) -> Path:
    return Path(f"{path}{SUFFIX}")


def escaped_rows() -> list[dict]:
    """Facts whose subjects and objects hold every escape class but the
    lone surrogate, which no question file can be written with."""
    rows = synth_rows(4, relation="P39", facts_per_subject=(3, 5), seed=61, allow_overlap=True)
    text = ESCAPES.replace("\ud800", "")
    for row in rows:
        row["subject"] += f" {text}"
        row["object"] += f" {text}"
    return rows


def hand_written_lines() -> list[str]:
    """Records no generator writes: lone surrogates (valid JSON escapes),
    null fields, bare years, empty negatives, an extra key."""
    base = {"id": "h1", "level": "L2", "relation": "P39", "subject": "Ada \ud800", "subject_id": "Q1",
            "template_id": "t", "question": "Who \udfff?", "answers": ["A \ud83d", "B"], "negatives": ["C"],
            "t_ref": "2019", "neighbor_object": None, "split": "dev"}
    return [
        json.dumps({"_meta": {"render_version": "1.t1", "seed": 3}}),
        json.dumps(base),
        json.dumps(dict(base, id="h2", level="L1", relation=None, subject=None, subject_id=None, t_ref=None,
                        negatives=[])),
        json.dumps(dict(base, id="h3", level="L3", t_ref="Dec 0001", neighbor_object="N", extra=1)),
        json.dumps(dict(base, id="h4", t_ref="Jul 2040", answers=["x"] * 3)),
    ]


@pytest.fixture(scope="module")
def question_files(tmp_path_factory) -> dict[str, Path]:
    """L1, L2 and L3 question files, escape-heavy L2/L3 ones, a hand-written
    one, and a prediction file, with no caches beside them."""
    work = tmp_path_factory.mktemp("questions")
    write_facts(work / "facts.jsonl", synth_rows(6, relation="P54", facts_per_subject=(3, 6), seed=60))
    write_facts(work / "escaped.jsonl", escaped_rows())
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main(["gen-l1", "--count", "1500", "--dev-count", "20", "--out-dir", "."]) == 0
        for level in ("l2", "l3"):
            assert main([f"gen-{level}", "--facts", "facts.jsonl", "--out-dir", "."]) == 0
            assert main([f"gen-{level}", "--facts", "escaped.jsonl", "--out-dir", "escaped"]) == 0
        assert main(["solve", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl",
                     "--out", "preds.jsonl"]) == 0
    finally:
        os.chdir(cwd)
    (work / "hand.jsonl").write_text("\n".join(hand_written_lines()) + "\n", encoding="utf-8")
    for cache in work.rglob(f"*{SUFFIX}"):
        cache.unlink()
    return {"l1": work / "l1_train.jsonl", "l2": work / "l2_train.jsonl", "l3": work / "l3_train.jsonl",
            "l2-escaped": work / "escaped" / "l2_train.jsonl", "l3-escaped": work / "escaped" / "l3_train.jsonl",
            "hand": work / "hand.jsonl", "predictions": work / "preds.jsonl"}


class Counted:
    """A ``from_record`` that counts its calls."""

    def __init__(self, parse):
        self.parse, self.calls = parse, 0

    def __call__(self, record):
        self.calls += 1
        return self.parse(record)


CODECS = {"questions": (Question.from_record, QUESTION_COLUMNS),
          "predictions": (Prediction.from_record, PREDICTION_COLUMNS)}


def load(path, kind="questions") -> tuple[tuple, int]:
    """The load's result and the number of ``from_record`` calls it made."""
    parse, columns = CODECS[kind]
    counted = Counted(parse)
    return load_jsonl(str(path), counted, columns), counted.calls


def assert_same_records(warm, cold) -> None:
    assert warm == cold
    for item in [*warm[1], *cold[1]]:
        assert type(item) is type(cold[1][0])
        if type(item) is Question:
            assert type(item.answers) is type(item.negatives) is tuple
            assert item.t_ref is None or type(item.t_ref) is int
            item = item._replace(t_ref=None)  # the one field that is not text
        assert {type(value) for value in item if not isinstance(value, tuple)} <= {str, type(None)}


@pytest.fixture
def copy_of(question_files, tmp_path):
    """A fresh copy of one of the files, with no cache."""
    def copy(name):
        target = tmp_path / question_files[name].name
        target.write_bytes(question_files[name].read_bytes())
        return target
    return copy


@pytest.mark.parametrize("name", ["l1", "l2", "l3", "l2-escaped", "l3-escaped", "hand", "predictions"])
def test_a_warm_load_gives_the_cold_records_without_from_record(copy_of, name):
    path = copy_of(name)
    kind = "predictions" if name == "predictions" else "questions"
    cold, calls = load(path, kind)
    assert calls == len(cold[1]) > 0 and cache_of(path).is_file()
    warm, calls = load(path, kind)
    assert calls == 0
    assert_same_records(warm, cold)
    assert load(Path(str(path)), kind)[1] == 0  # a Path finds the same cache
    if name == "hand":
        assert cold[0] == {"render_version": "1.t1", "seed": 3}
        months = [TimePoint(2019, 1), None, TimePoint(1, 12), TimePoint(2040, 7)]
        assert [q.t_ref for q in warm[1]] == [month and month_index(month) for month in months]
        assert warm[1][0].subject == "Ada \ud800" and warm[1][0].answers == ("A \ud83d", "B")


def test_blocks_of_records_are_read_back_whole(copy_of):
    """1,520 L1 questions: two blocks, the second one partial."""
    path = copy_of("l1")
    cold, _ = load(path)
    assert len(cold[1]) == 1500 and len(cache_of(path).read_text(encoding="ascii").splitlines()) == 3
    assert load(path) == (cold, 0)


@pytest.fixture
def workdir(question_files, monkeypatch):
    monkeypatch.chdir(question_files["l2"].parent)
    return question_files["l2"].parent


@pytest.fixture
def from_record_calls(monkeypatch):
    """The number of ``Question.from_record`` and ``Prediction.from_record``
    calls so far."""
    calls = []
    for cls in (Question, Prediction):
        original = cls.from_record

        def counted(klass, record, original=original):
            calls.append(1)
            return original(record)

        monkeypatch.setattr(cls, "from_record", classmethod(counted))
    return calls


COMMANDS = {
    "solve": ["solve", "--facts", "facts.jsonl", "--questions", "l3_train.jsonl", "--out", "out.jsonl"],
    "solve-l1": ["solve", "--questions", "l1_train.jsonl", "--out", "out.jsonl"],
    "eval": ["eval", "--questions", "l2_train.jsonl", "--predictions", "preds.jsonl", "--out", "out.json"],
    "reward": ["reward", "--questions", "l2_train.jsonl", "--predictions", "preds.jsonl", "--out", "out.jsonl"],
    "render": ["render", "--facts", "facts.jsonl", "--questions", "l2_train.jsonl", "--setting", "reasonqa",
               "--out", "out.jsonl"],
    "stats": ["stats", "--questions", "l1_train.jsonl", "l3_train.jsonl", "--out", "out.json"],
}


def capture(capsys, argv) -> tuple:
    out_path = Path(argv[argv.index("--out") + 1])
    out_path.unlink(missing_ok=True)
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err, out_path.read_bytes()


@pytest.mark.parametrize("name", COMMANDS)
def test_warm_and_cold_runs_print_and_write_the_same(workdir, capsys, from_record_calls, name):
    for cache in workdir.glob(f"*{SUFFIX}"):
        cache.unlink()
    cold = capture(capsys, COMMANDS[name])
    assert cold[0] == 0 and len(from_record_calls) > 0
    before = len(from_record_calls)
    warm = capture(capsys, COMMANDS[name])
    assert len(from_record_calls) == before  # no record decoded
    assert warm == cold


def corrupt(text: str, how: str) -> str:
    header, *blocks = text.splitlines()
    block = json.loads(blocks[0])
    if how == "truncated":
        return text[:len(text) // 2]
    if how == "last-block-dropped":
        return "\n".join([header, *blocks[:-1]]) + "\n"
    if how == "not-json":
        return "\x00 not json"
    if how == "number-text":
        block[6][0] = 7
    elif how == "string-month":
        block[9][0] = "Jul 2019"
    elif how == "bool-month":
        block[9][0] = True
    elif how == "year-zero":
        block[9][0] = 3  # Apr of year 0
    elif how == "month-zero":
        block[9][0] = 0  # Jan of year 0, a falsy month
    elif how == "month-eleven":
        block[9][0] = 11  # Dec of year 0
    elif how == "unknown-level":
        block[1][0] = "L4"
    elif how == "empty-answers":
        block[7][0] = []
    elif how == "number-answer":
        block[7][0] = [1]
    elif how == "string-answers":
        block[7][0] = "Mayor"
    elif how == "list-subject":
        block[3][0] = ["Ada"]
    elif how == "short-column":
        block[11] = block[11][:-1]
    elif how == "eleven-columns":
        block = block[:11]
    elif how == "thirteen-columns":
        block.append(block[0])
    elif how == "not-columns":
        block = {"columns": block}
    elif how == "foreign-key":
        header = json.dumps(dict(json.loads(header), key="0" * 40))
    elif how == "bad-meta":
        header = json.dumps(dict(json.loads(header), meta={"render_version": 1}))
    elif how == "no-count":
        header = json.dumps({key: value for key, value in json.loads(header).items() if key != "records"})
    return "\n".join([header, json.dumps(block), *blocks[1:]]) + "\n"


CORRUPTIONS = ["truncated", "last-block-dropped", "not-json", "number-text", "string-month", "bool-month",
               "year-zero", "month-zero", "month-eleven", "unknown-level", "empty-answers", "number-answer",
               "string-answers", "list-subject", "short-column", "eleven-columns", "thirteen-columns", "not-columns",
               "foreign-key", "bad-meta", "no-count"]


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_a_bad_cache_is_a_miss_and_is_replaced(copy_of, how):
    path = copy_of("l3")
    cold, _ = load(path)
    cache = cache_of(path)
    cache.write_text(corrupt(cache.read_text(encoding="ascii"), how), encoding="ascii")
    stale, calls = load(path)
    assert calls == len(cold[1])
    assert_same_records(stale, cold)
    assert load(path) == (cold, 0)  # replaced by a good cache


@pytest.mark.parametrize("how", ["number-prediction", "one-column", "foreign-key"])
def test_a_bad_prediction_cache_is_a_miss(copy_of, how):
    path = copy_of("predictions")
    cold, _ = load(path, "predictions")
    cache = cache_of(path)
    header, block, *rest = cache.read_text(encoding="ascii").splitlines()
    columns = json.loads(block)
    if how == "number-prediction":
        columns[1][0] = 7
    elif how == "one-column":
        columns = columns[:1]
    else:
        header = json.dumps(dict(json.loads(header), key="0" * 40))
    cache.write_text("\n".join([header, json.dumps(columns), *rest]) + "\n", encoding="ascii")
    assert load(path, "predictions") == (cold, len(cold[1]))


def cached_value(field: str, value):
    """What a cache holds for a line's ``value``: a month index for a ``t_ref`` that parses as one."""
    if field == "t_ref" and isinstance(value, str):
        try:
            return parse_month(value, 1)
        except ValueError:
            pass
    return value


@pytest.mark.parametrize("name, kind", [("hand", "questions"), ("predictions", "predictions")])
def test_a_cache_with_one_bad_field_misses_or_gives_what_its_line_gives(copy_of, tmp_path, name, kind):
    """Each mutation of one field of the first record, put into its column
    of a cached block (a short column for a missing key): a warm load
    either misses, rebuilding the cache, or gives what a cold load of the
    file with that value on the record's line gives."""
    path = copy_of(name)
    cold, _ = load(path, kind)
    good_cache = cache_of(path).read_text(encoding="ascii")
    header, block, *blocks = good_cache.splitlines()
    lines = path.read_text(encoding="utf-8").splitlines()
    at = 1 if cold[0] is not None else 0  # the first record's line, after a header
    line_file = tmp_path / "line.jsonl"
    parse = CODECS[kind][0]
    for column, field in enumerate(type(cold[1][0])._fields):
        for value in _MUTATIONS:
            columns, record = json.loads(block), json.loads(lines[at])
            if value is _MISSING:
                del columns[column][0], record[field]
            else:
                columns[column][0], record[field] = cached_value(field, value), value
            cache_of(path).write_text("\n".join([header, json.dumps(columns), *blocks]) + "\n", encoding="ascii")
            warm, calls = load(path, kind)
            if calls:  # a miss
                assert warm == cold and cache_of(path).read_text(encoding="ascii") == good_cache
                continue
            line_file.write_text("\n".join([*lines[:at], json.dumps(record), *lines[at + 1:]]) + "\n",
                                 encoding="utf-8")
            try:
                expected = load_jsonl(str(line_file), parse)
            except ValueError as exc:
                pytest.fail(f"a cache holding {field} {value!r} is a hit, but its line fails: {exc}")
            assert_same_records(warm, expected)


def test_one_changed_byte_is_a_miss(copy_of):
    path = copy_of("l2")
    load(path)
    data = path.read_bytes()
    at = data.index(b'"question": "') + len(b'"question": "')
    path.write_bytes(data[:at] + b"X" + data[at + 1:])
    changed, calls = load(path)
    assert calls == len(changed[1]) and changed[1][0].question.startswith("X")
    assert load(path) == (changed, 0)


def test_another_record_types_cache_is_a_miss(copy_of, tmp_path):
    """A file that reads as questions and as predictions: each load misses
    the other type's cache, whose key names its record type."""
    path = tmp_path / "both.jsonl"
    lines = copy_of("l2").read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0], *(json.dumps(dict(json.loads(line), prediction="x"))
                                           for line in lines[1:])]) + "\n", encoding="utf-8")
    questions, calls = load(path, "questions")
    assert calls == len(questions[1])
    question_key = json.loads(cache_of(path).read_text(encoding="ascii").splitlines()[0])["key"]
    predictions, calls = load(path, "predictions")
    assert calls == len(predictions[1]) == len(questions[1])
    assert json.loads(cache_of(path).read_text(encoding="ascii").splitlines()[0])["key"] != question_key
    assert load(path, "questions") == (questions, len(questions[1]))
    assert load(path, "questions") == (questions, 0)


def test_a_fact_files_cache_is_a_miss(copy_of, question_files):
    path = copy_of("l2")
    cold, _ = load(path)
    fact_cache = cache_of(question_files["l2"].parent / "facts.jsonl")
    assert main(["stats", "--facts", str(question_files["l2"].parent / "facts.jsonl")]) == 0
    cache_of(path).write_bytes(fact_cache.read_bytes())
    assert load(path) == (cold, len(cold[1]))


@pytest.mark.parametrize("bad", ["record", "json", "utf-8"])
def test_a_bad_file_fails_alike_warm_or_cold_and_writes_no_cache(workdir, tmp_path, capsys, bad):
    path = tmp_path / "q.jsonl"
    lines = (workdir / "l2_train.jsonl").read_bytes().splitlines()
    argv = ["eval", "--questions", str(path), "--predictions", str(workdir / "preds.jsonl")]
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(argv) == 0 and cache_of(path).is_file()  # a cache of the good file
    good_cache = cache_of(path).read_bytes()
    broken = {"record": json.dumps(dict(json.loads(lines[3]), answers=[])).encode(),
              "json": lines[3][:-1], "utf-8": lines[3].replace(b'"answers"', b'"answers\xfc"')}[bad]
    path.write_bytes(b"\n".join([*lines[:3], broken, *lines[4:]]) + b"\n")
    capsys.readouterr()
    warm = main(argv), capsys.readouterr()
    assert cache_of(path).read_bytes() == good_cache  # left as it was
    cache_of(path).unlink()
    cold = main(argv), capsys.readouterr()
    assert warm == cold
    assert not cache_of(path).exists()
    code, (_, err) = cold
    assert code == 2 and err.startswith(f"chronoqa: error [E_DATA] {path}:4: ")


def run_from_fifo(tmp_path, argv, fifo, data, hold=0.0) -> subprocess.CompletedProcess:
    """Run the command line in a fresh interpreter while a thread writes
    ``data`` to ``fifo`` once, then keeps it open for up to ``hold``
    seconds, until the command exits; an input opened twice would wait
    forever."""
    os.mkfifo(fifo)
    exited = threading.Event()

    def feed():
        with open(fifo, "wb", buffering=0) as handle:
            handle.write(data)
            exited.wait(hold)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("CHRONOQA_SEED", None)
    try:
        return subprocess.run([sys.executable, "-m", "chronoqa", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
    finally:
        exited.set()
        if writer.is_alive():  # the child never opened the FIFO: open its read end to let the writer finish
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(5)


FIFO_INPUTS = {
    "questions": ["solve", "--questions", "in.fifo", "--out", "out.jsonl"],
    "predictions": ["eval", "--questions", "l2_train.jsonl", "--predictions", "in.fifo"],
    "docs": ["mask", "--docs", "in.fifo", "--out", "out.jsonl"],
    "articles": ["render", "--questions", "l2_train.jsonl", "--setting", "obqa", "--articles", "in.fifo",
                 "--out", "out.jsonl"],
}


def good_lines(question_files, kind) -> list[bytes]:
    """Three valid records of the input ``kind`` of :data:`FIFO_INPUTS`."""
    if kind in ("questions", "predictions"):
        return question_files["l1" if kind == "questions" else "predictions"].read_bytes().splitlines()[1:4]
    if kind == "docs":
        return [json.dumps({"doc_id": f"d{i}", "text": "Born in 1990", "spans": [[8, 12, "temporal"]]}).encode()
                for i in range(3)]
    return [json.dumps({"subject_id": f"Q{i}", "text": "An article."}).encode() for i in range(3)]


BAD_UTF8_LINE = b'{"id": "\xfc"}'
BAD_UTF8_ERROR = "invalid UTF-8: invalid start byte (byte 0xfc at byte 9 of the line)"


@pytest.mark.parametrize("kind", FIFO_INPUTS)
def test_the_first_bad_line_is_named_first(question_files, tmp_path, monkeypatch, capsys, kind):
    """A bad record on line 4 comes before bytes that are not UTF-8 on
    line 5: text was decoded about 8 KB ahead of the lines read, and the
    decode error came first."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l2_train.jsonl").write_bytes(question_files["l2"].read_bytes())
    lines = [*good_lines(question_files, kind), b'{"id": "x", "question": "q"}', BAD_UTF8_LINE]
    (tmp_path / "probe.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    argv = ["probe.jsonl" if arg == "in.fifo" else arg for arg in FIFO_INPUTS[kind]]
    assert main(argv) == 2
    missing = {"questions": "level", "predictions": "prediction", "docs": "doc_id", "articles": "text"}[kind]
    assert capsys.readouterr().err == f"chronoqa: error [E_DATA] probe.jsonl:4: missing field '{missing}'\n"
    assert not cache_of(tmp_path / "probe.jsonl").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("kind", FIFO_INPUTS)
def test_a_fifo_that_is_not_utf8_is_named_by_line_and_read_once(question_files, tmp_path, kind):
    """Naming the bad line opened the input a second time, and a FIFO's
    second open waits for a writer that never comes."""
    (tmp_path / "l2_train.jsonl").write_bytes(question_files["l2"].read_bytes())
    lines = [good_lines(question_files, kind)[0], BAD_UTF8_LINE]
    done = run_from_fifo(tmp_path, FIFO_INPUTS[kind], tmp_path / "in.fifo", b"\n".join(lines) + b"\n")
    assert done.returncode == 2
    assert done.stderr == f"chronoqa: error [E_DATA] in.fifo:2: {BAD_UTF8_ERROR}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("kind", FIFO_INPUTS)
def test_a_bad_line_from_a_slow_fifo_is_named_before_its_writer_is_done(question_files, tmp_path, kind):
    """A pipe was read whole before its first line was decoded, so the
    error waited for the writer to close it."""
    (tmp_path / "l2_train.jsonl").write_bytes(question_files["l2"].read_bytes())
    start = time.monotonic()
    done = run_from_fifo(tmp_path, FIFO_INPUTS[kind], tmp_path / "in.fifo", BAD_UTF8_LINE + b"\n", hold=20)
    assert time.monotonic() - start < 10
    assert done.returncode == 2
    assert done.stderr == f"chronoqa: error [E_DATA] in.fifo:1: {BAD_UTF8_ERROR}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("kind", ["questions", "predictions"])
def test_a_fifo_is_read_once_and_gets_no_cache(question_files, tmp_path, kind):
    (tmp_path / "l2_train.jsonl").write_bytes(question_files["l2"].read_bytes())
    source = question_files["l1" if kind == "questions" else "predictions"]
    argv = FIFO_INPUTS[kind]
    fifo_run = run_from_fifo(tmp_path, argv, tmp_path / "in.fifo", source.read_bytes())
    assert fifo_run.returncode == 0, fifo_run.stderr
    assert not list(tmp_path.glob(f"in.fifo*{SUFFIX}"))
    (tmp_path / "in.fifo").unlink()
    (tmp_path / "in.fifo").write_bytes(source.read_bytes())
    file_run = subprocess.run([sys.executable, "-m", "chronoqa", *argv], cwd=tmp_path, capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", "")))
    assert (fifo_run.returncode, fifo_run.stdout, fifo_run.stderr) == \
        (file_run.returncode, file_run.stdout, file_run.stderr)
    assert cache_of(tmp_path / "in.fifo").is_file()
