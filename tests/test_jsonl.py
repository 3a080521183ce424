"""The JSONL file boundary: the line-1 header rule and atomic writes."""

import gc
import json
import os

import pytest

from chronoqa.jsonl import dumps, read_jsonl, read_rows, write_jsonl

# A file a test leaves open fails that test (pyproject.toml makes the
# warnings errors): the collection after it closes the file, which warns,
# and the warning, raised where it cannot propagate, is an error.
@pytest.fixture(autouse=True)
def collected():
    yield
    gc.collect()


@pytest.mark.parametrize("bad_line, message", [
    ('{"_meta": {"seed": 2}}', "a _meta header is only allowed on line 1"),
    ("[1]", "expected a JSON object, got list"),
    ('\ufeff{"a": 1}', "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ('{"a": 1} {"b": 2}', "invalid JSON: Extra data"),
    ('{"a": 1', "invalid JSON: Expecting ',' delimiter"),
    ("nul", "invalid JSON: Expecting value"),
], ids=["mid-file-meta", "non-object", "bom", "extra-data", "unterminated", "bad-literal"])
def test_bad_line_is_named_by_path_and_line(tmp_path, bad_line, message):
    path = tmp_path / "data.jsonl"
    path.write_text(f'{{"_meta": {{"seed": 1}}}}\n{{"a": 1}}\n\n{bad_line}\n', encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_jsonl(str(path))
    assert str(excinfo.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("meta, message", [
    (5, "the _meta header must be an object, got int"),
    (None, "the _meta header must be an object, got NoneType"),
    ({"render_version": 1}, "_meta.render_version must be a string"),
], ids=["number", "null", "number-render_version"])
def test_bad_line_one_header_is_a_bad_line(tmp_path, meta, message):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"_meta": meta}) + '\n{"a": 1}\n', encoding="utf-8")
    rows = list(read_rows(str(path)))
    assert [line_no for line_no, _ in rows] == [1, 2] and str(rows[0][1]) == message
    with pytest.raises(ValueError) as excinfo:
        read_jsonl(str(path))
    assert str(excinfo.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("data, line_no, reason", [
    (b'{"a": 1}\r{"b": 2}\r\n\n{"c": "\xe9"}\n', 4, "invalid continuation byte (byte 0xe9 at byte 8"),
    (b'{"a": 1}\n\xff\n', 2, "invalid start byte (byte 0xff at byte 1"),
    (b'{"a": 1}\n{"b": "\xe2\x82', 2, "unexpected end of data (byte 0xe2 at byte 8"),
], ids=["after-cr-and-crlf", "invalid-start", "truncated-at-end"])
def test_invalid_utf8_is_named_by_path_and_line(tmp_path, data, line_no, reason):
    path = tmp_path / "data.jsonl"
    path.write_bytes(data)
    row = dict(read_rows(str(path)))[line_no]
    assert isinstance(row, ValueError) and str(row) == f"invalid UTF-8: {reason} of the line)"
    with pytest.raises(ValueError) as excinfo:
        read_jsonl(str(path))
    assert str(excinfo.value) == f"{path}:{line_no}: invalid UTF-8: {reason} of the line)"


def test_rows_before_a_line_that_is_not_utf8_come_first(tmp_path):
    # Text was decoded about 8 KB ahead of the rows, so the decode error came
    # before any of them. The rows after the line follow it.
    path = tmp_path / "data.jsonl"
    path.write_bytes('{"a": "caf\u00e9 \U0001f600"}\n[1]\n'.encode("utf-8") + b'{"b": "\xfc"}\n{"c": 1}\n')
    rows = [(line_no, str(row) if isinstance(row, ValueError) else row) for line_no, row in read_rows(str(path))]
    assert rows == [(1, {"a": "caf\u00e9 \U0001f600"}), (2, "expected a JSON object, got list"),
                    (3, "invalid UTF-8: invalid start byte (byte 0xfc at byte 8 of the line)"), (4, {"c": 1})]


def test_line_one_header_comes_first_as_line_zero(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"_meta": {"seed": 1}}\n\n{"a": 1}\n', encoding="utf-8")
    assert list(read_rows(str(path))) == [(0, {"seed": 1}), (3, {"a": 1})]


def _rows_from_deeper(path, frames: int) -> list:
    """``read_rows(path)``, called ``frames`` stack frames deeper, with each bad line's message."""
    if frames:
        return _rows_from_deeper(path, frames - 1)
    return [(line_no, str(row) if isinstance(row, ValueError) else row) for line_no, row in read_rows(str(path))]


def test_a_line_nested_too_deep_reads_the_same_from_any_stack(tmp_path):
    # The 900-deep line read "expected a JSON object, got list" from a shallow
    # stack, but "invalid JSON: maximum recursion depth exceeded ..." from a deep one.
    lines = ["[" * 900 + "]" * 900, '{"a": ' + "[" * 100 + "]" * 100 + "}", '{"b": ' + "[" * 99 + "]" * 99 + "}",
             '{"c": "' + "[{" * 200 + '"}', '{"d": "\\"' + "[" * 200 + '", "e": [1]}']
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    too_deep = "invalid JSON: nested deeper than 100 levels"
    expected = [(1, too_deep), (2, too_deep), (3, json.loads(lines[2])), (4, {"c": "[{" * 200}),
                (5, {"d": '"' + "[" * 200, "e": [1]})]
    assert _rows_from_deeper(path, 0) == expected
    assert _rows_from_deeper(path, 600) == expected


def test_rows_decode_as_json_loads_does(tmp_path):
    lines = ['{"a": [1, 2.5e3, -0, null, true], "b": {"c": "\\u00e9\\n"}}', '\t{"d": "x"}  ',
             ' {"e": 1}\u3000', '{"f": NaN, "g": Infinity}', "{}\x0b", '{"h": "\\ud800"}',
             '{"i": 1}x', '{"j": 1}, ', '"text"', "[]", "1 2", '{"k": 1', "{'k': 1}", "\ufeff{}"]
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = list(read_rows(str(path)))
    assert [line_no for line_no, _ in rows] == list(range(1, len(lines) + 1))
    for line, (_, row) in zip(lines, rows):
        try:
            expected = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            assert str(row) == f"invalid JSON: {exc.msg}"
            continue
        if isinstance(expected, dict):
            assert json.dumps(row) == json.dumps(expected)  # compared as text, since NaN != NaN
        else:
            assert str(row) == f"expected a JSON object, got {type(expected).__name__}"


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(str(path), [{"a": 1}], {"seed": 1})
    before = path.read_bytes()

    def records():
        yield {"a": 2}
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError):
        write_jsonl(str(path), records(), {"seed": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.jsonl"]


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_lines_are_written_in_blocks_as_one_per_record(tmp_path, count):
    # Lines go out 1,024 at a time; the counts straddle the block edges.
    path = tmp_path / "out.jsonl"
    records = [{"i": i, "text": f"r\u00e9cord {i}"} for i in range(count)]
    assert write_jsonl(str(path), iter(records), {"seed": 3}) == count
    expected = "".join(dumps(row) + "\n" for row in [{"_meta": {"seed": 3}}, *records])
    assert path.read_bytes() == expected.encode("utf-8")


def test_unencodable_record_leaves_no_file(tmp_path):
    # A lone surrogate cannot be written as UTF-8; it sits in the second block.
    path = tmp_path / "out.jsonl"
    records = [{"i": i} for i in range(2049)]
    records[1500] = {"i": "\ud800"}
    with pytest.raises(UnicodeEncodeError):
        write_jsonl(str(path), records, {"seed": 3})
    assert os.listdir(tmp_path) == []
