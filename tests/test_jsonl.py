"""The JSONL file boundary: the line-1 header rule and atomic writes."""

import os

import pytest

from chronoqa.jsonl import read_jsonl, write_jsonl


@pytest.mark.parametrize("bad_line, message", [
    ('{"_meta": {"seed": 2}}', "a _meta header is only allowed on line 1"),
    ("[1]", "expected a JSON object, got list"),
], ids=["mid-file-meta", "non-object"])
def test_bad_line_is_named_by_path_and_line(tmp_path, bad_line, message):
    path = tmp_path / "data.jsonl"
    path.write_text(f'{{"_meta": {{"seed": 1}}}}\n{{"a": 1}}\n\n{bad_line}\n', encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_jsonl(str(path))
    assert str(excinfo.value) == f"{path}:4: {message}"


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
