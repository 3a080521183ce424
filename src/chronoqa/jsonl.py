"""JSONL reading and writing with an optional provenance header.

Every line holds one JSON object. Artifact files start with a single
``{"_meta": {...}}`` line carrying the tool version, seed, and config hash of
the run that produced them; it is legal on line 1 only. Writes are atomic.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, TypeVar

META_KEY = "_meta"
_BLOCK_LINES = 1024

# One decoder for every line. ``raw_decode`` skips the two whitespace scans
# ``json.loads`` makes around the value, which a stripped line does not need;
# ``read_rows`` keeps the two checks ``json.loads`` adds (trailing data, a
# leading byte-order mark) with their messages.
_decode = json.JSONDecoder().raw_decode

T = TypeVar("T")


# One encoder for every line and header: ``json.dumps`` with any non-default
# argument builds a new ``JSONEncoder`` per call.
dumps = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode

# The string escaper ``dumps`` uses, quotes included. A line built from it in
# sorted key order has the bytes ``dumps`` writes, without the key sort and
# encoder set-up ``dumps`` repeats per call.
quote = json.encoder.encode_basestring


@contextmanager
def _replacing(path: str) -> Iterator[IO[str]]:
    """A handle on a temp file that replaces ``path`` only if the block completes."""
    temp = f"{path}.{os.getpid()}.tmp"
    handle = open(temp, "w", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def write_jsonl(path: str, records: Iterable[T], meta: dict | None = None,
                encode: Callable[[T], str] = dumps) -> int:
    """Write records (plus an optional meta header), one ``encode(record)``
    line each; returns the record count. ``encode`` must write what ``dumps``
    would: the header always goes through ``dumps``."""
    count = 0
    lines = map(encode, records)
    with _replacing(path) as handle:
        if meta is not None:
            handle.write(dumps({META_KEY: meta}) + "\n")
        # One write call per block of lines, not one per line; the bytes are the same.
        while block := list(islice(lines, _BLOCK_LINES)):
            count += len(block)
            block.append("")  # the last line's newline
            handle.write("\n".join(block))
    return count


def write_json(path: str, payload: dict) -> None:
    """Write one indented JSON document (a report)."""
    with _replacing(path) as handle:
        handle.write(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def read_rows(path: str) -> Iterator[tuple[int, dict | ValueError]]:
    """Yield ``(line_no, row)`` for each non-blank line as it is read; a
    valid line-1 ``_meta`` header comes first, as ``(0, meta)``.

    ``row`` is the decoded object, or a ValueError for invalid JSON, a value
    that is not an object, a ``_meta`` header anywhere but line 1, or a
    line-1 header whose value is not an object or whose ``render_version``
    is not a string. Bytes that are not UTF-8 raise a ValueError naming the
    first line that holds them. Text is decoded in chunks ahead of the lines
    yielded, so that error may come before a bad line that precedes it.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    row, end = _decode(text)
                    if end != len(text):
                        raise json.JSONDecodeError("Extra data", text, end)
                except json.JSONDecodeError as exc:
                    detail = ("Unexpected UTF-8 BOM (decode using utf-8-sig)" if text[0] == "\ufeff"
                              else exc.msg)
                    row = ValueError(f"invalid JSON: {detail}")
                else:
                    if not isinstance(row, dict):
                        row = ValueError(f"expected a JSON object, got {type(row).__name__}")
                    elif len(row) == 1 and META_KEY in row:
                        if line_no != 1:
                            row = ValueError(f"a {META_KEY} header is only allowed on line 1")
                        elif not isinstance(row[META_KEY], dict):
                            row = ValueError(f"the {META_KEY} header must be an object, "
                                             f"got {type(row[META_KEY]).__name__}")
                        elif not isinstance(row[META_KEY].get("render_version", ""), str):
                            row = ValueError(f"{META_KEY}.render_version must be a string")
                        else:
                            line_no, row = 0, row[META_KEY]
                yield line_no, row
        except UnicodeDecodeError as exc:
            raise _utf8_error(path, exc) from None


def _utf8_error(path: str, error: UnicodeDecodeError) -> ValueError:
    """``path:line`` of the first line that is not UTF-8, numbered as
    text-mode reading numbers lines; ``error`` itself if none is left."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()  # at \n, \r and \r\n, as text mode splits
    for line_no, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ValueError(f"{path}:{line_no}: invalid UTF-8: {exc.reason} "
                              f"(byte 0x{line[exc.start]:02x} at byte {exc.start + 1} of the line)")
    return error  # the file changed after the first read


def load_jsonl(path: str, parse: Callable[[dict], T]) -> tuple[dict | None, list[T]]:
    """Read (meta, items) with ``parse`` applied to every record; the first
    bad line or record raises a ValueError that starts with ``path:line``."""
    meta, items = None, []
    for line_no, row in read_rows(path):
        if not line_no:
            meta = row
            continue
        try:
            if isinstance(row, ValueError):
                raise row
            items.append(parse(row))
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValueError(f"{path}:{line_no}: {detail}") from exc
    return meta, items


def read_jsonl(path: str) -> tuple[dict | None, list[dict]]:
    """Read (meta, records), raising ``path:line`` on the first bad line."""
    return load_jsonl(path, lambda record: record)
