"""JSONL reading and writing with an optional provenance header, and the
input cache that keeps what loading a file produced beside it.

Every line holds one JSON object. Artifact files start with a single
``{"_meta": {...}}`` line carrying the tool version, seed, and config hash of
the run that produced them; it is legal on line 1 only. Writes are atomic.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import closing, contextmanager
from functools import partial
from itertools import accumulate, islice
from stat import S_ISREG
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar

try:  # CPython's own BLAKE2; hashlib would load OpenSSL as well
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

META_KEY = "_meta"
_BLOCK_LINES = 1024

# One decoder for every line. ``raw_decode`` skips the two whitespace scans
# ``json.loads`` makes around the value, which a stripped line does not need;
# ``read_rows`` keeps the two checks ``json.loads`` adds (trailing data, a
# leading byte-order mark) with their messages.
_decode = json.JSONDecoder().raw_decode

# How deep a line may nest its arrays and objects: far above any record's
# depth, far below the recursion limit the decoder shares with its caller, so
# a deeper line reads the same from any stack. Only a line with more ``[``
# and ``{`` than that is scanned, by these tokens: a string, or one bracket.
_MAX_DEPTH = 100
_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1}

T = TypeVar("T")


# One encoder for every line and header: ``json.dumps`` with any non-default
# argument builds a new ``JSONEncoder`` per call.
dumps = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode

# The string escaper ``dumps`` uses, quotes included. A line built from it in
# sorted key order has the bytes ``dumps`` writes, without the key sort and
# encoder set-up ``dumps`` repeats per call.
quote = json.encoder.encode_basestring

# Input caches are ASCII, so a lone surrogate in a record survives them.
_cache_dumps = json.JSONEncoder(separators=(",", ":")).encode


@contextmanager
def replacing(path: str) -> Iterator[IO[str]]:
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
    with replacing(path) as handle:
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
    with replacing(path) as handle:
        handle.write(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def read_rows(path: str) -> Iterator[tuple[int, dict | ValueError]]:
    """Yield ``(line_no, row)`` for each non-blank line as it is read; a
    valid line-1 ``_meta`` header comes first, as ``(0, meta)``.

    ``row`` is the decoded object, or a ValueError for invalid JSON, a value
    that is not an object, a ``_meta`` header anywhere but line 1, or a
    line-1 header whose value is not an object or whose ``render_version``
    is not a string, or a line that is not UTF-8. Any file, a named pipe
    too, is read once, as a stream."""
    return _rows(open(path, "rb"))


def _rows(stream: IO[bytes]) -> Iterator[tuple[int, dict | ValueError]]:
    # Bytes that are not UTF-8 decode to lone surrogates, which text decoded
    # from UTF-8 never holds; only a line that is not ASCII can hold one.
    with io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    yield line_no, _utf8_error(line.rstrip("\n"))
                    continue
            text = line.strip()
            if not text:
                continue
            try:
                if text.count("[") + text.count("{") > _MAX_DEPTH and max(accumulate(
                        _NESTING.get(token, 0) for token in _TOKENS.findall(text))) > _MAX_DEPTH:
                    raise ValueError(f"nested deeper than {_MAX_DEPTH} levels")
                row, end = _decode(text)
                if end != len(text):
                    raise json.JSONDecodeError("Extra data", text, end)
            except (ValueError, RecursionError) as exc:  # an over-long integer or too deep a nest is invalid too
                detail = ("Unexpected UTF-8 BOM (decode using utf-8-sig)" if text[0] == "\ufeff"
                          else getattr(exc, "msg", exc))
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


def _utf8_error(line: str) -> ValueError:
    """The error for ``line``, whose bytes that are not UTF-8 were decoded to lone surrogates."""
    data = line.encode("utf-8", "surrogateescape")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ValueError(f"invalid UTF-8: {exc.reason} "
                          f"(byte 0x{data[exc.start]:02x} at byte {exc.start + 1} of the line)")


def _records(path: str, rows: Iterable[tuple[int, dict | ValueError]],
             parse: Callable[[dict], T]) -> tuple[dict | None, list[T]]:
    meta, items = None, []
    for line_no, row in rows:
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


def load_jsonl(path: str, parse: Callable[[dict], T],
               columns: Columns | None = None) -> tuple[dict | None, list[T]]:
    """Read (meta, items) with ``parse`` applied to every record; the first
    bad line or record raises a ValueError that starts with ``path:line``.

    With ``columns``, the codec of ``parse``'s record type, the result is
    also kept in the input cache beside a regular file (:func:`load_cached`):
    a later load of the same bytes rebuilds the items from it, calling
    ``parse`` on no record."""
    if columns is None:
        with closing(read_rows(path)) as rows:  # closes the file when a record fails too
            return _records(path, rows, parse)
    return load_cached(path, columns.name, partial(_records, path, parse=parse), columns)


def read_jsonl(path: str) -> tuple[dict | None, list[dict]]:
    """Read (meta, records), raising ``path:line`` on the first bad line."""
    return load_jsonl(path, lambda record: record)


# ---------------------------------------------------------------------------
# input caches: what loading a file produced, kept beside it

CACHE_SUFFIX = ".chronoqa-cache"


def load_cached(path: str, salt: str, decode: Callable[[Iterator[tuple[int, dict | ValueError]]], tuple],
                codec: Columns) -> tuple:
    """``decode(read_rows(path))``, a ``(meta, items)`` pair, kept in
    ``<path>.chronoqa-cache`` in the layout of ``codec`` (:class:`Columns`).

    The key is a BLAKE2b digest of ``salt``, ASCII text naming every other
    input of the result (the codec's name first), and of the file's bytes,
    hashed as they stream. A cache under the key whose header, meta and
    blocks all pass the codec's checks gives the result; any other is a
    miss. On a miss the file is decoded and a new cache written, renamed
    into place; a failed write is not an error. A file ``decode`` raises
    for (a bad question line; a fact file's bad lines are in its result)
    writes no cache, and one that is not a regular file (a named pipe, a
    device) is streamed once, as :func:`read_rows` reads it, and gets none."""
    with open(path, "rb") as handle:
        if not S_ISREG(os.fstat(handle.fileno()).st_mode):
            return decode(_rows(handle))
        cache = f"{os.fspath(path)}{CACHE_SUFFIX}"
        try:
            cached = open(cache, encoding="utf-8")
        except OSError:  # none yet, or a directory there
            pass
        else:
            with cached:
                digest = blake2b(salt.encode("ascii") + b"\n", digest_size=20)
                for block in iter(partial(handle.read, 1 << 20), b""):
                    digest.update(block)
                try:
                    return _read_columns(codec, cached, digest.hexdigest())
                except (OSError, ValueError, TypeError, KeyError, RecursionError):  # a miss
                    pass
            handle.seek(0)
        # hashed as it is decoded, so the key is that of the bytes decoded
        digest = blake2b(salt.encode("ascii") + b"\n", digest_size=20)
        result = decode(_rows(_Hashing(handle, digest.update)))
    try:
        with replacing(cache) as out:  # opened first, so an unwritable place costs no encoding
            meta, items = result
            out.write(_cache_dumps({"key": digest.hexdigest(), "meta": meta, "records": len(items)}) + "\n")
            for start in range(0, len(items), _BLOCK_LINES):
                out.write(_cache_dumps([*zip(*items[start:start + _BLOCK_LINES])]) + "\n")
    except OSError:
        pass
    return result


class _Hashing(io.BufferedIOBase):
    """A binary handle, read through ``read1``, that passes every byte read to ``update``."""

    def __init__(self, handle: IO[bytes], update: Callable[[bytes], object]) -> None:
        super().__init__()
        self._handle, self._update = handle, update

    def readable(self) -> bool:
        return True

    def read1(self, size: int = -1) -> bytes:
        data = self._handle.read1(size)
        self._update(data)
        return data


def _file_meta(meta: object) -> bool:
    """Whether ``meta`` is a file's ``_meta`` header as :func:`read_rows` gives it, or None."""
    return meta is None or type(meta) is dict and type(meta.get("render_version", "")) is str


class Columns(NamedTuple):
    """A record type's codec for the input cache of a JSONL file of its
    records, one layout for every type: ASCII JSON lines, a header
    ``{"key", "meta", "records"}`` and then blocks of up to 1,024 records,
    each block one array of columns: the records' fields, transposed.

    ``build`` gives a block back from its columns, and raises unless
    every record in it is one ``parse`` accepts, as ``parse`` would give
    it; ``meta``, likewise, whether the header's ``meta`` has the shape the
    decode gives (by default, a file's ``_meta`` header or None)."""

    name: str  # the record type and its cache format: first in the key's salt
    build: Callable[[list], list]
    meta: Callable[[object], bool] = _file_meta


def _read_columns(codec: Columns, handle: IO[str], key: str) -> tuple:
    """The cached ``(meta, items)``; raises unless the cache is whole, under ``key``, and passes ``codec``."""
    header = json.loads(handle.readline())
    meta, items = header["meta"], []
    if header["key"] != key or not codec.meta(meta):
        raise ValueError("another input's cache, or another codec's")
    for line in handle:  # a block at a time
        block = json.loads(line)
        if type(block) is not list or {*map(type, block)} != {list}:
            raise ValueError("a block is not an array of columns")
        items += codec.build(block)
    if len(items) != header["records"]:
        raise ValueError("records missing from the cache")
    return meta, items
