"""Context rendering for the three evaluation settings, and span masking.

A rendered example pairs a prompt with its gold target. The closed-book
prompt is the bare question; the open-book prompt appends a supplied
article; the structured-facts prompt appends the subject's fact group, one
line per fact, in a seeded random order so consumers cannot learn positional
shortcuts.

Span masking turns an annotated document into an (input, target) pair:
a sampled share of its entity/temporal spans is replaced with sequential
sentinels, and the target lists each sentinel with the original span so the
document is exactly reconstructable.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .jsonl import quote
from .templates import TemplateTable, load_templates
from .timeline import _shuffle, sample

if TYPE_CHECKING:
    from .facts import FactGroup
    from .records import Question

SETTINGS = ("CBQA", "OBQA", "ReasonQA")
SPAN_KINDS = ("entity", "temporal")
DEFAULT_SENTINEL_PATTERN = "<mask_{k}>"


class RenderError(ValueError):
    """A required context (facts or article) was missing or malformed."""


class RenderedExample(NamedTuple):
    id: str
    setting: str
    prompt: str
    target: str


def rendered_line(example: RenderedExample) -> str:
    """``jsonl.dumps(example._asdict())``: the keys in sorted order, each
    string through ``dumps``'s own escaper."""
    example_id, setting, prompt, target = example
    return (f'{{"id": {quote(example_id)}, "prompt": {quote(prompt)}, "setting": {quote(setting)}, '
            f'"target": {quote(target)}}}')


class AnnotatedDocument(NamedTuple):
    """Text with character-offset entity/temporal spans.

    Spans must be in bounds, non-overlapping, and sorted by start offset.
    """

    doc_id: str
    text: str
    spans: tuple[tuple[int, int, str], ...]

    @classmethod
    def from_record(cls, record: Mapping) -> "AnnotatedDocument":
        doc_id, text, spans = record["doc_id"], record["text"], record["spans"]
        if not (isinstance(doc_id, str) and isinstance(text, str) and isinstance(spans, list)):
            raise ValueError("doc_id and text must be strings and spans a list")
        return cls(doc_id, text, tuple((start, end, kind) for start, end, kind in spans))


def _annotated_document(cls, doc_id: str, text: str, spans: tuple) -> AnnotatedDocument:
    # The validating constructor; typing.NamedTuple refuses one in the class body.
    previous_end = 0
    for start, end, kind in spans:
        if type(start) is not int or type(end) is not int:  # a bool is not an offset either
            raise ValueError(f"document {doc_id!r}: span offsets must be integers, got ({start!r}, {end!r})")
        if kind not in SPAN_KINDS:
            raise ValueError(f"document {doc_id!r}: unknown span kind {kind!r}")
        if not 0 <= start < end <= len(text):
            raise ValueError(f"document {doc_id!r}: span ({start}, {end}) out of bounds")
        if start < previous_end:
            raise ValueError(f"document {doc_id!r}: spans overlap or are unsorted at offset {start}")
        previous_end = end
    return tuple.__new__(cls, (doc_id, text, spans))


AnnotatedDocument.__new__ = _annotated_document


def canonical_setting(name: str) -> str:
    if name in SETTINGS:  # as the command line passes it to every render call
        return name
    for setting in SETTINGS:
        if name.lower() == setting.lower():
            return setting
    raise RenderError(f"unknown setting {name!r}; expected one of {', '.join(SETTINGS)}")


def render(question: Question, group: FactGroup | None = None, article: str | None = None, *,
           setting: str, seed: int = 0, templates: TemplateTable | None = None) -> RenderedExample:
    """Build the prompt/target pair for one question in one setting."""
    setting = canonical_setting(setting)
    if setting == "CBQA":
        prompt = question.question
    elif setting == "OBQA":
        if article is None:
            raise RenderError(f"question {question.id!r}: the open-book setting requires an article")
        prompt = f"{question.question}\n{article}"
    else:
        if group is None:
            raise RenderError(f"question {question.id!r}: the structured-facts setting requires a fact group")
        templates = templates or load_templates()
        lines = list(group.lines)  # a copy: the group's lines are shared by all its questions
        _shuffle(lines, random.Random(f"{seed}|render|{question.id}"))
        header = f"{group.subject} {templates.relation(group.relation).phrase}:"
        prompt = "\n".join([question.question, header, *lines])
    return RenderedExample(question.id, setting, prompt, question.answers[0])


def sentinel_parts(sentinel_pattern: str) -> tuple[str, str]:
    parts = sentinel_pattern.split("{k}")
    if len(parts) != 2:
        raise ValueError(f"sentinel pattern must contain '{{k}}' exactly once, got {sentinel_pattern!r}")
    return parts[0], parts[1]


@lru_cache(maxsize=64)
def _decimal_ratio(ratio: float) -> tuple[int, int]:
    """(numerator, denominator) of the decimal ``ratio`` prints as: 0.28 is 7/25."""
    from fractions import Fraction  # only masking needs it
    return Fraction(repr(ratio)).as_integer_ratio()


def mask_spans(doc: AnnotatedDocument, ratio: float, seed: int = 0,
               sentinel_pattern: str = DEFAULT_SENTINEL_PATTERN) -> tuple[str, str]:
    """Mask ceil(ratio * span_count) spans; returns (masked_text, target).

    The product is exact for ``ratio`` as it prints. Each sentinel is the
    pattern with ``{k}`` replaced by its rank in document order; the target
    is each sentinel followed by the span it replaced, so :func:`unmask`
    recovers the original text exactly.
    """
    if not 0 < ratio <= 1:
        raise ValueError(f"mask ratio must be in (0, 1], got {ratio}")
    prefix, suffix = sentinel_parts(sentinel_pattern)
    doc_id, text, spans = doc
    if not spans:
        raise ValueError(f"document {doc_id!r} has no spans to mask")
    span_count = len(spans)
    numerator, denominator = _decimal_ratio(ratio)
    masked_count = -(-numerator * span_count // denominator)  # the ceiling, in integers
    chosen = sorted(sample(span_count, masked_count, random.Random(f"{seed}|mask|{doc_id}").getrandbits))

    masked_pieces = []
    target_pieces = []
    cursor = 0
    for rank, span_index in enumerate(chosen):
        start, end, _ = spans[span_index]
        sentinel = f"{prefix}{rank}{suffix}"
        masked_pieces += (text[cursor:start], sentinel)
        target_pieces += (sentinel, text[start:end])
        cursor = end
    masked_pieces.append(text[cursor:])
    return "".join(masked_pieces), "".join(target_pieces)


def unmask(masked_text: str, target: str, sentinel_pattern: str = DEFAULT_SENTINEL_PATTERN) -> str:
    """Apply a masking target back onto the masked text."""
    prefix, suffix = sentinel_parts(sentinel_pattern)
    pattern = re.compile(re.escape(prefix) + r"([0-9]+)" + re.escape(suffix))
    parts = pattern.split(target)
    if parts and parts[0]:
        raise ValueError("target does not start with a sentinel")
    spans = {int(index): text for index, text in zip(parts[1::2], parts[2::2])}
    return pattern.sub(lambda match: spans[int(match.group(1))], masked_text)


def masked_line(record: dict) -> str:
    """``jsonl.dumps(record)`` for a :func:`mask_corpus` record: its keys in
    sorted order, each string through ``dumps``'s own escaper."""
    return (f'{{"doc_id": {quote(record["doc_id"])}, "input": {quote(record["input"])}, '
            f'"target": {quote(record["target"])}}}')


def mask_corpus(docs: Iterable[AnnotatedDocument], ratio: float, seed: int = 0,
                sentinel_pattern: str = DEFAULT_SENTINEL_PATTERN) -> tuple[list[dict], list[str]]:
    """Mask a whole corpus; zero-span documents are skipped with a diagnostic."""
    records = []
    diagnostics = []
    for doc in docs:
        doc_id, _, spans = doc
        if not spans:
            diagnostics.append(f"document {doc_id!r} has no spans; skipped")
            continue
        masked, target = mask_spans(doc, ratio, seed, sentinel_pattern)
        records.append({"doc_id": doc_id, "input": masked, "target": target})
    return records, diagnostics
