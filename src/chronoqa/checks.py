"""The checks of a custom ``--templates`` file, each failure named. The
packaged table skips them, so a run with it compiles none of this."""

from __future__ import annotations

import json

from .templates import RelationTemplates, RelativeTimeTemplate, TemplateError


def checked_templates(raw: str, path: str) -> dict:
    """The decoded template file, once every check passes."""
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # an over-long integer or too deep a nest is invalid too
        raise TemplateError(f"template file {path} is not valid JSON: {exc}") from exc
    if not (isinstance(data, dict) and isinstance(data.get("l1"), list) and isinstance(data.get("relations"), dict)):
        raise TemplateError(f"template file {path}: the top level must be an object with an 'l1' list "
                            "and a 'relations' object")
    version = data.get("version", 1)
    if not isinstance(version, int) or isinstance(version, bool):
        raise TemplateError(f"template file {path}: 'version' must be an integer, got {version!r}")
    entries: dict[str, int] = {}  # each l1 id's entry number
    for i, entry in enumerate(data["l1"], 1):
        template = RelativeTimeTemplate(*_texts(entry, f"l1 entry {i}", path, RelativeTimeTemplate._fields[:4],
                                                RelativeTimeTemplate._fields[4:]))
        if template.granularity not in ("year", "month"):
            raise TemplateError(f"template file {path}: 'granularity' in l1 entry {i} must be 'year' or "
                                f"'month', got {template.granularity!r}")
        if entries.setdefault(template.id, i) != i:
            raise TemplateError(f"template file {path}: 'id' in l1 entry {i} repeats that of l1 entry "
                                f"{entries[template.id]}, {template.id!r}")
        _check_placeholders(template, f"l1 entry {i}", path)
    for code, entry in data["relations"].items():
        _texts(entry, code, path, RelationTemplates._fields[1:])
    if not data["relations"]:
        raise TemplateError(f"template file {path} defines no relations")
    return data


def _texts(entry: object, where: str, path: str, names: tuple[str, ...], optional: tuple[str, ...] = ()) -> list:
    """The fields ``names`` of one template entry, each a string, then the
    fields ``optional``, each a string or null (or missing)."""
    if not isinstance(entry, dict):
        raise TemplateError(f"template file {path}: {where} must be an object, got {type(entry).__name__}")
    for name in names + optional:
        value = entry.get(name)
        if not (isinstance(value, str) or (value is None and name in optional)):
            got = f"got {type(value).__name__}" if name in entry else "it is missing"
            raise TemplateError(f"template file {path}: {name!r} in {where} must be a string"
                                f"{' or null' if name in optional else ''}, but {got}")
    return [entry.get(name) for name in names + optional]


def _check_placeholders(template: RelativeTimeTemplate, where: str, path: str) -> None:
    """Each L1 text holds ``<t>`` once; ``before`` and ``after`` hold the same
    offsets, ``<x>`` and/or ``<y>``, each once; the one-year texts hold none.
    The generator fills ``<t>`` into text rendered up to it, and the solver's
    patterns name each placeholder as a group."""
    def fail(names: str, problem: str) -> None:
        raise TemplateError(f"template file {path}: {names} in {where} {problem}")

    for name in ("before", "after", "before_one", "after_one"):
        text = getattr(template, name)
        if text is None:
            continue
        if text.count("<t>") != 1:
            fail(repr(name), f"must hold <t> exactly once, got {text!r}")
        for placeholder in ("<x>", "<y>"):
            if name.endswith("_one") and placeholder in text:
                fail(repr(name), f"is the one-year wording and must not hold {placeholder}, got {text!r}")
            if text.count(placeholder) > 1:
                fail(repr(name), f"must hold {placeholder} at most once, got {text!r}")
    offsets = [[p for p in ("<x>", "<y>") if p in text] for text in (template.before, template.after)]
    if offsets[0] != offsets[1]:
        fail("'before' and 'after'", f"must hold the same of <x> and <y>, got {template.before!r} and "
             f"{template.after!r}")
    if not offsets[0]:
        fail("'before' and 'after'", f"must hold <x> or <y>, got {template.before!r}")
