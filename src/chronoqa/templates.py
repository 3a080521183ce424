"""Question template table.

Templates live in an editable JSON file (``data/templates.json`` ships as the
default). Placeholders: ``<subject>``, ``<t>`` (a time), ``<o_j>`` (the pivot
object of a before/after question), ``<x>`` (years), ``<y>`` (months).
``year(s)``/``month(s)`` in relative-time templates are pluralized against the
substituted count at render time.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .timeline import DIRECTIONS

# The prompt-format version: bump it when the prompt wording in contexts.py or
# the fact lines of ``facts.FactGroup.lines`` change. Artifacts record it with
# the template version (``render_version``), so mixed datasets are detectable
# at evaluation time.
RENDER_FORMAT = 1


class TemplateError(ValueError):
    """The template file is malformed or a lookup failed."""


class RelativeTimeTemplate(NamedTuple):
    """One family of relative-time questions (both directions)."""

    id: str
    granularity: str  # "year" answers bare years, "month" answers "Mon YYYY"
    before: str
    after: str
    before_one: str | None = None  # collapsed wording when the offset is 1 year
    after_one: str | None = None

    def uses_years(self) -> bool:
        return "<x>" in self.before

    def uses_months(self) -> bool:
        return "<y>" in self.before


class RelationTemplates(NamedTuple):
    """Templates and context phrase for one KB relation code."""

    code: str
    name: str
    l2: str
    l3_before: str
    l3_after: str
    phrase: str


class L1Matcher(NamedTuple):
    """Compiled pattern that recovers (x, y, t) from a question surface form."""

    template_id: str  # e.g. "l1_year_after"
    granularity: str
    direction: str
    pattern: re.Pattern
    fixed_x: int | None = None  # set for collapsed one-year wordings


def _pluralize(text: str, unit: str, count: int) -> str:
    return text.replace(f"{unit}(s)", unit if count == 1 else f"{unit}s")


class TemplateTable:
    def __init__(self, version: int, l1: list[RelativeTimeTemplate], relations: dict[str, RelationTemplates]):
        self.version = version
        self.l1 = l1
        self.relations = relations
        self._matchers: list[L1Matcher] | None = None
        self._matchers_by_id: dict[str, list[L1Matcher]] | None = None

    @property
    def render_version(self) -> str:
        """The prompt-format and template versions, e.g. ``"1.t1"``."""
        return f"{RENDER_FORMAT}.t{self.version}"

    @property
    def relation_codes(self) -> frozenset[str]:
        return frozenset(self.relations)

    def relation(self, code: str) -> RelationTemplates:
        try:
            return self.relations[code]
        except KeyError:
            raise TemplateError(f"no templates for relation {code!r}") from None

    def render_l1(self, template: RelativeTimeTemplate, direction: str, x: int, y: int, t_text: str) -> str:
        """Fill one relative-time template; collapses to the bare one-year form."""
        if direction not in DIRECTIONS:
            raise TemplateError(f"bad direction {direction!r}")
        collapsed = template.before_one if direction == "before" else template.after_one
        if collapsed is not None and x == 1 and y == 0:
            text = collapsed
        else:
            text = template.before if direction == "before" else template.after
            text = _pluralize(text.replace("<x>", str(x)), "year", x)
            text = _pluralize(text.replace("<y>", str(y)), "month", y)
        return text.replace("<t>", t_text)

    def render_l2(self, relation: str, subject: str, t_text: str) -> str:
        return self.relation(relation).l2.replace("<subject>", subject).replace("<t>", t_text)

    def render_l3(self, relation: str, direction: str, subject: str, pivot: str) -> str:
        rel = self.relation(relation)
        text = rel.l3_before if direction == "before" else rel.l3_after
        return text.replace("<subject>", subject).replace("<o_j>", pivot)

    def l1_matchers(self) -> list[L1Matcher]:
        """Patterns for every wording variant, used by the symbolic solver."""
        if self._matchers is not None:
            return self._matchers
        matchers = []
        for tpl in self.l1:
            for direction in DIRECTIONS:
                template_id = f"{tpl.id}_{direction}"
                text = tpl.before if direction == "before" else tpl.after
                matchers.append(L1Matcher(template_id, tpl.granularity, direction, _compile_l1_pattern(text)))
                collapsed = tpl.before_one if direction == "before" else tpl.after_one
                if collapsed is not None:
                    matchers.append(L1Matcher(template_id, tpl.granularity, direction,
                                              _compile_l1_pattern(collapsed), fixed_x=1))
        self._matchers = matchers
        return matchers

    def l1_candidates(self, template_id: str) -> list[L1Matcher]:
        """The matchers of one template id (e.g. ``"l1_year_after"``), or
        every matcher when no template has that id."""
        if self._matchers_by_id is None:
            by_id: dict[str, list[L1Matcher]] = {}
            for matcher in self.l1_matchers():
                by_id.setdefault(matcher.template_id, []).append(matcher)
            self._matchers_by_id = by_id
        return self._matchers_by_id.get(template_id) or self.l1_matchers()


def _compile_l1_pattern(template_text: str) -> re.Pattern:
    escaped = re.escape(template_text)
    escaped = escaped.replace(re.escape("year(s)"), r"years?")
    escaped = escaped.replace(re.escape("month(s)"), r"months?")
    escaped = escaped.replace("<x>", r"(?P<x>\d+)")
    escaped = escaped.replace("<y>", r"(?P<y>\d+)")
    escaped = escaped.replace("<t>", r"(?P<t>.+)")
    # An offset is ASCII digits, as a year is: without re.ASCII, \d takes any
    # decimal digit. (A [0-9] class would match the same, but compiles slower.)
    return re.compile(rf"^{escaped}$", re.ASCII)


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


_default_table: TemplateTable | None = None


def load_templates(path: str | None = None) -> TemplateTable:
    """Load a template table; ``None`` loads the packaged defaults (cached)."""
    global _default_table
    if path is None:
        if _default_table is None:
            from importlib import resources

            resource = resources.files("chronoqa").joinpath("data/templates.json")
            _default_table = _parse_table(resource.read_text(encoding="utf-8"), str(resource))
        return _default_table
    with open(path, encoding="utf-8") as handle:
        return _parse_table(handle.read(), path)


def _parse_table(raw: str, path: str) -> TemplateTable:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TemplateError(f"template file {path} is not valid JSON: {exc}") from exc
    if not (isinstance(data, dict) and isinstance(data.get("l1"), list) and isinstance(data.get("relations"), dict)):
        raise TemplateError(f"template file {path}: the top level must be an object with an 'l1' list "
                            "and a 'relations' object")
    version = data.get("version", 1)
    if not isinstance(version, int) or isinstance(version, bool):
        raise TemplateError(f"template file {path}: 'version' must be an integer, got {version!r}")

    l1 = []
    for i, entry in enumerate(data["l1"], 1):
        template = RelativeTimeTemplate(*_texts(entry, f"l1 entry {i}", path, RelativeTimeTemplate._fields[:4],
                                                RelativeTimeTemplate._fields[4:]))
        if template.granularity not in ("year", "month"):
            raise TemplateError(f"template file {path}: 'granularity' in l1 entry {i} must be 'year' or "
                                f"'month', got {template.granularity!r}")
        _check_placeholders(template, f"l1 entry {i}", path)
        l1.append(template)
    relations = {code: RelationTemplates(code, *_texts(entry, code, path, RelationTemplates._fields[1:]))
                 for code, entry in data["relations"].items()}
    if not relations:
        raise TemplateError(f"template file {path} defines no relations")
    return TemplateTable(version=version, l1=l1, relations=relations)
