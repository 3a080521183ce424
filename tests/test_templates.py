"""Template table loading, placeholder rendering, and surface-form matchers."""

import json
import re
from pathlib import Path

import pytest

from chronoqa import templates as templates_module
from chronoqa.templates import TemplateError, load_templates


@pytest.fixture(scope="module")
def table():
    return load_templates()


def custom_table() -> dict:
    return {
        "version": 7,
        "l1": [{"id": "t", "granularity": "month",
                "before": "How long before <t>? <y> month(s)",
                "after": "How long after <t>? <y> month(s)"}],
        "relations": {"P39": {"name": "position held", "l2": "who at <t>?",
                              "l3_before": "who before <o_j>?", "l3_after": "who after <o_j>?",
                              "phrase": "holds"}},
    }


def l1_template(table, template_id):
    (template,) = [tpl for tpl in table.l1 if tpl.id == template_id]
    return template


class TestLoading:
    def test_default_table(self, table):
        assert len(table.relations) == 10
        assert table.relation_codes == frozenset(
            {"P54", "P39", "P108", "P102", "P286", "P69", "P488", "P6", "P35", "P127"})
        assert len(table.l1) == 4

    def test_packaged_file_passes_the_custom_file_checks(self, table):
        """The packaged table loads without the checks a custom file takes, so
        it must pass them, and give the same table through them."""
        path = Path(templates_module.__file__).parent / "data" / "templates.json"
        checked = load_templates(str(path))
        assert (checked.version, checked.l1, checked.relations) == (table.version, table.l1, table.relations)

    def test_custom_file(self, tmp_path, table):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(custom_table()), encoding="utf-8")
        custom = load_templates(str(path))
        assert custom.version == 7
        assert custom.relation_codes == frozenset({"P39"})

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.update(l1=["l1_year"]), "l1 entry 1 must be an object, got str"),
        (lambda t: t["relations"].update(P39="position held"), "P39 must be an object, got str"),
        (lambda t: t.update(relations=[]), "a 'relations' object"),
        (lambda t: t["l1"][0].update(granularity="week"), "must be 'year' or 'month', got 'week'"),
        (lambda t: t["l1"][0].update(before=5), "'before' in l1 entry 1 must be a string, but got int"),
        (lambda t: t["l1"][0].update(after_one=["x"]), "'after_one' in l1 entry 1 must be a string or null"),
        (lambda t: t["relations"]["P39"].update(l2=None), "'l2' in P39 must be a string, but got NoneType"),
        (lambda t: t.update(version="2"), "'version' must be an integer, got '2'"),
        (lambda t: t.update(version=1.5), "'version' must be an integer, got 1.5"),
    ], ids=["string-l1-entry", "string-relation-entry", "list-relations", "week-granularity", "number-text",
            "list-one-year-text", "null-relation-text", "string-version", "float-version"])
    def test_wrong_types_are_rejected_naming_the_file(self, tmp_path, edit, message):
        path = tmp_path / "bad.json"
        table = custom_table()
        edit(table)
        path.write_text(json.dumps(table), encoding="utf-8")
        with pytest.raises(TemplateError, match=re.escape(message)) as excinfo:
            load_templates(str(path))
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("entry, edit, message", [
        (1, {"before": "How long before? <y> month(s)"}, "'before' in l1 entry 1 must hold <t> exactly once"),
        (1, {"after": "After <t>, <t>? <y> month(s)"}, "'after' in l1 entry 1 must hold <t> exactly once"),
        (1, {"before": "How long before <t>? <y> month(s), <y>"},
         "'before' in l1 entry 1 must hold <y> at most once"),
        (2, {"after": "<x> or <x> year(s) after <t>?"}, "'after' in l1 entry 2 must hold <x> at most once"),
        (1, {"after": "How long after <t>? <x> year(s)"},
         "'before' and 'after' in l1 entry 1 must hold the same of <x> and <y>"),
        (2, {"before": "<x> year(s) before <t>?", "after": "<x> year(s) and <y> month(s) after <t>?"},
         "'before' and 'after' in l1 entry 2 must hold the same of <x> and <y>"),
        (1, {"before": "Before <t>?", "after": "After <t>?"},
         "'before' and 'after' in l1 entry 1 must hold <x> or <y>"),
        (2, {"before_one": "The year before?"}, "'before_one' in l1 entry 2 must hold <t> exactly once"),
        (2, {"after_one": "The year after <t>, <t>?"}, "'after_one' in l1 entry 2 must hold <t> exactly once"),
        (2, {"after_one": "The <x> year after <t>?"},
         "'after_one' in l1 entry 2 is the one-year wording and must not hold <x>"),
        (2, {"before_one": "The year and <y> months before <t>?"},
         "'before_one' in l1 entry 2 is the one-year wording and must not hold <y>"),
    ], ids=["before-without-t", "after-with-two-t", "repeated-y", "repeated-x", "after-with-other-offset",
            "before-with-fewer-offsets", "no-offset", "one-year-without-t", "one-year-with-two-t",
            "one-year-with-x", "one-year-with-y"])
    def test_l1_placeholders_are_checked_naming_the_file(self, tmp_path, entry, edit, message):
        table = custom_table()
        table["l1"].append({"id": "years", "granularity": "year", "before": "<x> year(s) before <t>?",
                            "after": "<x> year(s) after <t>?", "before_one": "The year before <t>?",
                            "after_one": "The year after <t>?"})
        table["l1"][entry - 1].update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        with pytest.raises(TemplateError, match=re.escape(message)) as excinfo:
            load_templates(str(path))
        assert str(path) in str(excinfo.value)

    def test_repeated_l1_id_is_rejected_naming_the_file(self, tmp_path):
        # Sampling keyed uniqueness on the id and enumeration on the entry, so
        # an entry listed twice stalled the one and wrote duplicate texts from the other.
        table = custom_table()
        table["l1"] += [dict(table["l1"][0], id="other"), dict(table["l1"][0])]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        with pytest.raises(TemplateError, match=re.escape(
                f"template file {path}: 'id' in l1 entry 3 repeats that of l1 entry 1, 't'")):
            load_templates(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "l1": [], "relations": {"P39": {"name": "x"}}}),
                        encoding="utf-8")
        with pytest.raises(TemplateError, match="l2"):
            load_templates(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(TemplateError, match="JSON"):
            load_templates(str(path))

    def test_unknown_relation_lookup(self, table):
        with pytest.raises(TemplateError, match="P999"):
            table.relation("P999")


class TestRendering:
    def test_l2_placeholders(self, table):
        text = table.render_l2("P54", "Lionel Messi", "Dec 2010")
        assert text == "Which team did Lionel Messi play for in Dec 2010?"

    def test_l3_placeholders(self, table):
        text = table.render_l3("P39", "before", "Nicholas Budgen", "Member of Parliament")
        assert text == "Which position did Nicholas Budgen hold before Member of Parliament?"

    def test_pluralization(self, table):
        ym = l1_template(table, "l1_time_ym")
        assert table.render_l1(ym, "after", 1, 1, "Jul 2019") == \
            "What is the time 1 year and 1 month after Jul 2019?"
        assert table.render_l1(ym, "before", 2, 5, "Jul 2019") == \
            "What is the time 2 years and 5 months before Jul 2019?"

    def test_collapsed_one_year_form(self, table):
        year = l1_template(table, "l1_year")
        assert table.render_l1(year, "after", 1, 0, "1905") == "What is the year after 1905?"
        assert table.render_l1(year, "after", 2, 0, "1905") == "What is the year 2 years after 1905?"


class TestMatchers:
    def test_round_trip_all_variants(self, table):
        cases = [
            ("l1_year", "before", 1, 0, "1905"),
            ("l1_year", "after", 3, 0, "1949"),
            ("l1_time_ym", "after", 1, 1, "Jul 2019"),
            ("l1_time_ym", "before", 10, 11, "Jan 1000"),
            ("l1_time_y", "after", 7, 0, "Feb 1980"),
            ("l1_time_m", "before", 0, 11, "Dec 2040"),
        ]
        matchers = table.l1_matchers()
        for template_id, direction, x, y, t_text in cases:
            template = l1_template(table, template_id)
            text = table.render_l1(template, direction, x, y, t_text)
            hits = []
            for matcher in matchers:
                match = matcher.pattern.match(text)
                if match:
                    got_x = int(match.groupdict().get("x", matcher.fixed_x or 0))
                    got_y = int(match.groupdict().get("y", 0) or 0)
                    hits.append((matcher.template_id, got_x, got_y, match.group("t")))
            assert hits == [(f"{template_id}_{direction}", x, y, t_text)]
