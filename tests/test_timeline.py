"""Calendar arithmetic: frozen examples plus randomized property checks
against an independent absolute-month-index oracle."""

import ast
import random
from pathlib import Path

import pytest

import chronoqa
from chronoqa.timeline import (
    TimeParseError,
    TimePoint,
    TimeRangeError,
    compare,
    format_month,
    format_time,
    parse_month,
    parse_time,
    sample,
)

from conftest import MONTHS, Offset, month_text, shift, time_from_month_index


def oracle_index(year: int, month: int) -> int:
    # Independent re-derivation: months since Jan of year 0.
    return year * 12 + (month - 1)


def oracle_shift(year: int, month: int, signed_months: int) -> tuple[int, int]:
    index = oracle_index(year, month) + signed_months
    return index // 12, index % 12 + 1


class TestShift:
    def test_month_rollover(self):
        assert shift(TimePoint(2010, 12), Offset(0, 2, "after")) == TimePoint(2011, 2)

    def test_year_borrow(self):
        assert shift(TimePoint(1900, 1), Offset(0, 1, "before")) == TimePoint(1899, 12)

    def test_years_and_months(self):
        # oracle: index(Mar 1950) + 41 months
        assert oracle_shift(1950, 3, 41) == (1953, 8)
        assert shift(TimePoint(1950, 3), Offset(3, 5, "after")) == TimePoint(1953, 8)

    def test_underflow_below_year_one(self):
        with pytest.raises(TimeRangeError):
            shift(TimePoint(1, 3), Offset(0, 5, "before"))

    def test_round_trip_mirror(self):
        rng = random.Random(11)
        for _ in range(500):
            t = TimePoint(rng.randint(2, 3000), rng.randint(1, 12))
            years, months = rng.randint(0, 10), rng.randint(0, 11)
            if (years, months) == (0, 0):
                continue
            there = shift(t, Offset(years, months, "after"))
            assert shift(there, Offset(years, months, "before")) == t

    def test_additivity(self):
        rng = random.Random(12)
        for _ in range(500):
            t = TimePoint(rng.randint(100, 3000), rng.randint(1, 12))
            years, months = rng.randint(0, 10), rng.randint(1, 11)
            combined = shift(t, Offset(years, months, "after"))
            flat = shift(t, Offset(0, years * 12 + months, "after"))
            assert combined == flat

    def test_matches_oracle_on_random_samples(self):
        rng = random.Random(13)
        for _ in range(2000):
            year, month = rng.randint(50, 3000), rng.randint(1, 12)
            years, months = rng.randint(0, 10), rng.randint(0, 11)
            if (years, months) == (0, 0):
                continue
            direction = rng.choice(["before", "after"])
            signed = (years * 12 + months) * (1 if direction == "after" else -1)
            result = shift(TimePoint(year, month), Offset(years, months, direction))
            assert (result.year, result.month) == oracle_shift(year, month, signed)


class TestCompare:
    def test_reflexive(self):
        assert compare(TimePoint(2019, 7), TimePoint(2019, 7)) == "same"

    def test_year_dominates(self):
        assert compare(TimePoint(2009, 12), TimePoint(2010, 1)) == "before"

    def test_month_within_year(self):
        assert compare(TimePoint(1905, 2), TimePoint(1905, 1)) == "after"

    def test_matches_index_oracle(self):
        rng = random.Random(14)
        for _ in range(1000):
            a = TimePoint(rng.randint(1, 3000), rng.randint(1, 12))
            b = TimePoint(rng.randint(1, 3000), rng.randint(1, 12))
            ia, ib = oracle_index(a.year, a.month), oracle_index(b.year, b.month)
            expected = "before" if ia < ib else "after" if ia > ib else "same"
            assert compare(a, b) == expected
            # antisymmetry
            flipped = {"before": "after", "after": "before", "same": "same"}
            assert compare(b, a) == flipped[expected]


class TestParseFormat:
    def test_month_year(self):
        assert parse_time("Jul 2019") == TimePoint(2019, 7)
        assert parse_time("Dec 2010") == TimePoint(2010, 12)

    def test_bad_month_token_named(self):
        with pytest.raises(TimeParseError, match="xyz"):
            parse_time("xyz 2010")

    def test_bad_year_token_named(self):
        with pytest.raises(TimeParseError, match="20x0"):
            parse_time("Jul 20x0")

    @pytest.mark.parametrize("text", ["Jul ２０１９", "２０１９", "Jul ١٩٩٩", "١٩٩٩", "Jul 2²"],
                             ids=["full-width", "bare-full-width", "arabic-indic", "bare-arabic-indic",
                                  "superscript"])
    def test_year_must_be_ascii_digits(self, text):
        # str.isdigit took these, and int() read the first four as years.
        with pytest.raises(TimeParseError, match="unrecognized year token"):
            parse_time(text)

    def test_bare_year_defaults(self):
        assert parse_time("2004") == TimePoint(2004, 1)
        assert parse_time("2004", bare_year_month=12) == TimePoint(2004, 12)

    def test_round_trip_canonical(self):
        for text in ["Jan 1", "Jul 2019", "Dec 2040", "Feb 634"]:
            assert format_time(parse_time(text)) == text

    def test_case_insensitive_months(self):
        assert parse_time("jul 2019") == TimePoint(2019, 7)
        assert format_time(parse_time("JUL 2019")) == "Jul 2019"

    def test_rejects_extra_tokens(self):
        with pytest.raises(TimeParseError):
            parse_time("12 Jul 2019")


class TestTextIndexBoundary:
    """``format_month`` and ``parse_month``, the one boundary between a
    month's text and its index, against the tests' reference."""

    def test_every_month_of_years_1_to_2999_round_trips(self):
        # 35,988 months: more than format_month's memo of 32,768 holds
        for index in range(12 * 1, 12 * 3000):
            text = format_month(index)
            assert text == month_text(index)
            assert parse_month(text, 1) == index

    @pytest.mark.parametrize("bare_year_month", [1, 12], ids=["start", "end"])
    def test_parse_month_agrees_with_the_reference_on_every_form(self, bare_year_month):
        rng = random.Random(bare_year_month)
        for _ in range(3000):
            year, month = rng.randint(1, 9999), rng.randint(1, 12)
            mixed = "".join(rng.choice((c.lower(), c.upper())) for c in MONTHS[month - 1])
            for abbrev in (MONTHS[month - 1], MONTHS[month - 1].upper(), MONTHS[month - 1].lower(), mixed):
                assert time_from_month_index(parse_month(f"{abbrev} {year}", bare_year_month)) == (year, month)
            assert time_from_month_index(parse_month(str(year), bare_year_month)) == (year, bare_year_month)


class TestOneMonthType:
    def test_only_timeline_names_time_point(self):
        """Every internal signature takes month indices: ``TimePoint`` is
        only what ``parse_time`` gives and the public type of a month given
        by hand. The package's export table holds its name as a string."""
        naming = []
        for path in sorted(Path(chronoqa.__file__).parent.glob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.name.rpartition(".")[2] for alias in node.names)
            if "TimePoint" in names:
                naming.append(path.name)
        assert naming == ["timeline.py"]


class TestTypes:
    def test_timepoint_validation(self):
        with pytest.raises(ValueError):
            TimePoint(2020, 13)
        with pytest.raises(TimeRangeError):
            TimePoint(0, 5)

    def test_offset_validation(self):
        with pytest.raises(ValueError):
            Offset(0, 0, "after")
        with pytest.raises(ValueError):
            Offset(1, -1, "after")
        with pytest.raises(ValueError):
            Offset(1, 0, "sideways")


class TestSample:
    """``sample`` draws and picks what ``Random.sample(range(n), k)`` of the
    running interpreter does: the masked documents depend on it."""

    @pytest.mark.parametrize("seed", [0, 7, "3|mask|d1"])
    def test_every_k_up_to_n_is_random_sample(self, seed):
        ours, library = random.Random(seed), random.Random(seed)
        getrandbits = ours.getrandbits
        for n in range(1, 201):
            for k in range(1, n + 1):
                assert sample(n, k, getrandbits) == library.sample(range(n), k), (n, k)
        assert ours.getstate() == library.getstate()

    @pytest.mark.parametrize("n, k", [(21, 5), (22, 5), (85, 6), (86, 6), (200, 21), (200, 22), (200, 200)],
                             ids=["pool-small-k", "set-small-k", "pool-k6", "set-k6", "set-k21", "pool-k22",
                                  "pool-all"])
    def test_both_branches_at_their_edges(self, n, k):
        # The list of unpicked indices is used while n <= 21, or for k > 5
        # while n <= 21 + 4 ** ceil(log4(3k)): 85 for k = 6, 277 for k = 22.
        for seed in range(20):
            ours, library = random.Random(seed), random.Random(seed)
            picks = sample(n, k, ours.getrandbits)
            assert picks == library.sample(range(n), k)
            assert len(set(picks)) == k and all(0 <= pick < n for pick in picks)
            assert ours.getstate() == library.getstate()
