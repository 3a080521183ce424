"""What callers may rely on in the value types: equal values are equal and
hash alike, time points sort chronologically, fields cannot be assigned,
repr shows every field, and invalid values raise the same errors with the
same messages."""

import pytest

from chronoqa.contexts import AnnotatedDocument
from chronoqa.facts import Fact, FactGroup
from chronoqa.questions import Question
from chronoqa.scoring import Prediction, RewardRecord
from chronoqa.timeline import TimeInterval, TimePoint, TimeRangeError

from conftest import Offset

JAN, JUL = TimePoint(2019, 1), TimePoint(2019, 7)


def _fact(obj: str = "Mayor") -> Fact:
    return Fact("Aiko", "Q1", "P39", obj, "Q9", TimeInterval(JAN, JUL))


def _question(question_id: str = "l2-train-Q1-P39-0") -> Question:
    return Question(question_id, "L2", "P39", "Aiko", "Q1", "P39_l2",
                    "Which position did Aiko hold in Jul 2019?", ("Mayor",), ("Governor",), JUL, None, "train")


def _group(obj: str = "Mayor") -> FactGroup:
    return FactGroup("Aiko", "Q1", "P39", (_fact(obj),))


# (build one value, build a different value of the same type)
VALUES = {
    "TimePoint": (lambda: TimePoint(2019, 7), lambda: TimePoint(2019, 8)),
    "Offset": (lambda: Offset(1, 2, "before"), lambda: Offset(1, 2, "after")),
    "TimeInterval": (lambda: TimeInterval(JAN, JUL), lambda: TimeInterval(JAN, JAN)),
    "Fact": (_fact, lambda: _fact("Governor")),
    "FactGroup": (_group, lambda: _group("Governor")),
    "Question": (_question, lambda: _question("l2-train-Q1-P39-1")),
    "Prediction": (lambda: Prediction("q1", "Mayor"), lambda: Prediction("q1", "mayor")),
    "RewardRecord": (lambda: RewardRecord("q1", 1.0, 0.0, 1.0), lambda: RewardRecord("q1", 0.0, 1.0, -1.0)),
    "AnnotatedDocument": (lambda: AnnotatedDocument("d1", "Osaka 2019", ((0, 5, "entity"),)),
                          lambda: AnnotatedDocument("d1", "Osaka 2019", ((6, 10, "temporal"),))),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_are_equal_and_hash_alike(name):
    make, make_other = VALUES[name]
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and len({a, other}) == 2


def test_time_points_sort_chronologically():
    points = [TimePoint(2020, 1), TimePoint(2019, 12), TimePoint(1, 1), TimePoint(2019, 2)]
    assert sorted(points) == [TimePoint(1, 1), TimePoint(2019, 2), TimePoint(2019, 12), TimePoint(2020, 1)]
    assert TimePoint(2019, 12) < TimePoint(2020, 1) <= TimePoint(2020, 1) < TimePoint(2020, 2)
    assert max(points) == TimePoint(2020, 1) and min(points) == TimePoint(1, 1)
    assert TimePoint(year=2019, month=7) == JUL


@pytest.mark.parametrize("name, field", [
    ("TimePoint", "year"), ("Offset", "years"), ("TimeInterval", "end"), ("Fact", "object"),
    ("Question", "answers"), ("Prediction", "prediction"), ("RewardRecord", "reward"),
    ("AnnotatedDocument", "text"),
])
def test_fields_cannot_be_assigned(name, field):
    value = VALUES[name][0]()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_repr_shows_every_field():
    interval = "TimeInterval(start=TimePoint(year=2019, month=1), end=TimePoint(year=2019, month=7))"
    fact = ("Fact(subject='Aiko', subject_id='Q1', relation='P39', object='Mayor', object_id='Q9', "
            f"interval={interval})")
    assert repr(JUL) == "TimePoint(year=2019, month=7)" and str(JUL) == "Jul 2019"
    assert repr(Offset(1, 0, "after")) == "Offset(years=1, months=0, direction='after')"
    assert repr(TimeInterval(JAN, JUL)) == interval
    assert repr(_fact()) == fact
    assert repr(_group()) == f"FactGroup(subject='Aiko', subject_id='Q1', relation='P39', facts=({fact},))"
    assert repr(_question()) == (
        "Question(id='l2-train-Q1-P39-0', level='L2', relation='P39', subject='Aiko', subject_id='Q1', "
        "template_id='P39_l2', question='Which position did Aiko hold in Jul 2019?', answers=('Mayor',), "
        "negatives=('Governor',), t_ref=TimePoint(year=2019, month=7), neighbor_object=None, split='train')")
    assert repr(Prediction("q1", "Mayor")) == "Prediction(id='q1', prediction='Mayor')"


@pytest.mark.parametrize("build, error, message", [
    (lambda: TimePoint(2019, 13), ValueError, "month must be in 1..12, got 13"),
    (lambda: TimePoint(2019, 0), ValueError, "month must be in 1..12, got 0"),
    (lambda: TimePoint(0, 5), TimeRangeError, "year 0 is before the minimum supported year 1"),
    (lambda: TimeInterval(JUL, JAN), ValueError, "interval start Jul 2019 is after end Jan 2019"),
    (lambda: Offset(0, 0, "after"), ValueError, "offset must move by at least one month"),
    (lambda: Offset(-1, 2, "after"), ValueError, "offset years and months must be non-negative"),
    (lambda: Offset(1, 0, "sideways"), ValueError, "direction must be 'before' or 'after', got 'sideways'"),
    (lambda: AnnotatedDocument("d1", "Osaka", ((0, 9, "entity"),)), ValueError,
     "document 'd1': span (0, 9) out of bounds"),
], ids=["month-13", "month-0", "year-0", "interval-backwards", "zero-offset", "negative-offset",
        "bad-direction", "span-out-of-bounds"])
def test_invalid_values_raise_the_same_errors(build, error, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
