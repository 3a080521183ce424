"""Per-item scores and the evaluation report: exact match, token F1, and for
bare-year answers year MAE and trend accuracy, overall and per period or
relation bucket. Every comparison goes through ``scoring.normalize``."""

from __future__ import annotations

import re
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import scoring  # normalize is read from it when called, so a counter put in its place sees every call
from .scoring import _Memo, _prediction_map, normalized_key
from .timeline import is_year_text

if TYPE_CHECKING:
    from .records import Question
    from .scoring import Prediction

DEFAULT_PERIOD_EDGES = (1900, 1920, 1940, 1960, 1980, 2000, 2020, 2040)

_YEAR_PATTERN = re.compile(r"[0-9]+")


def score_em(prediction: str, golds: Sequence[str]) -> int:
    """1 iff the normalized prediction equals any normalized gold."""
    if not golds:
        raise ValueError("golds must be non-empty")
    pred = normalized_key(prediction)
    return int(any(pred == normalized_key(gold) for gold in golds))


def _token_f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    # The multiset overlap: each prediction token uses up one unused equal gold token.
    unused: dict[str, int] = {}
    for token in gold_tokens:
        unused[token] = unused.get(token, 0) + 1
    overlap = 0
    for token in pred_tokens:
        if unused.get(token):
            unused[token] -= 1
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def score_f1(prediction: str, golds: Sequence[str]) -> float:
    """Best token-multiset F1 against any gold, in [0, 1]."""
    if not golds:
        raise ValueError("golds must be non-empty")
    pred_tokens = scoring.normalize(prediction)
    return max(_token_f1(pred_tokens, scoring.normalize(gold)) for gold in golds)


def extract_year(text: str) -> int | None:
    """The first run of ASCII digits in the text as an integer, or None; like
    ``timeline.is_year_text``, other Unicode digits are not a year."""
    match = _YEAR_PATTERN.search(text)
    return int(match.group()) if match else None


class NumericScore(NamedTuple):
    """Year-prediction scores for one item."""

    abs_err: int | None  # None when the prediction has no parseable year
    trend_correct: bool
    parsed: bool


def score_numeric(prediction: str, gold_year: int, ref_year: int) -> NumericScore:
    """Absolute year error plus whether the prediction sits on the gold's
    side of the reference year. An unparseable prediction contributes no
    error term and counts as trend-incorrect.
    """
    if gold_year == ref_year:
        raise ValueError("gold year must differ from the reference year")
    pred_year = extract_year(prediction)
    if pred_year is None:
        return NumericScore(None, False, False)
    gold_side = 1 if gold_year > ref_year else -1
    pred_side = (pred_year > ref_year) - (pred_year < ref_year)
    return NumericScore(abs(pred_year - gold_year), pred_side == gold_side, True)


class _Accumulator:
    __slots__ = ("count", "em_sum", "f1_sum", "numeric_count", "parsed_count", "abs_err_sum", "trend_correct")

    def __init__(self) -> None:
        self.count = self.em_sum = self.numeric_count = self.parsed_count = self.abs_err_sum = 0
        self.trend_correct, self.f1_sum = 0, 0.0

    def add(self, em: int, f1: float, numeric: NumericScore | None) -> None:
        self.count += 1
        self.em_sum += em
        self.f1_sum += f1
        if numeric is not None:
            abs_err, trend_correct, parsed = numeric
            self.numeric_count += 1
            if parsed:
                self.parsed_count += 1
                self.abs_err_sum += abs_err or 0
            self.trend_correct += int(trend_correct)

    def block(self) -> "MetricBlock":
        em = 100.0 * self.em_sum / self.count if self.count else 0.0
        f1 = 100.0 * self.f1_sum / self.count if self.count else 0.0
        mae = self.abs_err_sum / self.parsed_count if self.parsed_count else None
        trend = 100.0 * self.trend_correct / self.numeric_count if self.numeric_count else None
        return MetricBlock(em=em, f1=f1, mae=mae, trend_acc=trend, count=self.count,
                           numeric_count=self.numeric_count,
                           unparseable_count=self.numeric_count - self.parsed_count)


class MetricBlock(NamedTuple):
    """Aggregated metrics for one bucket. em/f1/trend_acc are percentages."""

    em: float
    f1: float
    mae: float | None
    trend_acc: float | None
    count: int
    numeric_count: int
    unparseable_count: int

    def to_record(self) -> dict:
        """Every field, rounded to 4 places (``round`` leaves the counts as they are)."""
        return {name: value if value is None else round(value, 4) for name, value in self._asdict().items()}


class EvalReport(NamedTuple):
    overall: MetricBlock
    per_period: dict[str, MetricBlock]
    per_relation: dict[str, MetricBlock]
    count: int

    def to_record(self) -> dict:
        return {
            "overall": self.overall.to_record(),
            "per_period": {label: block.to_record() for label, block in self.per_period.items()},
            "per_relation": {label: block.to_record() for label, block in self.per_relation.items()},
            "count": self.count,
        }


def period_label(year: int, edges: Sequence[int]) -> str:
    """Bucket label for a reference year; bins are half-open [lo, hi)."""
    if year < edges[0]:
        return f"before {edges[0]}"
    for lo, hi in zip(edges, edges[1:]):
        if lo <= year < hi:
            return f"{lo}-{hi}"
    return f"{edges[-1]}+"


def evaluate(questions: Sequence[Question], predictions: Iterable[Prediction], *,
             period_edges: Sequence[int] = DEFAULT_PERIOD_EDGES,
             missing_policy: str = "zero") -> EvalReport:
    """Aggregate EM/F1 (and MAE/trend for bare-year answers) overall and per
    period/relation bucket. Every prediction id must match a question;
    questions without a prediction score zero unless the policy is "error".
    A gold with no scoring tokens raises a ValueError naming the question.
    """
    if missing_policy not in ("zero", "error"):
        raise ValueError(f"unknown missing-prediction policy {missing_policy!r}")
    pred_map = _prediction_map(questions, predictions)
    tokens = _Memo(scoring.normalize)
    tokens_of = tokens.__getitem__
    periods = _Memo(lambda year: period_label(year, period_edges))  # label by reference year

    overall = _Accumulator()
    per_period: defaultdict[str, _Accumulator] = defaultdict(_Accumulator)
    per_relation: defaultdict[str, _Accumulator] = defaultdict(_Accumulator)
    for question_id, _, relation, _, _, _, _, golds, _, t_ref, _, _ in questions:  # each field read once
        if question_id not in pred_map and missing_policy == "error":
            raise ValueError(f"no prediction for question id {question_id!r}")
        text = pred_map.get(question_id, "")
        pred_tokens = tokens[text]
        gold_tokens = list(map(tokens_of, golds))
        if [] in gold_tokens:  # an empty prediction would match it
            raise ValueError(f"question {question_id!r}: gold {golds[gold_tokens.index([])]!r} "
                             "has no scoring tokens")
        em = int(pred_tokens in gold_tokens)  # equal token lists are equal keys
        # An exact match has token F1 exactly 1.0, the most any gold can give.
        f1 = 1.0 if em else max(_token_f1(pred_tokens, gold) for gold in gold_tokens)
        numeric, period = None, "undated"
        if t_ref is not None:
            ref_year = t_ref // 12
            period = periods[ref_year]
            gold_year = golds[0].strip()
            if len(golds) == 1 and is_year_text(gold_year) and int(gold_year) != ref_year:
                numeric = score_numeric(text, int(gold_year), ref_year)
        overall.add(em, f1, numeric)
        per_period[period].add(em, f1, numeric)
        per_relation[relation or "none"].add(em, f1, numeric)

    return EvalReport(
        overall=overall.block(),
        per_period={label: acc.block() for label, acc in sorted(per_period.items())},
        per_relation={label: acc.block() for label, acc in sorted(per_relation.items())},
        count=overall.count,
    )
