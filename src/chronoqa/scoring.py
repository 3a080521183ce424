"""Prediction scoring: EM, token F1, year MAE, trend accuracy, and the
temporally-aware reward.

All string comparisons share one normalization (lowercase, ASCII punctuation
removed, English articles dropped, whitespace tokenized) so gold/negative
disjointness is checkable with the same rule used for scoring. A gold or
negative that normalizes to no tokens is a data error: an empty prediction
would match it.

The reward compares a prediction against the gold and the temporally wrong
answers from the same fact group: it is the positive score when that is at
least the best negative score, otherwise minus the best negative score. With
exact match as the scorer this lands in {-1, 0, +1}.
"""

from __future__ import annotations

import re
import string
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .jsonl import quote
from .timeline import is_year_text

if TYPE_CHECKING:
    from .questions import Question

DEFAULT_PERIOD_EDGES = (1900, 1920, 1940, 1960, 1980, 2000, 2020, 2040)

_ARTICLES = frozenset({"a", "an", "the"})
# One regex pass over the lowered text deletes the 32 ASCII punctuation marks;
# ``str.translate`` with a deletion table does the same at two to three times the cost.
_strip_punctuation = re.compile("[" + re.escape(string.punctuation) + "]").sub
_YEAR_PATTERN = re.compile(r"[0-9]+")


def normalize(text: str) -> list[str]:
    """Lowercased tokens with ASCII punctuation and English articles removed."""
    stripped = _strip_punctuation("", text.lower())
    return [token for token in stripped.split() if token not in _ARTICLES]


def normalized_key(text: str) -> str:
    """The normalized token sequence as a single comparable string."""
    return " ".join(normalize(text))


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
    pred_tokens = normalize(prediction)
    return max(_token_f1(pred_tokens, normalize(gold)) for gold in golds)


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


class Prediction(NamedTuple):
    id: str
    prediction: str

    @classmethod
    def from_record(cls, record: Mapping) -> "Prediction":
        prediction_id, prediction = record["id"], record["prediction"]
        if not isinstance(prediction_id, str):
            raise ValueError(f"id must be a string, got {type(prediction_id).__name__}")
        if not isinstance(prediction, str):
            raise ValueError(f"prediction must be a string, got {type(prediction).__name__}")
        return cls(prediction_id, prediction)


def prediction_line(prediction: Prediction) -> str:
    """The line ``jsonl.dumps(prediction._asdict())`` writes."""
    return f'{{"id": {quote(prediction.id)}, "prediction": {quote(prediction.prediction)}}}'


class RewardRecord(NamedTuple):
    """Per-prediction positive score, best negative score, and reward."""

    id: str
    p: float
    n: float
    reward: float


def reward_line(record: RewardRecord) -> str:
    """The line ``jsonl.dumps(record._asdict())`` writes, for finite scores
    (``dumps`` writes a float as ``float.__repr__`` does)."""
    record_id, p, n, value = record
    return f'{{"id": {quote(record_id)}, "n": {n!r}, "p": {p!r}, "reward": {value!r}}}'


Scorer = Callable[[str, str], float]


class _Memo(dict):
    """``memo[text]`` is ``func(text)``, computed once per distinct text."""

    def __init__(self, func: Callable[[str], object]) -> None:
        super().__init__()
        self.func = func

    def __missing__(self, text: str):
        value = self[text] = self.func(text)
        return value


def _reward(prediction: str, gold: str, negatives: Sequence[str], scorer: Scorer | None, id: str,
            key: Callable[[str], str]) -> RewardRecord:
    gold_key = key(gold)
    negative_keys = [key(neg) for neg in negatives]
    if not gold_key or "" in negative_keys:
        kind, text = ("gold", gold) if not gold_key else ("negative", negatives[negative_keys.index("")])
        raise ValueError(f"question {id!r}: {kind} {text!r} has no scoring tokens")
    if gold_key in negative_keys:
        raise ValueError(f"gold answer {gold!r} also appears in the negative set")
    if scorer is None:  # exact match compares normalized keys
        pred_key = key(prediction)
        p, n = float(pred_key == gold_key), float(pred_key in negative_keys)
    else:
        p = float(scorer(prediction, gold))
        n = max((float(scorer(prediction, neg)) for neg in negatives), default=0.0)
    return RewardRecord(id, p, n, p if p >= n else -n)


def reward(prediction: str, gold: str, negatives: Sequence[str],
           scorer: Scorer | None = None, id: str = "") -> RewardRecord:
    """Score one prediction against the gold and its temporally wrong
    alternatives, by exact match unless a ``scorer`` is given. Requires gold
    and negatives to be disjoint after normalization, and each to have at
    least one scoring token; a breach is a data error, not a scoring outcome.
    """
    return _reward(prediction, gold, negatives, scorer, id, normalized_key)


def reward_records(questions: Sequence["Question"], predictions: Iterable[Prediction],
                   scorer: Scorer | None = None) -> list[RewardRecord]:
    """Reward for every question, matched to predictions by id under the
    same id rules as :func:`evaluate`.

    A question with no prediction scores as an empty prediction. A gold or
    negative with no scoring tokens raises a ValueError naming the question.
    """
    pred_map = _prediction_map(questions, predictions)
    key = _Memo(normalized_key).__getitem__
    return [_reward(pred_map.get(question.id, ""), question.answers[0], question.negatives,
                    scorer, question.id, key)
            for question in questions]


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


def _prediction_map(questions: Sequence["Question"], predictions: Iterable[Prediction]) -> dict[str, str]:
    """Prediction text by question id. Question ids and prediction ids must
    each be unique, and every prediction id must name a question."""
    question_ids = {q.id for q in questions}
    if len(question_ids) != len(questions):
        raise ValueError("duplicate question ids in the question file")
    pred_map: dict[str, str] = {}
    for pred in predictions:
        if pred.id in pred_map:
            raise ValueError(f"duplicate prediction id {pred.id!r}")
        pred_map[pred.id] = pred.prediction
    unknown = pred_map.keys() - question_ids
    if unknown:
        raise ValueError(f"predictions reference unknown question ids: {sorted(unknown)[:5]}")
    return pred_map


def evaluate(questions: Sequence["Question"], predictions: Iterable[Prediction], *,
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
    tokens = _Memo(normalize)
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
            ref_year, _ = t_ref
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
