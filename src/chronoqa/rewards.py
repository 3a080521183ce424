"""The temporally-aware reward.

It compares a prediction against the gold and the temporally wrong answers
from the same fact group: it is the positive score when that is at least
the best negative score, otherwise minus the best negative score. With
exact match as the scorer this lands in {-1, 0, +1}.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .jsonl import quote
from .scoring import _Memo, _prediction_map, normalized_key

if TYPE_CHECKING:
    from .records import Question
    from .scoring import Prediction


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


def reward_records(questions: Sequence[Question], predictions: Iterable[Prediction],
                   scorer: Scorer | None = None) -> list[RewardRecord]:
    """Reward for every question, matched to predictions by id under the
    same id rules as :func:`metrics.evaluate`.

    A question with no prediction scores as an empty prediction. A gold or
    negative with no scoring tokens raises a ValueError naming the question.
    """
    pred_map = _prediction_map(questions, predictions)
    key = _Memo(normalized_key).__getitem__
    return [_reward(pred_map.get(question.id, ""), question.answers[0], question.negatives,
                    scorer, question.id, key)
            for question in questions]
