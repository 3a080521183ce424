"""Prediction scoring: the normalization every comparison shares, and the
prediction record.

All string comparisons share one normalization (lowercase, ASCII punctuation
removed, English articles dropped, whitespace tokenized) so gold/negative
disjointness is checkable with the same rule used for scoring. A gold or
negative that normalizes to no tokens is a data error: an empty prediction
would match it.

The per-item scores and the evaluation report live in ``metrics``, the
reward in ``rewards``; their names are this module's too, each loading its
module on first use, so solving and fact grouping compile neither.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .jsonl import Columns, quote

if TYPE_CHECKING:
    from .records import Question

_ARTICLES = frozenset({"a", "an", "the"})
# One regex pass over the lowered text deletes the 32 ASCII punctuation marks of
# ``string.punctuation``, written out: importing ``string`` costs more than this
# line. ``str.translate`` with a deletion table does the same at two to three times the cost.
_strip_punctuation = re.compile(r"""[!"#$%&'()*+,\-./:;<=>?@\[\\\]^_`{|}~]""").sub


def normalize(text: str) -> list[str]:
    """Lowercased tokens with ASCII punctuation and English articles removed."""
    stripped = _strip_punctuation("", text.lower())
    return [token for token in stripped.split() if token not in _ARTICLES]


def normalized_key(text: str) -> str:
    """The normalized token sequence as a single comparable string."""
    return " ".join(normalize(text))


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


def _predictions(columns: list[list]) -> list[Prediction]:
    """A cached block's predictions, if both columns hold strings only."""
    ids, texts = columns
    "".join(chain(ids, texts))  # raises TypeError, a miss, unless every item is a str
    return list(map(tuple.__new__, repeat(Prediction), zip(ids, texts, strict=True)))


# The prediction codec of the input cache (jsonl.load_cached). Raise the
# number whenever the columns or their checks change.
PREDICTION_COLUMNS = Columns("predictions 1", lambda predictions: [*zip(*predictions)], _predictions)


def prediction_line(prediction: Prediction) -> str:
    """The line ``jsonl.dumps(prediction._asdict())`` writes."""
    return f'{{"id": {quote(prediction.id)}, "prediction": {quote(prediction.prediction)}}}'


class _Memo(dict):
    """``memo[text]`` is ``func(text)``, computed once per distinct text."""

    def __init__(self, func: Callable[[str], object]) -> None:
        super().__init__()
        self.func = func

    def __missing__(self, text: str):
        value = self[text] = self.func(text)
        return value


def _prediction_map(questions: Sequence[Question], predictions: Iterable[Prediction]) -> dict[str, str]:
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


_MODULE_OF = dict.fromkeys(("DEFAULT_PERIOD_EDGES", "EvalReport", "MetricBlock", "NumericScore", "_token_f1",
                            "evaluate", "extract_year", "period_label", "score_em", "score_f1", "score_numeric"),
                           "metrics")
_MODULE_OF.update(dict.fromkeys(("RewardRecord", "Scorer", "reward", "reward_line", "reward_records"), "rewards"))


def __getattr__(name: str):
    # As chronoqa/__init__ does: a name from metrics or rewards is imported on first use (PEP 562).
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(f"chronoqa.{_MODULE_OF[name]}", fromlist=[name]), name)
    return value
